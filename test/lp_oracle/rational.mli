(** Exact rational arithmetic for the oracle simplex.

    Simplex pivoting multiplies and divides tableau entries; floats
    would silently lose the exactness the safety argument needs, and
    the repo is dependency-free (no zarith). Numerator and denominator
    are arbitrary-precision naturals built on plain [int array] limbs,
    so intermediate pivot values can grow past 63 bits without
    overflow. Values are kept normalized: [gcd (num, den) = 1],
    [den > 0], and zero is the unique [0/1]. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val make : int -> int -> t
(** [make num den] is the rational [num / den].
    @raise Division_by_zero if [den = 0]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero on a zero divisor. *)

val neg : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool

val floor : t -> int
(** Greatest integer [<= t].
    @raise Failure if the result does not fit in an OCaml [int]. *)

val ceil : t -> int
(** Least integer [>= t].
    @raise Failure if the result does not fit in an OCaml [int]. *)

val to_int_pair : t -> (int * int) option
(** [(num, den)] in lowest terms with [den > 0], when both fit in an
    OCaml [int]; [None] once either has outgrown 62 bits. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
