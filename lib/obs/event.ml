type payload = Data | Dummy | Eos

type outcome = Completed | Deadlocked | Budget_exhausted

type t =
  | Round_started of { round : int }
  | Node_fired of {
      node : int;
      seq : int;
      got : int list;
      got_dummy : bool;
      sent : int list;
    }
  | Subnode_fired of { node : int; sub : int; seq : int }
  | Push of { edge : int; seq : int; payload : payload }
  | Pop of { edge : int; seq : int; payload : payload }
  | Dummy_emitted of { node : int; edge : int; seq : int }
  | Dummy_dropped of { edge : int; seq : int }
  | Blocked of { node : int; edge : int }
  | Eos of { node : int }
  | Wedge of { round : int }
  | Run_finished of { outcome : outcome }

let name = function
  | Round_started _ -> "Round_started"
  | Node_fired _ -> "Node_fired"
  | Subnode_fired _ -> "Subnode_fired"
  | Push _ -> "Push"
  | Pop _ -> "Pop"
  | Dummy_emitted _ -> "Dummy_emitted"
  | Dummy_dropped _ -> "Dummy_dropped"
  | Blocked _ -> "Blocked"
  | Eos _ -> "Eos"
  | Wedge _ -> "Wedge"
  | Run_finished _ -> "Run_finished"

let pp_payload ppf = function
  | Data -> Format.pp_print_string ppf "data"
  | Dummy -> Format.pp_print_string ppf "dummy"
  | Eos -> Format.pp_print_string ppf "eos"

let pp_outcome ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Deadlocked -> Format.pp_print_string ppf "DEADLOCKED"
  | Budget_exhausted -> Format.pp_print_string ppf "budget exhausted"
