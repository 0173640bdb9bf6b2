(* Timing and table helpers shared by the experiment sections. *)

let now_ns () = Monotonic_clock.now ()

(* Set by [--quick] on the command line: sections shrink their sweeps to
   one small size / a handful of trials, so CI can smoke-test the bench
   binary (and the hot path it exercises) in seconds. *)
let quick = ref false

(* Allocation accounting around a thunk. [quick_stat] reads the GC's
   counters without walking the heap, so the probe itself is cheap
   enough to wrap whole engine runs. Words are OCaml words (8 bytes on
   64-bit); [minor_words] counts every allocation that went through the
   minor heap, which is the figure of merit for a hot loop that is
   supposed to allocate nothing. It comes from [Gc.minor_words]: on
   OCaml 5 the [quick_stat] field is only brought up to date at minor
   collections, so its delta drops whatever the thunk allocated after
   the last one — a figure that moved with unrelated set-up changes. *)
type gc_stats = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let with_gc_stats f =
  let a = Gc.quick_stat () and wa = Gc.minor_words () in
  let r = f () in
  let wb = Gc.minor_words () and b = Gc.quick_stat () in
  ( {
      minor_words = wb -. wa;
      major_words = b.Gc.major_words -. a.Gc.major_words;
      promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    },
    r )

(* Wall-clock one evaluation, in nanoseconds. *)
let time_once f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (Int64.to_float (Int64.sub t1 t0), r)

(* Best-of-n timing to damp scheduler noise; returns nanoseconds. *)
let time_best ?(repeat = 3) f =
  let best = ref infinity in
  for _ = 1 to repeat do
    let t, _ = time_once f in
    if t < !best then best := t
  done;
  !best

let pp_ns ppf ns =
  if ns < 1e3 then Format.fprintf ppf "%8.0f ns" ns
  else if ns < 1e6 then Format.fprintf ppf "%8.2f us" (ns /. 1e3)
  else if ns < 1e9 then Format.fprintf ppf "%8.2f ms" (ns /. 1e6)
  else Format.fprintf ppf "%8.2f s " (ns /. 1e9)

let section id title =
  Format.printf "@.==== %s: %s ====@." id title

let row fmt = Format.printf fmt

let ok b = if b then "ok" else "MISMATCH"

(* A deterministic check fails the run; call it after the row that
   prints [ok b], so the mismatch is on screen first. Timing
   comparisons vary with the host and are only printed. *)
let require section what b =
  if not b then failwith (Printf.sprintf "%s: %s" section what)

(* ------------------------------------------------------------------ *)
(* Headline JSON: [--json FILE] makes the sections deposit their key
   numbers here and the driver write them out at exit, so CI can attach
   one machine-readable artifact per PR (BENCH_PR6.json) instead of
   scraping the tables. Hand-rolled serializer — the repo carries no
   JSON dependency and the values are flat string/number pairs. *)

let json_file : string option ref = ref None

(* (section, key, value), insertion-ordered *)
let headlines : (string * string * float) list ref = ref []

let headline sec key v = headlines := (sec, key, v) :: !headlines

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_number v =
  (* JSON has no inf/nan: clamp to null, callers treat it as missing *)
  if Float.is_finite v then
    let s = Printf.sprintf "%.6g" v in
    (* "%.6g" never prints a spurious exponent OCaml-style ("1e+06" is
       valid JSON); just guard the degenerate "-0" *)
    if s = "-0" then "0" else s
  else "null"

(* The CPU model from /proc/cpuinfo, where there is one. *)
let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> "unknown"
      | line -> (
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = "model name" ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let write_json () =
  match !json_file with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let sections =
      List.fold_left
        (fun acc (sec, _, _) -> if List.mem sec acc then acc else sec :: acc)
        []
        (List.rev !headlines)
      |> List.rev
    in
    output_string oc "{\n  \"bench\": \"filterstream\",\n";
    Printf.fprintf oc "  \"quick\": %b,\n" !quick;
    Printf.fprintf oc
      "  \"host\": { \"nproc\": %d, \"ocaml\": \"%s\", \"cpu\": \"%s\" },\n"
      (Domain.recommended_domain_count ())
      (json_escape Sys.ocaml_version)
      (json_escape (cpu_model ()));
    output_string oc "  \"sections\": {\n";
    List.iteri
      (fun i sec ->
        Printf.fprintf oc "    \"%s\": {\n" (json_escape sec);
        let entries =
          List.filter (fun (s, _, _) -> s = sec) (List.rev !headlines)
        in
        List.iteri
          (fun j (_, key, v) ->
            Printf.fprintf oc "      \"%s\": %s%s\n" (json_escape key)
              (json_number v)
              (if j = List.length entries - 1 then "" else ","))
          entries;
        Printf.fprintf oc "    }%s\n"
          (if i = List.length sections - 1 then "" else ","))
      sections;
    output_string oc "  }\n}\n";
    close_out oc;
    Format.printf "@.headline JSON written to %s@." path
