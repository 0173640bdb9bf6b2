open Fstream_graph

type result =
  | Safe of { states : int }
  | Deadlocks of { states : int; trace : string list }
  | Out_of_budget of { states : int }

let pp_result ppf = function
  | Safe { states } ->
    Format.fprintf ppf "safe (%d states explored, all filtering choices)"
      states
  | Deadlocks { states; trace } ->
    Format.fprintf ppf "deadlocks after %d states; trace:@." states;
    List.iter (fun a -> Format.fprintf ppf "    %s@." a) trace
  | Out_of_budget { states } ->
    Format.fprintf ppf "undecided: state budget exhausted (%d states)" states

(* Message kinds, kept as small ints for cheap structural hashing. *)
let k_data = 0
let k_dummy = 1
let k_eos = 2

type msg = { seq : int; kind : int }

type state = {
  chans : msg list array;  (* per edge, head first *)
  pending : (int * msg) list array;  (* per node, send order *)
  slot : int array;  (* per edge: queued dummy seq, or -1 *)
  next_in : int array;  (* per source node *)
  finished : bool array;
  last : int array;  (* per edge: last sequence number sent *)
}

let key st : string = Marshal.to_string st []

let copy st =
  {
    chans = Array.copy st.chans;
    pending = Array.copy st.pending;
    slot = Array.copy st.slot;
    next_in = Array.copy st.next_in;
    finished = Array.copy st.finished;
    last = Array.copy st.last;
  }

let check ?(max_states = 1_000_000) ?(strategy = `Bfs) ~graph:g ~avoidance
    ~inputs () =
  let open Fstream_runtime in
  let n = Graph.num_nodes g and m = Graph.num_edges g in
  let thresholds, forwarding = Firing.decode g avoidance in
  let cap = Array.init m (fun i -> (Graph.edge g i).cap) in
  let out_ids =
    Array.init n (fun v ->
        List.map (fun (e : Graph.edge) -> e.id) (Graph.out_edges g v))
  in
  let in_ids =
    Array.init n (fun v ->
        List.map (fun (e : Graph.edge) -> e.id) (Graph.in_edges g v))
  in
  let is_source = Array.init n (fun v -> in_ids.(v) = []) in
  let chan_len st e = List.length st.chans.(e) in
  let has_space st e = chan_len st e < cap.(e) in
  let push st e msg = st.chans.(e) <- st.chans.(e) @ [ msg ] in
  (* The wrapper's send phase for one firing (the rule of Firing.emit,
     restated on immutable states). *)
  let emit st v ~seq ~data_out ~got_dummy =
    List.iter
      (fun e ->
        if List.mem e data_out then begin
          st.pending.(v) <- st.pending.(v) @ [ (e, { seq; kind = k_data }) ];
          st.slot.(e) <- -1;
          st.last.(e) <- seq
        end
        else begin
          let due =
            match thresholds.(e) with
            | Some k -> seq - st.last.(e) >= k
            | None -> false
          in
          if (forwarding && got_dummy) || due then begin
            st.slot.(e) <- seq;
            st.last.(e) <- seq
          end
        end)
      out_ids.(v)
  in
  let send_eos st v =
    List.iter
      (fun e ->
        st.slot.(e) <- -1;
        st.pending.(v) <- st.pending.(v) @ [ (e, { seq = max_int; kind = k_eos }) ])
      out_ids.(v);
    st.finished.(v) <- true
  in
  let subsets ids =
    List.fold_left
      (fun acc id -> acc @ List.map (fun s -> id :: s) acc)
      [ [] ] ids
  in
  (* Enumerate successor states with human-readable action labels.

     Partial-order reduction: a queued data/EOS delivery has fixed
     content, stays enabled under every other action (only its own
     producer sends on that channel, and consumption only frees space),
     and commutes with all of them, so whenever one is enabled it is
     explored as the sole successor. Dummy-slot deliveries are NOT
     forced: a delayed slot can be coalesced or superseded, so timing
     changes the message stream. *)
  let forced_delivery st =
    let found = ref None in
    for v = n - 1 downto 0 do
      let seen = Hashtbl.create 4 in
      List.iteri
        (fun idx (e, msg) ->
          if not (Hashtbl.mem seen e) then begin
            Hashtbl.replace seen e ();
            if has_space st e then begin
              let st' = copy st in
              st'.pending.(v) <-
                List.filteri (fun i _ -> i <> idx) st.pending.(v);
              push st' e msg;
              found :=
                Some
                  ( Printf.sprintf "n%d delivers %s on e%d" v
                      (if msg.kind = k_eos then "eos"
                       else Printf.sprintf "#%d" msg.seq)
                      e,
                    st' )
            end
          end)
        st.pending.(v)
    done;
    !found
  in
  let successors st =
    match forced_delivery st with
    | Some action -> [ action ]
    | None ->
    let out = ref [] in
    let add label st' = out := (label, st') :: !out in
    for v = 0 to n - 1 do
      (* dummy-slot deliveries: channels without queued sends *)
      let queued e = List.exists (fun (e', _) -> e' = e) st.pending.(v) in
      List.iter
        (fun e ->
          if st.slot.(e) >= 0 && (not (queued e)) && has_space st e then begin
            let st' = copy st in
            st'.slot.(e) <- -1;
            push st' e { seq = st.slot.(e); kind = k_dummy };
            add (Printf.sprintf "n%d delivers dummy #%d on e%d" v st.slot.(e) e)
              st'
          end)
        out_ids.(v);
      (* firings need an empty pending queue *)
      if st.pending.(v) = [] then
        if is_source.(v) then begin
          if st.next_in.(v) < inputs then
            List.iter
              (fun data_out ->
                let st' = copy st in
                let seq = st.next_in.(v) in
                st'.next_in.(v) <- seq + 1;
                emit st' v ~seq ~data_out ~got_dummy:false;
                add
                  (Printf.sprintf "n%d fires seq %d, keeps {%s}" v seq
                     (String.concat "," (List.map string_of_int data_out)))
                  st')
              (subsets out_ids.(v))
          else if not st.finished.(v) then begin
            let st' = copy st in
            send_eos st' v;
            add (Printf.sprintf "n%d sends eos" v) st'
          end
        end
        else if
          (not st.finished.(v))
          && List.for_all (fun e -> st.chans.(e) <> []) in_ids.(v)
        then begin
          let heads = List.map (fun e -> (e, List.hd st.chans.(e))) in_ids.(v) in
          let i =
            List.fold_left (fun acc (_, msg) -> min acc msg.seq) max_int heads
          in
          if i = max_int then begin
            let st' = copy st in
            List.iter (fun (e, _) -> st'.chans.(e) <- List.tl st.chans.(e)) heads;
            send_eos st' v;
            add (Printf.sprintf "n%d drains eos" v) st'
          end
          else begin
            let got_data =
              List.filter_map
                (fun (e, msg) ->
                  if msg.seq = i && msg.kind = k_data then Some e else None)
                heads
            in
            let got_dummy =
              List.exists
                (fun ((_, msg) : int * msg) -> msg.seq = i && msg.kind = k_dummy)
                heads
            in
            let consume st' =
              List.iter
                (fun (e, (msg : msg)) ->
                  if msg.seq = i then st'.chans.(e) <- List.tl st.chans.(e))
                heads
            in
            let choices =
              if got_data = [] then [ [] ] else subsets out_ids.(v)
            in
            List.iter
              (fun data_out ->
                let st' = copy st in
                consume st';
                emit st' v ~seq:i ~data_out ~got_dummy;
                add
                  (Printf.sprintf "n%d fires seq %d got {%s} keeps {%s}" v i
                     (String.concat "," (List.map string_of_int got_data))
                     (String.concat "," (List.map string_of_int data_out)))
                  st')
              choices
          end
        end
    done;
    !out
  in
  let completed st =
    Array.for_all Fun.id st.finished
    && Array.for_all (fun c -> c = []) st.chans
    && Array.for_all (fun p -> p = []) st.pending
  in
  let initial =
    {
      chans = Array.make m [];
      pending = Array.make n [];
      slot = Array.make m (-1);
      next_in = Array.make n 0;
      finished = Array.make n false;
      last = Array.make m (-1);
    }
  in
  (* BFS with parent links for trace reconstruction. *)
  let parent : (string, string * string) Hashtbl.t = Hashtbl.create 4096 in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  (* BFS yields shortest counterexample traces; DFS commits to a branch
     and typically reaches wedged states in far fewer expansions. The
     frontier is a queue (BFS) or stack (DFS) with O(1) operations. *)
  let bfs_q : (string * state) Queue.t = Queue.create () in
  let dfs_s : (string * state) list ref = ref [] in
  let push_frontier x =
    match strategy with
    | `Bfs -> Queue.add x bfs_q
    | `Dfs -> dfs_s := x :: !dfs_s
  in
  let pop_frontier () =
    match strategy with
    | `Bfs -> if Queue.is_empty bfs_q then None else Some (Queue.pop bfs_q)
    | `Dfs -> (
      match !dfs_s with
      | [] -> None
      | x :: r ->
        dfs_s := r;
        Some x)
  in
  let k0 = key initial in
  Hashtbl.replace visited k0 ();
  push_frontier (k0, initial);
  let states = ref 1 in
  let rec trace_of k acc =
    match Hashtbl.find_opt parent k with
    | None -> acc
    | Some (pk, action) -> trace_of pk (action :: acc)
  in
  let result = ref None in
  let continue = ref true in
  while !result = None && !continue do
    match pop_frontier () with
    | None -> continue := false
    | Some (k, st) ->
    let succ = successors st in
    if succ = [] && not (completed st) then
      result := Some (Deadlocks { states = !states; trace = trace_of k [] })
    else
      (* the state that crosses [max_states] ends the search: the rest
         of this expansion is neither stored nor counted *)
      let rec expand = function
        | [] -> ()
        | (action, st') :: rest ->
          let k' = key st' in
          if Hashtbl.mem visited k' then expand rest
          else begin
            incr states;
            if !states > max_states then
              result := Some (Out_of_budget { states = !states })
            else begin
              Hashtbl.replace visited k' ();
              Hashtbl.replace parent k' (k, action);
              push_frontier (k', st');
              expand rest
            end
          end
      in
      expand succ
  done;
  match !result with
  | Some r -> r
  | None -> Safe { states = !states }
