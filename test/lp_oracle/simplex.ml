(* Dense two-phase simplex over exact rationals: the reference the LP
   backend's graph algorithms are checked against, not used by the
   library. [maximize ~objective ~rows ()] solves max objective^T x
   s.t. a_i^T x <= b_i for (a_i, b_i) in rows, x >= 0. Phase 1 runs
   when a right-hand side is negative; otherwise phase 2 starts from
   the slack basis. One tableau, one pivot, one primal loop, all under
   Bland's smallest-index rule (entering column and leaving-row ties),
   so cycling is impossible and termination needs no perturbation. *)

module R = Rational

type outcome =
  | Optimal of {
      objective : R.t;
      primal : R.t array; (* one value per structural variable *)
      dual : R.t array; (* shadow price per row, >= 0 *)
    }
  | Unbounded
  | Infeasible of { farkas : R.t array }
      (* row multipliers y >= 0 with y^T A >= 0 and y^T b < 0: a
         certificate that Ax <= b, x >= 0 is empty *)

let maximize ~objective ~rows () =
  let n = Array.length objective in
  let m = Array.length rows in
  Array.iter
    (fun (a, _) ->
      if Array.length a <> n then
        invalid_arg "Simplex.maximize: coefficient row length")
    rows;
  (* Rows with a negative right-hand side are negated (so the RHS is
     positive) and given an artificial variable; phase 1 drives the
     artificials to zero or proves the program empty. Columns:
     [0, n) structural, [n, n + m) slack, [n + m, ncols) artificial. *)
  let negated = Array.map (fun (_, b) -> R.sign b < 0) rows in
  let art_index = Array.make m (-1) in
  let ncols = ref (n + m) in
  Array.iteri
    (fun i v ->
      if v then begin
        art_index.(i) <- !ncols;
        incr ncols
      end)
    negated;
  let ncols = !ncols in
  (* [tab.(i)] holds row i over the columns and its right-hand side in
     the last slot; [basis.(i)] is its basic column. A row phase 1
     proves redundant is dead: no pivot reads or updates it again. *)
  let tab =
    Array.init m (fun i ->
        let a, b = rows.(i) in
        let row = Array.make (ncols + 1) R.zero in
        let s = if negated.(i) then R.minus_one else R.one in
        for j = 0 to n - 1 do
          row.(j) <- R.mul s a.(j)
        done;
        row.(n + i) <- s;
        if negated.(i) then row.(art_index.(i)) <- R.one;
        row.(ncols) <- R.mul s b;
        row)
  in
  let basis =
    Array.init m (fun i -> if negated.(i) then art_index.(i) else n + i)
  in
  let live = Array.make m true in
  (* An objective row holds reduced costs and, in its RHS slot, -z, so
     the ordinary row update maintains it. Phase 1 and phase 2 price
     different objectives over one tableau. *)
  let pivot obj ~pr ~pc =
    let prow = tab.(pr) in
    let d = prow.(pc) in
    for j = 0 to ncols do
      prow.(j) <- R.div prow.(j) d
    done;
    let elim row =
      let f = row.(pc) in
      if not (R.is_zero f) then
        for j = 0 to ncols do
          row.(j) <- R.sub row.(j) (R.mul f prow.(j))
        done
    in
    Array.iteri (fun i row -> if live.(i) && i <> pr then elim row) tab;
    elim obj;
    basis.(pr) <- pc
  in
  let rec primal obj ~max_col =
    let rec improving j =
      if j >= max_col then -1
      else if R.sign obj.(j) > 0 then j
      else improving (j + 1)
    in
    let pc = improving 0 in
    if pc < 0 then `Optimal
    else begin
      let pr = ref (-1) in
      for i = 0 to m - 1 do
        if live.(i) && R.sign tab.(i).(pc) > 0 then
          if !pr < 0 then pr := i
          else begin
            let cur = R.div tab.(!pr).(ncols) tab.(!pr).(pc) in
            let cand = R.div tab.(i).(ncols) tab.(i).(pc) in
            let c = R.compare cand cur in
            if c < 0 || (c = 0 && basis.(i) < basis.(!pr)) then pr := i
          end
      done;
      if !pr < 0 then `Unbounded
      else begin
        pivot obj ~pr:!pr ~pc;
        primal obj ~max_col
      end
    end
  in
  (* Phase 1 maximizes minus the sum of the artificials. [Some farkas]
     proves the program empty; [None] leaves the tableau on a feasible basis
     of real columns, with redundant rows dead. *)
  let phase1 () =
    let obj1 = Array.make (ncols + 1) R.zero in
    for j = n + m to ncols - 1 do
      obj1.(j) <- R.minus_one
    done;
    (* price out the basic artificials (cost -1 each) *)
    Array.iteri
      (fun i row ->
        if negated.(i) then
          for j = 0 to ncols do
            obj1.(j) <- R.add obj1.(j) row.(j)
          done)
      tab;
    match primal obj1 ~max_col:ncols with
    | `Unbounded -> assert false (* phase-1 objective is <= 0 *)
    | `Optimal when R.sign obj1.(ncols) > 0 ->
      (* Farkas multipliers from the phase-1 reduced costs: the
         multiplier of original row i sits on its initial basis
         column, adjusted for the row's sign flip. *)
      Some
        (Array.init m (fun i ->
             if negated.(i) then R.add R.one obj1.(art_index.(i))
             else R.neg obj1.(n + i)))
    | `Optimal ->
      (* drive leftover zero-level artificials out of the basis; an
         all-zero row (over real columns) is redundant *)
      for i = 0 to m - 1 do
        if live.(i) && basis.(i) >= n + m then begin
          let rec nonzero c =
            if c >= n + m then -1
            else if R.sign tab.(i).(c) <> 0 then c
            else nonzero (c + 1)
          in
          let j = nonzero 0 in
          if j >= 0 then pivot obj1 ~pr:i ~pc:j else live.(i) <- false
        end
      done;
      None
  in
  match if ncols > n + m then phase1 () else None with
  | Some farkas -> Infeasible { farkas }
  | None -> (
    (* the phase-2 objective row, priced out against the basis *)
    let obj = Array.make (ncols + 1) R.zero in
    Array.blit objective 0 obj 0 n;
    Array.iteri
      (fun i row ->
        if live.(i) && basis.(i) < n then begin
          let cb = objective.(basis.(i)) in
          if R.sign cb <> 0 then
            for j = 0 to ncols do
              obj.(j) <- R.sub obj.(j) (R.mul cb row.(j))
            done
        end)
      tab;
    match primal obj ~max_col:(n + m) with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let primal = Array.make n R.zero in
      Array.iteri
        (fun i b -> if live.(i) && b < n then primal.(b) <- tab.(i).(ncols))
        basis;
      let dual =
        Array.init m (fun i ->
            if negated.(i) then obj.(art_index.(i)) else R.neg obj.(n + i))
      in
      Optimal { objective = R.neg obj.(ncols); primal; dual })
