(* Sparse revised two-phase bounded-variable simplex on [float]: the one
   kernel {!Simplex} runs on every LP relaxation.

   The constraint matrix is stored column-wise (a compiled column store of
   row-index and value arrays, see {!compiled}); the basis inverse is
   represented as a product-form eta file that is rebuilt from scratch
   (refactorised) after a bounded number of pivots, which both bounds the
   FTRAN / BTRAN cost and drains accumulated roundoff. Every FTRAN runs in
   one routine ({!load_column}) over a sparse work vector that records the
   rows it touches, so building etas, updating x_B, the primal ratio test
   and refactorisation cost time in proportion to nonzeros, not to [m].
   The recorded rows are sorted ascending, so every float and tie-break is
   the one a dense scan would produce.

   Structural variables range over [0, ub_j] (ub_j optional, [infinity] =
   none); a nonbasic variable rests at either bound ([at_ub]) and upper
   bounds are enforced by the ratio test — including bound flips that move
   a variable across its whole span without a basis change — instead of by
   explicit rows.

   Columns [0 .. n-1] are structural, [n .. n+m-1] artificial. Artificial
   columns never re-enter the basis once they leave: phase 1 then still
   terminates at a true optimum of the restricted problem, and any feasible
   point of the original problem remains feasible with all artificials at
   zero, so the infeasibility test is unaffected.

   Pricing is steepest-edge-lite — Dantzig reduced costs scaled by static
   column norms ([d_j^2 / (1 + ||a_j||^2)]) — for the first [3*(m+n)]
   iterations, then Bland (smallest index), which guarantees termination
   even under degeneracy (bound flips are always nondegenerate: spans are
   strictly positive).

   Every hot array is an unboxed [float array] and every comparison inline.
   Two things serve branch-and-bound in particular:

   - the compiled column store ({!compiled}): the standard form's row-index
     and value arrays, pricing weights, costs and root spans, built once
     per branch-and-bound search and shared read-only by the cold root
     solve and every warm node re-solve;
   - the write-once factor cell of {!snapshot}: the first warm re-solve
     from a snapshot publishes its refactorised basis, and the sibling
     installs it instead of refactorising.

   [test/lp_oracle.ml] checks the kernel, through {!Simplex}, against exact
   vertex enumeration on random models. *)

let eps = 1e-9

type result =
  | Optimal of float * float array
  | Infeasible
  | Unbounded

exception Deadline_exceeded

type eta = {
  e_row : int;
  e_pivot : float;  (* 1 / alpha_r *)
  e_idx : int array;  (* rows i <> e_row with nonzero alpha_i *)
  e_val : float array;  (* -alpha_i / alpha_r, parallel to [e_idx] *)
}

type factor = { f_basis : int array; f_etas : eta array }

(* Which columns are basic and which nonbasic columns rest at their upper
   bound, plus the factor cell, written at most once (see
   {!warm_factor}). *)
type snapshot = {
  s_basis : int array;
  s_at_ub : bool array;
  s_factor : factor option Atomic.t;
}

let new_snapshot ~basis ~at_ub =
  {
    s_basis = Array.copy basis;
    s_at_ub = Array.copy at_ub;
    s_factor = Atomic.make None;
  }

type resolve =
  | Resolved of result * snapshot option
  | Stale of string

let dummy_eta = { e_row = 0; e_pivot = 1.0; e_idx = [||]; e_val = [||] }

type compiled = {
  k_nrows : int;
  k_cidx : int array array;  (* structural columns: row indices *)
  k_cval : float array array;  (* structural columns: coefficients *)
  k_weight : float array;  (* pricing weight 1 + ||a_j||^2 *)
  k_c : float array;
  k_ubs : float array;  (* root span per column, [infinity] = none *)
}

let compile ~nrows:m ~cols ~c ~ubs =
  let n = Array.length cols in
  if Array.length c <> n then invalid_arg "Tableau_float.compile: c length";
  if Array.length ubs <> n then invalid_arg "Tableau_float.compile: ubs length";
  let cidx = Array.map (fun col -> Array.map fst col) cols in
  let cval = Array.map (fun col -> Array.map snd col) cols in
  Array.iter
    (fun idx ->
      Array.iteri
        (fun k i ->
          if i < 0 || i >= m then
            invalid_arg "Tableau_float.compile: row out of range";
          if k > 0 && idx.(k - 1) >= i then
            invalid_arg "Tableau_float.compile: rows not strictly ascending")
        idx)
    cidx;
  let k_ubs =
    Array.map
      (function
        | Some x when x <= eps ->
          invalid_arg "Tableau_float.compile: non-positive upper bound"
        | Some x -> x
        | None -> infinity)
      ubs
  in
  let weight =
    Array.map
      (fun vl -> Array.fold_left (fun acc x -> acc +. (x *. x)) 1.0 vl)
      cval
  in
  { k_nrows = m; k_cidx = cidx; k_cval = cval; k_weight = weight; k_c = c; k_ubs }

(* A sparse work vector for one FTRAN'd column: dense values that are
   exactly 0.0 outside the pattern [w_rows.(0 .. w_nnz-1)], the rows
   touched since it was last cleared, with [w_mark] flagging its members.
   Clearing touches only the pattern, never all [m] rows. *)
type work = {
  w_val : float array;
  w_rows : int array;
  mutable w_nnz : int;
  w_mark : int array;  (* bit [i land 31] of word [i lsr 5] marks row [i] *)
}

let new_work m =
  let marks = Array.make ((m + 31) / 32) 0 in
  { w_val = Array.make m 0.0; w_rows = Array.make m 0; w_nnz = 0; w_mark = marks }

type state = {
  m : int;
  n : int;
  cidx : int array array;  (* shared with the compiled store, read-only *)
  cval : float array array;
  ubs : float array;  (* upper bound per structural column, [infinity] = none *)
  at_ub : bool array;
  weight : float array;
  basis : int array;
  pos : int array;
  x_b : float array;
  b : float array;
  work : work;  (* FTRAN work vector: the column {!load_column} loaded last *)
  mutable etas : eta array;
  mutable n_etas : int;
  mutable factor_etas : int;
}

let clamp x = if Float.abs x <= eps then 0.0 else x
let fcmp a b = if Float.abs (a -. b) <= eps then 0 else Float.compare a b
let ub_of st j = if j < st.n then st.ubs.(j) else infinity

let push_eta st e =
  if st.n_etas = Array.length st.etas then begin
    let bigger = Array.make (max 16 (2 * st.n_etas)) e in
    Array.blit st.etas 0 bigger 0 st.n_etas;
    st.etas <- bigger
  end;
  st.etas.(st.n_etas) <- e;
  st.n_etas <- st.n_etas + 1

let btran st y =
  for t = st.n_etas - 1 downto 0 do
    let e = st.etas.(t) in
    let acc = ref (e.e_pivot *. y.(e.e_row)) in
    let idx = e.e_idx and vl = e.e_val in
    for k = 0 to Array.length idx - 1 do
      acc := !acc +. (vl.(k) *. y.(idx.(k)))
    done;
    y.(e.e_row) <- clamp !acc
  done

(* Empty the work vector, touching only the previous pattern. *)
let clear w =
  for k = 0 to w.w_nnz - 1 do
    let i = w.w_rows.(k) in
    w.w_val.(i) <- 0.0;
    w.w_mark.(i lsr 5) <- 0
  done;
  w.w_nnz <- 0

(* Append row [i], not yet in the pattern. *)
let add_row w i =
  w.w_mark.(i lsr 5) <- w.w_mark.(i lsr 5) lor (1 lsl (i land 31));
  w.w_rows.(w.w_nnz) <- i;
  w.w_nnz <- w.w_nnz + 1

(* Bit position of a power of two below 2^32 (de Bruijn multiplication). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

(* Sort the pattern ascending by reading it back off the mark words, in
   O(nnz + m/32); a pattern that is one ascending run already (a column
   no eta filled) is left as it is. *)
let sort_rows w =
  let rows = w.w_rows and n = w.w_nnz in
  let k = ref 1 in
  while !k < n && rows.(!k - 1) < rows.(!k) do
    incr k
  done;
  if !k < n then begin
    let c = ref 0 in
    for q = 0 to Array.length w.w_mark - 1 do
      let x = ref w.w_mark.(q) in
      while !x <> 0 do
        let low = !x land - !x in
        rows.(!c) <- (q lsl 5) + debruijn.(((low * 0x077CB531) land 0xFFFFFFFF) lsr 27);
        incr c;
        x := !x lxor low
      done
    done
  end

(* FTRAN the work vector over etas [lo .. hi-1], recording their fill. *)
let apply_etas st w lo hi =
  let v = w.w_val and mark = w.w_mark and rows = w.w_rows in
  let nnz = ref w.w_nnz in
  for t = lo to hi - 1 do
    let e = st.etas.(t) in
    let x = v.(e.e_row) in
    if Float.abs x > eps then begin
      v.(e.e_row) <- e.e_pivot *. x;
      let idx = e.e_idx and vl = e.e_val in
      for k = 0 to Array.length idx - 1 do
        let i = idx.(k) in
        let old = v.(i) in
        v.(i) <- old +. (vl.(k) *. x);
        (* Only a row holding exactly 0.0 can be new to the pattern. No
           call here: one would make the loop spill its registers. *)
        if old = 0.0 then begin
          let q = i lsr 5 and bit = 1 lsl (i land 31) in
          if mark.(q) land bit = 0 then begin
            mark.(q) <- mark.(q) lor bit;
            rows.(!nnz) <- i;
            incr nnz
          end
        end
      done
    end
  done;
  w.w_nnz <- !nnz

(* The one column routine: load structural column [j] into [st.work] and
   FTRAN it over the eta file, except the etas [skip_lo .. skip_hi-1],
   recording the rows it touches; then sort the pattern ascending. Each
   eta applied computes the same floats as over a dense vector (a row
   outside the pattern holds 0.0 exactly, as it would there), and the
   ascending pattern keeps every consumer's scan order. *)
let load_column st j ~skip_lo ~skip_hi =
  let w = st.work in
  clear w;
  let idx = st.cidx.(j) and vl = st.cval.(j) in
  for k = 0 to Array.length idx - 1 do
    w.w_val.(idx.(k)) <- vl.(k);
    add_row w idx.(k)
  done;
  apply_etas st w 0 skip_lo;
  apply_etas st w skip_hi st.n_etas;
  sort_rows w

let ftran_column st j = load_column st j ~skip_lo:st.n_etas ~skip_hi:st.n_etas

(* The eta of pivoting the loaded column on [row]: its off-pivot entries
   above [eps], in the pattern's ascending order. *)
let eta_of_work w ~row =
  let v = w.w_val and rows = w.w_rows in
  let cnt = ref 0 in
  for k = 0 to w.w_nnz - 1 do
    let i = rows.(k) in
    if i <> row && Float.abs v.(i) > eps then incr cnt
  done;
  let ar = v.(row) in
  let idx = Array.make !cnt 0 and vl = Array.make !cnt 0.0 in
  let c = ref 0 in
  for k = 0 to w.w_nnz - 1 do
    let i = rows.(k) in
    if i <> row && Float.abs v.(i) > eps then begin
      idx.(!c) <- i;
      vl.(!c) <- -.(v.(i) /. ar);
      incr c
    end
  done;
  { e_row = row; e_pivot = 1.0 /. ar; e_idx = idx; e_val = vl }

(* x_B -= step * the work vector, over its pattern entries above [eps]. *)
let step_x_b st step =
  let w = st.work in
  for k = 0 to w.w_nnz - 1 do
    let i = w.w_rows.(k) in
    if Float.abs w.w_val.(i) > eps then
      st.x_b.(i) <- clamp (st.x_b.(i) -. (step *. w.w_val.(i)))
  done

(* Pivot the loaded column into the basis at [row]. *)
let pivot st ~row ~col ~t ~dir ~enter_val =
  let step = t *. dir in
  push_eta st (eta_of_work st.work ~row);
  step_x_b st step;
  st.x_b.(row) <- clamp (enter_val +. step);
  st.pos.(st.basis.(row)) <- -1;
  st.basis.(row) <- col;
  st.pos.(col) <- row

(* Positions and basic values for a freshly loaded factor:
   x_B = B^-1 (b - sum of the at-upper nonbasic columns times their span). *)
let load_x_b st =
  Array.fill st.pos 0 (st.n + st.m) (-1);
  Array.iteri (fun i col -> st.pos.(col) <- i) st.basis;
  let w = st.work in
  let v = w.w_val in
  clear w;
  for i = 0 to st.m - 1 do
    v.(i) <- st.b.(i);
    add_row w i
  done;
  for j = 0 to st.n - 1 do
    if st.pos.(j) < 0 && st.at_ub.(j) then begin
      let u = st.ubs.(j) in
      let idx = st.cidx.(j) and vl = st.cval.(j) in
      for k = 0 to Array.length idx - 1 do
        v.(idx.(k)) <- v.(idx.(k)) -. (vl.(k) *. u)
      done
    end
  done;
  apply_etas st w 0 st.n_etas;
  for i = 0 to st.m - 1 do
    st.x_b.(i) <- clamp v.(i)
  done;
  st.factor_etas <- st.n_etas

(* Rebuild the eta file from the current basis, then recompute
   x_B = B^-1 (b - N_U u_U). The pivot order is chosen to avoid fill in
   the rebuilt eta file — essential, because a naive Gauss-Jordan over LP
   bases produces near-dense etas and the FTRAN / BTRAN cost explodes:

   pass 1: identity-like columns (artificials and structural singletons)
           pivot on their own row with a trivial (term-free) eta;
   pass 2: repeatedly pivot a column that is alone on some untaken row.
           No other remaining column touches that row, so applying the
           eta downstream is a pattern no-op: each such eta carries
           exactly the column's own off-pivot entries and no fill;
   pass 3: the residual "bump" (some 50 columns in a basis of 800 rows
           on the paper's case 1) is eliminated smallest column first,
           picking pivot rows by magnitude.

   Every column goes through {!load_column}, so a refactorisation costs
   time in proportion to the nonzeros it touches. Passes 2 and 3 also skip
   the FTRAN over the pass-2 etas: a pass-2 column's pivot row holds no
   entry of any column still unplaced, and by induction over the pass-2
   etas every later column is exactly 0.0 on it when its eta comes up, so
   a full FTRAN would skip that eta too. By the same induction a pass-2
   column reaches its pivot row with its raw coefficient there; if that is
   at most [eps], no column can ever pivot on the row and the basis is
   singular, which is reported at once.

   The eta file goes into a fresh array: the old one may belong to a
   published {!factor}, which no solve may write into. Fails with a bare
   reason on a singular basis; the public entry points report it. *)
let refactor st =
  let rt0 = Telemetry.Clock.now_s () in
  st.etas <- Array.make (max 16 st.m) dummy_eta;
  st.n_etas <- 0;
  let w = st.work in
  let order = Array.copy st.basis in
  let taken = Array.make st.m false in
  let placed = Array.make st.m false in
  let place t col row =
    taken.(row) <- true;
    placed.(t) <- true;
    st.basis.(row) <- col
  in
  Array.iteri
    (fun t col ->
      if col >= st.n then begin
        (* a structural singleton took the row first: [e_r] twice *)
        let r = col - st.n in
        if taken.(r) then failwith "singular basis on refactorisation";
        place t col r
      end
      else if Array.length st.cidx.(col) = 1 then begin
        let r = st.cidx.(col).(0) in
        if not taken.(r) then begin
          let a = st.cval.(col).(0) in
          if fcmp a 1.0 <> 0 then
            push_eta st { e_row = r; e_pivot = 1.0 /. a; e_idx = [||]; e_val = [||] };
          place t col r
        end
      end)
    order;
  let pass1 = st.n_etas in
  let row_count = Array.make st.m 0 in
  let row_cols = Array.make st.m [] in
  Array.iteri
    (fun t col ->
      if not placed.(t) then
        Array.iter
          (fun i ->
            if not taken.(i) then begin
              row_count.(i) <- row_count.(i) + 1;
              row_cols.(i) <- t :: row_cols.(i)
            end)
          st.cidx.(col))
    order;
  let queue = Queue.create () in
  for i = 0 to st.m - 1 do
    if (not taken.(i)) && row_count.(i) = 1 then Queue.add i queue
  done;
  while not (Queue.is_empty queue) do
    let r = Queue.take queue in
    if (not taken.(r)) && row_count.(r) = 1 then
      match List.find_opt (fun t -> not placed.(t)) row_cols.(r) with
      | None -> ()
      | Some t ->
        let col = order.(t) in
        load_column st col ~skip_lo:pass1 ~skip_hi:st.n_etas;
        if Float.abs w.w_val.(r) <= eps then
          failwith "singular basis on refactorisation";
        push_eta st (eta_of_work w ~row:r);
        place t col r;
        Array.iter
          (fun i ->
            if not taken.(i) then begin
              row_count.(i) <- row_count.(i) - 1;
              if row_count.(i) = 1 then Queue.add i queue
            end)
          st.cidx.(col)
  done;
  let pass2 = st.n_etas in
  let bump = ref [] in
  Array.iteri (fun t _ -> if not placed.(t) then bump := t :: !bump) order;
  let bump =
    List.sort
      (fun t1 t2 ->
        compare (Array.length st.cidx.(order.(t1))) (Array.length st.cidx.(order.(t2))))
      !bump
  in
  List.iter
    (fun t ->
      let col = order.(t) in
      load_column st col ~skip_lo:pass1 ~skip_hi:pass2;
      (* the untaken row of largest magnitude, the first on ties *)
      let best = ref (-1) and best_mag = ref 0.0 in
      for k = 0 to w.w_nnz - 1 do
        let i = w.w_rows.(k) in
        let mag = Float.abs w.w_val.(i) in
        if (not taken.(i)) && mag > eps && (!best < 0 || mag > !best_mag) then begin
          best := i;
          best_mag := mag
        end
      done;
      if !best < 0 then failwith "singular basis on refactorisation";
      push_eta st (eta_of_work w ~row:!best);
      place t col !best)
    bump;
  load_x_b st;
  Telemetry.observe "lp.simplex.refactor_s" (Telemetry.Clock.now_s () -. rt0)

(* Entering column among the structural nonbasics: a variable at its lower
   bound enters on a negative reduced cost (moving up), one at its upper
   bound on a positive reduced cost (moving down). Steepest-edge-lite
   (reduced cost scaled by the static column norm) or Bland. Artificials
   are never priced back in. Phase 1 prices the sum of artificials, phase 2
   the structural costs [c]; the two are selected by a flag rather than a
   cost closure so the reduced-cost loop stays allocation-free. Returns the
   column and its direction, with its FTRAN'd tableau column in
   [st.work]. *)
let entering st ~c ~phase2 ~bland ~y =
  for i = 0 to st.m - 1 do
    let bv = st.basis.(i) in
    y.(i) <-
      (if phase2 then if bv < st.n then c.(bv) else 0.0
       else if bv >= st.n then 1.0
       else 0.0)
  done;
  btran st y;
  let reduced j =
    let s = ref (if phase2 then c.(j) else 0.0) in
    let idx = st.cidx.(j) and vl = st.cval.(j) in
    for k = 0 to Array.length idx - 1 do
      s := !s -. (vl.(k) *. y.(idx.(k)))
    done;
    !s
  in
  (* Zero-span columns (variables fixed by a branching bound change in a
     warm re-solve) can neither step nor flip: entering one would loop on
     zero-length bound flips, so they are never eligible. *)
  let eligible j d =
    st.ubs.(j) > eps && if st.at_ub.(j) then d > eps else d < -.eps
  in
  let chosen =
    if bland then begin
      let rec go j =
        if j >= st.n then -1
        else if st.pos.(j) < 0 && eligible j (reduced j) then j
        else go (j + 1)
      in
      go 0
    end
    else begin
      let best = ref (-1) and best_score = ref 0.0 in
      for j = 0 to st.n - 1 do
        if st.pos.(j) < 0 then begin
          let d = reduced j in
          if eligible j d then begin
            let score = d *. d /. st.weight.(j) in
            if score > !best_score then begin
              best := j;
              best_score := score
            end
          end
        end
      done;
      !best
    end
  in
  if chosen < 0 then None
  else begin
    ftran_column st chosen;
    Some (chosen, if st.at_ub.(chosen) then -1.0 else 1.0)
  end

type step =
  | Flip  (* the entering variable crosses to its other bound *)
  | Leave of { row : int; t : float; to_ub : bool }
  | Unbounded_dir

(* Ratio test for the loaded column moving by [t >= 0] in direction
   [dir]: basic variables must stay within [0, ub], and the entering
   variable within its own [span]. Only the column's pattern can block; it
   is scanned in ascending row order, as the tolerance-based tie-breaks
   need. Bland tie-break on basis variable index. In phase 2, a basic
   artificial (redundant row, value 0) also leaves on a ratio-0 degenerate
   step whenever its entry is nonzero in the blocking direction —
   preferring artificials on ratio ties keeps Bland's termination
   argument, as an artificial that leaves never re-enters. *)
let ratio_test st ~dir ~span ~phase2 =
  let w = st.work in
  let best = ref (-1) in
  let best_ratio = ref 0.0 in
  let best_to_ub = ref false in
  let best_art = ref false in
  for k = 0 to w.w_nnz - 1 do
    let i = w.w_rows.(k) in
    let aeff = dir *. w.w_val.(i) in
    if Float.abs aeff > eps then begin
      let bv = st.basis.(i) in
      let art = bv >= st.n in
      let candidate ratio to_ub =
        let better =
          !best < 0
          || fcmp ratio !best_ratio < 0
          || (fcmp ratio !best_ratio = 0
              && ((art && not !best_art)
                  || (art = !best_art && bv < st.basis.(!best))))
        in
        if better then begin
          best := i;
          best_ratio := ratio;
          best_to_ub := to_ub;
          best_art := art
        end
      in
      if aeff > eps then candidate (st.x_b.(i) /. aeff) false
      else begin
        let u = ub_of st bv in
        if u < infinity then candidate ((u -. st.x_b.(i)) /. -.aeff) true
        else if phase2 && art && Float.abs st.x_b.(i) <= eps then candidate 0.0 false
      end
    end
  done;
  if !best < 0 then if span < infinity then Flip else Unbounded_dir
  else if span < infinity && fcmp span !best_ratio <= 0 then Flip
  else Leave { row = !best; t = !best_ratio; to_ub = !best_to_ub }

(* The start of every primal and dual iteration: check the deadline every
   16 iterations, count the iteration, and refactorise once enough pivots
   have piled up. The limit counts pivots since the last refactorisation,
   not the eta-file length: refactorising itself emits up to [m] etas, so
   an absolute threshold below [m] would re-trigger on every iteration. *)
let next_iteration st ~iter_count ~deadline ~refactorisations =
  (match deadline with
   | Some t when !iter_count land 15 = 0 && Telemetry.Clock.now_s () > t ->
     Telemetry.count "lp.simplex.deadline_aborts";
     raise Deadline_exceeded
   | Some _ | None -> ());
  incr iter_count;
  if st.n_etas - st.factor_etas > min 150 (50 + (st.m / 4)) then begin
    incr refactorisations;
    refactor st
  end

let run_phase st ~c ~phase2 ~max_iters ~iter_count ~deadline ~pivots
    ~bland_pivots ~flips ~refactorisations =
  let switch = 3 * (st.m + st.n) in
  let y = Array.make st.m 0.0 in
  let rec loop () =
    if !iter_count > max_iters then failwith "iteration limit exceeded";
    next_iteration st ~iter_count ~deadline ~refactorisations;
    let bland = !iter_count > switch in
    match entering st ~c ~phase2 ~bland ~y with
    | None -> `Optimal
    | Some (col, dir) -> begin
      let span = st.ubs.(col) in
      match ratio_test st ~dir ~span ~phase2 with
      | Unbounded_dir -> `Unbounded
      | Flip ->
        step_x_b st (span *. dir);
        st.at_ub.(col) <- not st.at_ub.(col);
        incr flips;
        loop ()
      | Leave { row; t; to_ub } ->
        let leaving = st.basis.(row) in
        let enter_val = if st.at_ub.(col) then st.ubs.(col) else 0.0 in
        pivot st ~row ~col ~t ~dir ~enter_val;
        st.at_ub.(col) <- false;
        if leaving < st.n then st.at_ub.(leaving) <- to_ub;
        incr pivots;
        if bland then incr bland_pivots;
        loop ()
    end
  in
  loop ()

(* After phase 1, pivot remaining basic artificials out wherever some
   structural column has a nonzero entry in their row; rows whose
   structural part is entirely zero are redundant and are handled by the
   phase-2 ratio test instead. *)
let drive_out_artificials st ~pivots =
  let rho = Array.make st.m 0.0 in
  for i = 0 to st.m - 1 do
    if st.basis.(i) >= st.n then begin
      Array.fill rho 0 st.m 0.0;
      rho.(i) <- 1.0;
      btran st rho;
      let row_entry j =
        let s = ref 0.0 in
        let idx = st.cidx.(j) and vl = st.cval.(j) in
        for k = 0 to Array.length idx - 1 do
          s := !s +. (vl.(k) *. rho.(idx.(k)))
        done;
        !s
      in
      let rec find j =
        if j >= st.n then -1
        else if st.pos.(j) < 0 && Float.abs (row_entry j) > eps then j
        else find (j + 1)
      in
      let col = find 0 in
      if col >= 0 then begin
        ftran_column st col;
        if Float.abs st.work.w_val.(i) > eps then begin
          let enter_val = if st.at_ub.(col) then st.ubs.(col) else 0.0 in
          pivot st ~row:i ~col ~t:0.0 ~dir:1.0 ~enter_val;
          st.at_ub.(col) <- false;
          incr pivots
        end
      end
    end
  done

(* Dual simplex: restore primal feasibility of an inherited basis after the
   rhs / bound changes of a branch-and-bound child node, without giving up
   the parent's dual feasibility (the reduced-cost sign pattern depends only
   on the basis and the costs, neither of which branching touches).

   Bound-ratio pricing picks the leaving row — the basic variable with the
   largest bound violation, scaled by its static column norm, mirroring the
   primal's steepest-edge-lite rule — and the ratio test runs over the eta
   file: one BTRAN for the pivot row of B^-1, one for the simplex
   multipliers, then a sweep of the nonbasic structural columns collecting
   every sign-eligible entry with its ratio |d_j| / |alpha_rj|.

   The ratio test is the bound-flipping ("long step") variant: candidates
   are walked in ratio order and a boxed candidate whose span cannot absorb
   the remaining violation is flipped to its other bound — its reduced cost
   changes sign past the breakpoint, which is only dual feasible at the
   opposite bound — while the violation slope shrinks by span * |alpha_rj|;
   the first candidate that covers the residual violation pivots. All flips
   of one iteration are applied with a single accumulated FTRAN, so a
   flip-heavy repair costs one pricing round instead of one per flip (the
   naive variant hit ~800 full reprices per warm solve on the paper's
   case 1).

   Artificial columns are pinned to [0, 0] here: the parent solve left them
   at zero, and a nonzero artificial under the child's rhs is precisely an
   equality-row violation the dual steps must repair. Artificials are never
   priced back in; if no eligible entering column exists the row is a valid
   infeasibility certificate, as trustworthy as the primal phase-1 test. *)
let dual_phase st ~c ~max_iters ~iter_count ~deadline ~dual_pivots ~flips
    ~refactorisations =
  let y = Array.make st.m 0.0 in
  let rho = Array.make st.m 0.0 in
  let cand = Array.make st.n 0 in
  let cand_ratio = Array.make st.n 0.0 in
  let cand_arj = Array.make st.n 0.0 in
  let hi_of bv = if bv < st.n then st.ubs.(bv) else 0.0 in
  let rec loop () =
    if !iter_count > max_iters then `Cycled
    else begin
      next_iteration st ~iter_count ~deadline ~refactorisations;
      (* Bound-ratio pricing of the infeasible basic variables. *)
      let row = ref (-1) and score = ref 0.0 and above = ref false in
      for i = 0 to st.m - 1 do
        let bv = st.basis.(i) in
        let hi = hi_of bv in
        let viol, ab =
          if st.x_b.(i) < -.eps then (-.st.x_b.(i), false)
          else if st.x_b.(i) > hi +. eps then (st.x_b.(i) -. hi, true)
          else (0.0, false)
        in
        if viol > 0.0 then begin
          let w = if bv < st.n then st.weight.(bv) else 2.0 in
          let s = viol *. viol /. w in
          if s > !score then begin
            row := i;
            score := s;
            above := ab
          end
        end
      done;
      if !row < 0 then `Primal_feasible
      else begin
        let r = !row in
        let leaving = st.basis.(r) in
        Array.fill rho 0 st.m 0.0;
        rho.(r) <- 1.0;
        btran st rho;
        for i = 0 to st.m - 1 do
          let bv = st.basis.(i) in
          y.(i) <- (if bv < st.n then c.(bv) else 0.0)
        done;
        btran st y;
        (* Collect every sign-eligible nonbasic structural column with its
           dual ratio |d_j| / |alpha_rj|. *)
        let ncand = ref 0 in
        for j = 0 to st.n - 1 do
          if st.pos.(j) < 0 && st.ubs.(j) > eps then begin
            let arj = ref 0.0 and dj = ref c.(j) in
            let idx = st.cidx.(j) and vl = st.cval.(j) in
            for k = 0 to Array.length idx - 1 do
              arj := !arj +. (vl.(k) *. rho.(idx.(k)));
              dj := !dj -. (vl.(k) *. y.(idx.(k)))
            done;
            let arj = !arj in
            let eligible =
              if !above then
                if st.at_ub.(j) then arj < -.eps else arj > eps
              else if st.at_ub.(j) then arj > eps
              else arj < -.eps
            in
            if eligible then begin
              cand.(!ncand) <- j;
              cand_ratio.(!ncand) <- Float.abs !dj /. Float.abs arj;
              cand_arj.(!ncand) <- arj;
              incr ncand
            end
          end
        done;
        if !ncand = 0 then `Dual_unbounded
        else begin
          (* Bound-flipping ratio test: walk the candidates in ratio order.
             Passing a boxed candidate's breakpoint flips it to its other
             bound (its reduced cost changes sign there, which is only dual
             feasible at the opposite bound) and reduces the violation slope
             by span * |alpha_rj|; the candidate where the slope would hit
             zero becomes the pivot. Exhausting all breakpoints with slope
             remaining is dual unboundedness, i.e. primal infeasibility. *)
          let order = Array.init !ncand Fun.id in
          Array.sort
            (fun a b ->
              let cr = Float.compare cand_ratio.(a) cand_ratio.(b) in
              if cr <> 0 then cr
              else
                let cm =
                  Float.compare (Float.abs cand_arj.(b))
                    (Float.abs cand_arj.(a))
                in
                if cm <> 0 then cm else compare cand.(a) cand.(b))
            order;
          let target = if !above then hi_of leaving else 0.0 in
          let viol = ref (Float.abs (st.x_b.(r) -. target)) in
          let nflip = ref 0 in
          let enter = ref (-1) in
          let k = ref 0 in
          while !enter < 0 && !k < !ncand do
            let ci = order.(!k) in
            let j = cand.(ci) in
            let drop = st.ubs.(j) *. Float.abs cand_arj.(ci) in
            if drop < !viol -. eps then begin
              (* flip past this breakpoint, keep walking *)
              order.(!nflip) <- ci;
              incr nflip;
              viol := !viol -. drop
            end
            else enter := j;
            incr k
          done;
          if !enter < 0 then `Dual_unbounded
          else begin
            (* Apply the accumulated flips with one FTRAN: the raw flipped
               columns sum into [delta] (the work vector) and
               x_B -= B^-1 delta. *)
            if !nflip > 0 then begin
              let w = st.work in
              let delta = w.w_val in
              clear w;
              for f = 0 to !nflip - 1 do
                let j = cand.(order.(f)) in
                let u = st.ubs.(j) in
                let fstep = if st.at_ub.(j) then -.u else u in
                let idx = st.cidx.(j) and vl = st.cval.(j) in
                for t = 0 to Array.length idx - 1 do
                  let i = idx.(t) in
                  if w.w_mark.(i lsr 5) land (1 lsl (i land 31)) = 0 then add_row w i;
                  delta.(i) <- delta.(i) +. (fstep *. vl.(t))
                done;
                st.at_ub.(j) <- not st.at_ub.(j);
                incr flips
              done;
              apply_etas st w 0 st.n_etas;
              step_x_b st 1.0
            end;
            let j = !enter in
            ftran_column st j;
            let arj = st.work.w_val.(r) in
            if Float.abs arj <= eps then `Numerical
            else begin
              let step = (st.x_b.(r) -. target) /. arj in
              (* the pricing row (from BTRAN of e_r) and the FTRAN'd column
                 must agree on the step direction, and after the flips the
                 step must fit the entering span; drift on either means the
                 eta file has gone numerically stale *)
              let dir_ok =
                if st.at_ub.(j) then step <= eps else step >= -.eps
              in
              if not dir_ok then `Numerical
              else if
                Float.abs step > st.ubs.(j) +. (1e-7 *. Float.max 1.0 st.ubs.(j))
              then `Numerical
              else begin
                let enter_val = if st.at_ub.(j) then st.ubs.(j) else 0.0 in
                pivot st ~row:r ~col:j ~t:step ~dir:1.0 ~enter_val;
                st.at_ub.(j) <- false;
                if leaving < st.n then st.at_ub.(leaving) <- !above;
                incr dual_pivots;
                loop ()
              end
            end
          end
        end
      end
    end
  in
  loop ()

(* Load the factor of [snapshot]'s basis into [st], whose [basis] is a copy
   of the snapshot's: install the published factor when a sibling re-solve
   has stored one, otherwise refactorise and try to publish. A solve that
   loses the publication race to another domain counts as a reuse, so both
   counters depend only on the search tree, never on which domain got
   there first. *)
let warm_factor st snapshot ~refactorisations ~factor_reuses =
  let cell = snapshot.s_factor in
  match Atomic.get cell with
  | Some f ->
    Array.blit f.f_basis 0 st.basis 0 st.m;
    (* exactly full, so the first eta this solve pushes reallocates *)
    st.etas <- f.f_etas;
    st.n_etas <- Array.length f.f_etas;
    load_x_b st;
    incr factor_reuses
  | None ->
    (match refactor st with
     | () -> ()
     | exception e ->
       incr refactorisations;
       raise e);
    let f =
      { f_basis = Array.copy st.basis; f_etas = Array.sub st.etas 0 st.n_etas }
    in
    if Atomic.compare_and_set cell None (Some f) then incr refactorisations
    else incr factor_reuses

let resolve_with_basis ?(max_iters = 50_000) ?deadline k ~b ~spans ~snapshot ()
    =
  let m = k.k_nrows and n = Array.length k.k_cidx in
  if Array.length b <> m then
    invalid_arg "Tableau_float.resolve_with_basis: b length";
  if
    Array.length snapshot.s_basis <> m
    || Array.length snapshot.s_at_ub <> n
  then invalid_arg "Tableau_float.resolve_with_basis: snapshot shape";
  (* A negative span means the node fixed a variable to an impossible
     range: the subproblem is infeasible before any pivoting. *)
  if List.exists (function _, Some u -> u < -.eps | _, None -> false) spans
  then Resolved (Infeasible, None)
  else begin
    let ub_arr = Array.copy k.k_ubs in
    List.iter
      (fun (j, uo) ->
        ub_arr.(j) <- (match uo with Some x -> Float.max x 0.0 | None -> infinity))
      spans;
    let c = k.k_c in
    let basis = Array.copy snapshot.s_basis in
    let at_ub = Array.copy snapshot.s_at_ub in
    let pos = Array.make (n + m) (-1) in
    let sane = ref true in
    Array.iteri
      (fun i colid ->
        if colid < 0 || colid >= n + m || pos.(colid) >= 0 then sane := false
        else pos.(colid) <- i)
      basis;
    for j = 0 to n - 1 do
      if at_ub.(j) && (pos.(j) >= 0 || ub_arr.(j) = infinity) then
        at_ub.(j) <- false
    done;
    if not !sane then Stale "corrupt basis snapshot"
    else begin
      let st =
        {
          m;
          n;
          cidx = k.k_cidx;
          cval = k.k_cval;
          ubs = ub_arr;
          at_ub;
          weight = k.k_weight;
          basis;
          pos;
          x_b = Array.make m 0.0;
          b = Array.copy b;
          work = new_work m;
          etas = [||];
          n_etas = 0;
          factor_etas = 0;
        }
      in
      let pivots = ref 0
      and bland_pivots = ref 0
      and flips = ref 0
      and dual_pivots = ref 0
      and refactorisations = ref 0
      and factor_reuses = ref 0 in
      let flush () =
        Telemetry.count "lp.simplex.warm_solves";
        Telemetry.count ~by:!pivots "lp.simplex.pivots";
        Telemetry.count ~by:!dual_pivots "lp.simplex.dual_pivots";
        Telemetry.count ~by:!bland_pivots "lp.simplex.bland_pivots";
        Telemetry.count ~by:!flips "lp.simplex.bound_flips";
        Telemetry.count ~by:!refactorisations "lp.simplex.refactorisations";
        Telemetry.count ~by:!factor_reuses "lp.simplex.factor_reuses"
      in
      Fun.protect ~finally:flush @@ fun () ->
      let iter_count = ref 0 in
      match
        (try
           warm_factor st snapshot ~refactorisations ~factor_reuses;
           dual_phase st ~c ~max_iters ~iter_count ~deadline ~dual_pivots
             ~flips ~refactorisations
         with Failure msg -> `Failed msg)
      with
      | `Failed msg -> Stale msg
      | `Cycled -> Stale "dual iteration limit"
      | `Numerical -> Stale "dual numerical drift"
      | `Dual_unbounded -> Resolved (Infeasible, None)
      | `Primal_feasible -> (
        (* Primal clean-up: the dual phase ends primal feasible, and any
           residual dual infeasibility (e.g. a nonbasic variable whose rest
           bound flipped) is polished off by ordinary phase-2 pivots. *)
        match
          (try
             run_phase st ~c ~phase2:true ~max_iters ~iter_count ~deadline
               ~pivots ~bland_pivots ~flips ~refactorisations
           with Failure msg -> `Failed msg)
        with
        | `Failed msg -> Stale msg
        | `Unbounded -> Resolved (Unbounded, None)
        | `Optimal ->
          (* Accuracy cross-check before trusting the inherited basis: the
             resolved point must satisfy the bound system and A x = b. *)
          let tol = 1e-7 in
          let x = Array.make n 0.0 in
          for j = 0 to n - 1 do
            if st.pos.(j) < 0 && st.at_ub.(j) then x.(j) <- st.ubs.(j)
          done;
          let ok = ref true in
          for i = 0 to m - 1 do
            let bv = st.basis.(i) in
            if bv < n then begin
              x.(bv) <- st.x_b.(i);
              if st.x_b.(i) < -.tol then ok := false;
              if st.x_b.(i) -. st.ubs.(bv) > tol then ok := false
            end
            else if Float.abs st.x_b.(i) > tol then ok := false
          done;
          let resid = Array.copy st.b in
          for j = 0 to n - 1 do
            let xj = x.(j) in
            if Float.abs xj > 0.0 then begin
              let idx = st.cidx.(j) and vl = st.cval.(j) in
              for k = 0 to Array.length idx - 1 do
                resid.(idx.(k)) <- resid.(idx.(k)) -. (vl.(k) *. xj)
              done
            end
          done;
          let scale =
            Array.fold_left (fun acc bi -> Float.max acc (Float.abs bi)) 1.0 st.b
          in
          Array.iter
            (fun ri -> if Float.abs ri > 1e-6 *. scale then ok := false)
            resid;
          if not !ok then Stale "warm solve lost accuracy"
          else begin
            let value = ref 0.0 in
            for j = 0 to n - 1 do
              value := !value +. (c.(j) *. x.(j))
            done;
            Resolved
              ( Optimal (!value, x),
                Some (new_snapshot ~basis:st.basis ~at_ub:st.at_ub) )
          end)
    end
  end

let solve_cols ?(max_iters = 50_000) ?deadline ?snapshot_out k ~b () =
  let m = k.k_nrows and n = Array.length k.k_cidx in
  if Array.length b <> m then invalid_arg "Tableau_float.solve_cols: b length";
  Array.iter
    (fun bi ->
      if bi < -.eps then invalid_arg "Tableau_float.solve_cols: negative rhs")
    b;
  let cidx = k.k_cidx and cval = k.k_cval and ub_arr = k.k_ubs and c = k.k_c in
  (* Crash basis: cover each row with a positive structural singleton
     column (a slack, surplus-free bound row, ...) where one exists — the
     basis stays diagonal, so x_B = b (rescaled) stays feasible — and only
     the remaining rows get artificials for phase 1 to clear. *)
  let basis = Array.init m (fun i -> n + i) in
  let covered = Array.make m false in
  for j = 0 to n - 1 do
    if Array.length cidx.(j) = 1 then begin
      let i = cidx.(j).(0) in
      if (not covered.(i)) && cval.(j).(0) > eps && ub_arr.(j) = infinity then begin
        covered.(i) <- true;
        basis.(i) <- j
      end
    end
  done;
  let pos = Array.make (n + m) (-1) in
  for i = 0 to m - 1 do
    pos.(basis.(i)) <- i
  done;
  let st =
    {
      m;
      n;
      cidx;
      cval;
      ubs = ub_arr;
      at_ub = Array.make n false;
      weight = k.k_weight;
      basis;
      pos;
      x_b = Array.map clamp b;
      b = Array.copy b;
      work = new_work m;
      etas = [| dummy_eta |];
      n_etas = 0;
      factor_etas = 0;
    }
  in
  for i = 0 to m - 1 do
    if covered.(i) then begin
      let a = st.cval.(basis.(i)).(0) in
      if fcmp a 1.0 <> 0 then begin
        push_eta st { e_row = i; e_pivot = 1.0 /. a; e_idx = [||]; e_val = [||] };
        st.x_b.(i) <- clamp (st.x_b.(i) /. a)
      end
    end
  done;
  st.factor_etas <- st.n_etas;
  let pivots = ref 0
  and bland_pivots = ref 0
  and flips = ref 0
  and refactorisations = ref 0 in
  let flush () =
    Telemetry.count "lp.simplex.solves";
    Telemetry.count ~by:!pivots "lp.simplex.pivots";
    Telemetry.count ~by:!bland_pivots "lp.simplex.bland_pivots";
    Telemetry.count ~by:!flips "lp.simplex.bound_flips";
    Telemetry.count ~by:!refactorisations "lp.simplex.refactorisations"
  in
  Fun.protect ~finally:flush @@ fun () ->
  let iter_count = ref 0 in
  (* The pivot loop and refactorisation fail with a bare reason (a warm
     re-solve turns it into [Stale]); a cold solve reports it under its own
     name. *)
  try
    (* Phase 1: minimise the sum of artificials. *)
    match
      run_phase st ~c ~phase2:false ~max_iters ~iter_count ~deadline ~pivots
        ~bland_pivots ~flips ~refactorisations
    with
    | `Unbounded -> failwith "phase-1 unbounded (impossible)"
    | `Optimal ->
      let infeas = ref 0.0 in
      for i = 0 to m - 1 do
        if st.basis.(i) >= n then infeas := !infeas +. st.x_b.(i)
      done;
      if !infeas > eps then Infeasible
      else begin
        drive_out_artificials st ~pivots;
        (* Phase 2: real costs over the structural columns. *)
        match
          run_phase st ~c ~phase2:true ~max_iters ~iter_count ~deadline ~pivots
            ~bland_pivots ~flips ~refactorisations
        with
        | `Unbounded -> Unbounded
        | `Optimal ->
          (match snapshot_out with
           | Some cell ->
             cell := Some (new_snapshot ~basis:st.basis ~at_ub:st.at_ub)
           | None -> ());
          let x = Array.make n 0.0 in
          for j = 0 to n - 1 do
            if st.pos.(j) < 0 && st.at_ub.(j) then x.(j) <- st.ubs.(j)
          done;
          for i = 0 to m - 1 do
            if st.basis.(i) < n then x.(st.basis.(i)) <- st.x_b.(i)
          done;
          let value = ref 0.0 in
          for j = 0 to n - 1 do
            value := !value +. (c.(j) *. x.(j))
          done;
          Optimal (!value, x)
      end
  with Failure reason -> failwith ("Tableau_float.solve_cols: " ^ reason)
