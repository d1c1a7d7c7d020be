type 'num result =
  | Optimal of 'num * 'num array
  | Infeasible
  | Unbounded

exception Deadline_exceeded

(* The float kernel's eta record and refactorised basis; see tableau.mli. *)
type eta = {
  e_row : int;
  e_pivot : float;
  e_idx : int array;
  e_val : float array;
}

type factor = { f_basis : int array; f_etas : eta array }

(* A basis snapshot is field-independent (which columns are basic and which
   nonbasic columns rest at their upper bound), so it is shared between the
   functorised kernel and the float-specialised {!Tableau_float}: a parent
   node's snapshot from either kernel can warm-start a re-solve. The factor
   cell is written at most once, by the float kernel. *)
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

type 'num resolve =
  | Resolved of 'num result * snapshot option
      (** the inherited basis was repaired in place; the new snapshot is
          present whenever the re-solve ended [Optimal] *)
  | Stale of string
      (** the warm solve cycled, went singular or lost numerical accuracy —
          the caller should fall back to a cold primal solve *)

module Make (F : Field.S) = struct
  (* Sparse revised two-phase bounded-variable simplex.

     The constraint matrix is stored column-wise ([cols.(j)] is the sparse
     column of structural variable [j]); the basis inverse is represented as
     a product-form eta file that is rebuilt from scratch (refactorised)
     after a bounded number of pivots, which both bounds the FTRAN / BTRAN
     cost and, for the inexact field, drains accumulated roundoff.

     Structural variables range over [0, ub_j] (ub_j optional); a nonbasic
     variable rests at either bound ([at_ub]) and upper bounds are enforced
     by the ratio test — including bound flips that move a variable across
     its whole span without a basis change — instead of by explicit rows.

     Columns [0 .. n-1] are structural, [n .. n+m-1] artificial. Artificial
     columns never re-enter the basis once they leave: phase 1 then still
     terminates at a true optimum of the restricted problem, and any feasible
     point of the original problem remains feasible with all artificials at
     zero, so the infeasibility test is unaffected.

     Pricing is steepest-edge-lite — Dantzig reduced costs scaled by static
     column norms ([d_j^2 / (1 + ||a_j||^2)]) — for the first [3*(m+n)]
     iterations, then Bland (smallest index), which guarantees termination
     even under degeneracy (bound flips are always nondegenerate: spans are
     strictly positive). *)

  let lt a b = F.compare a b < 0
  let gt a b = F.compare a b > 0

  type eta = {
    e_row : int;
    e_pivot : F.t;  (* 1 / alpha_r *)
    e_terms : (int * F.t) array;  (* (i, -alpha_i / alpha_r) for i <> e_row *)
  }

  type state = {
    m : int;
    n : int;
    cols : (int * F.t) array array;  (* structural columns only *)
    ubs : F.t option array;  (* structural upper bounds (lb is 0) *)
    at_ub : bool array;  (* nonbasic structural var rests at its ub *)
    weight : float array;  (* 1 + ||a_j||^2, static pricing weights *)
    basis : int array;  (* length m; entries >= n are artificial *)
    pos : int array;  (* length n+m; basis position of a column, or -1 *)
    x_b : F.t array;  (* current basic variable values *)
    b : F.t array;
    mutable etas : eta array;  (* application (FTRAN) order *)
    mutable n_etas : int;
    mutable factor_etas : int;  (* eta-file length after the last refactorisation *)
  }

  let clamp x = if F.is_zero x then F.zero else x
  let ub_of st j = if j < st.n then st.ubs.(j) else None

  let push_eta st e =
    if st.n_etas = Array.length st.etas then begin
      let bigger = Array.make (max 16 (2 * st.n_etas)) e in
      Array.blit st.etas 0 bigger 0 st.n_etas;
      st.etas <- bigger
    end;
    st.etas.(st.n_etas) <- e;
    st.n_etas <- st.n_etas + 1

  (* v := B^-1 v *)
  let ftran st v =
    for t = 0 to st.n_etas - 1 do
      let e = st.etas.(t) in
      let x = v.(e.e_row) in
      if not (F.is_zero x) then begin
        v.(e.e_row) <- F.mul e.e_pivot x;
        Array.iter (fun (i, c) -> v.(i) <- F.add v.(i) (F.mul c x)) e.e_terms
      end
    done

  (* y := (B^-1)^T y *)
  let btran st y =
    for t = st.n_etas - 1 downto 0 do
      let e = st.etas.(t) in
      let acc = ref (F.mul e.e_pivot y.(e.e_row)) in
      Array.iter (fun (i, c) -> acc := F.add !acc (F.mul c y.(i))) e.e_terms;
      y.(e.e_row) <- clamp !acc
    done

  (* Scatter original column [j] (structural or artificial) into [v]. *)
  let scatter st j v =
    if j < st.n then Array.iter (fun (i, a) -> v.(i) <- a) st.cols.(j)
    else v.(j - st.n) <- F.one

  let eta_of_alpha ~row alpha =
    let ar = alpha.(row) in
    let terms = ref [] in
    Array.iteri
      (fun i a ->
        if i <> row && not (F.is_zero a) then
          terms := (i, F.neg (F.div a ar)) :: !terms)
      alpha;
    { e_row = row; e_pivot = F.div F.one ar; e_terms = Array.of_list !terms }

  (* Basis change: [col], currently worth [enter_val], moves by [t] in
     direction [dir] and replaces the variable basic in [row]; [alpha] is
     the FTRAN'd tableau column of [col]. *)
  let pivot st ~row ~col ~t ~dir ~enter_val alpha =
    let step = F.mul t dir in
    push_eta st (eta_of_alpha ~row alpha);
    for i = 0 to st.m - 1 do
      if i <> row && not (F.is_zero alpha.(i)) then
        st.x_b.(i) <- clamp (F.sub st.x_b.(i) (F.mul step alpha.(i)))
    done;
    st.x_b.(row) <- clamp (F.add enter_val step);
    st.pos.(st.basis.(row)) <- -1;
    st.basis.(row) <- col;
    st.pos.(col) <- row

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
     pass 3: the residual "bump" (rarely more than a handful of columns in
             an LP basis) is eliminated densely, smallest column first,
             picking pivot rows by magnitude. *)
  let refactor st refactorisations =
    st.n_etas <- 0;
    incr refactorisations;
    let order = Array.copy st.basis in
    let taken = Array.make st.m false in
    let placed = Array.make st.m false in
    (* over positions in [order] *)
    let v = Array.make st.m F.zero in
    let place t col row =
      taken.(row) <- true;
      placed.(t) <- true;
      st.basis.(row) <- col
    in
    let pivot_full t col ~row_hint =
      Array.fill v 0 st.m F.zero;
      scatter st col v;
      ftran st v;
      let row =
        match row_hint with
        | Some r when not (F.is_zero v.(r)) -> r
        | _ ->
          let best = ref (-1) and best_mag = ref 0.0 in
          for i = 0 to st.m - 1 do
            if not taken.(i) && not (F.is_zero v.(i)) then begin
              let mag = Float.abs (F.to_float v.(i)) in
              if !best < 0 || mag > !best_mag then begin
                best := i;
                best_mag := mag
              end
            end
          done;
          if !best < 0 then failwith "Tableau: singular basis on refactorisation";
          !best
      in
      push_eta st (eta_of_alpha ~row v);
      place t col row
    in
    Array.iteri
      (fun t col ->
        if col >= st.n then begin
          let r = col - st.n in
          if not taken.(r) then place t col r
        end
        else
          match st.cols.(col) with
          | [| (r, a) |] when not taken.(r) ->
            if F.compare a F.one <> 0 then
              push_eta st { e_row = r; e_pivot = F.div F.one a; e_terms = [||] };
            place t col r
          | _ -> ())
      order;
    let row_count = Array.make st.m 0 in
    let row_cols = Array.make st.m [] in
    Array.iteri
      (fun t col ->
        if not placed.(t) then
          Array.iter
            (fun (i, _) ->
              if not taken.(i) then begin
                row_count.(i) <- row_count.(i) + 1;
                row_cols.(i) <- t :: row_cols.(i)
              end)
            st.cols.(col))
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
          pivot_full t col ~row_hint:(Some r);
          Array.iter
            (fun (i, _) ->
              if not taken.(i) then begin
                row_count.(i) <- row_count.(i) - 1;
                if row_count.(i) = 1 then Queue.add i queue
              end)
            st.cols.(col)
    done;
    let bump = ref [] in
    Array.iteri (fun t _ -> if not placed.(t) then bump := t :: !bump) order;
    let bump =
      List.sort
        (fun t1 t2 ->
          compare
            (Array.length st.cols.(order.(t1)))
            (Array.length st.cols.(order.(t2))))
        !bump
    in
    List.iter (fun t -> pivot_full t order.(t) ~row_hint:None) bump;
    Array.fill st.pos 0 (st.n + st.m) (-1);
    Array.iteri (fun i col -> st.pos.(col) <- i) st.basis;
    Array.blit st.b 0 st.x_b 0 st.m;
    for j = 0 to st.n - 1 do
      if st.pos.(j) < 0 && st.at_ub.(j) then begin
        let u = match st.ubs.(j) with Some u -> u | None -> F.zero in
        Array.iter
          (fun (i, a) -> st.x_b.(i) <- F.sub st.x_b.(i) (F.mul a u))
          st.cols.(j)
      end
    done;
    ftran st st.x_b;
    for i = 0 to st.m - 1 do
      st.x_b.(i) <- clamp st.x_b.(i)
    done;
    st.factor_etas <- st.n_etas

  (* Entering column among the structural nonbasics: a variable at its lower
     bound enters on a negative reduced cost (moving up), one at its upper
     bound on a positive reduced cost (moving down). Steepest-edge-lite
     (reduced cost scaled by the static column norm) or Bland. Artificials
     are never priced back in. Returns the column, its direction and its
     FTRAN'd tableau column, reusing [alpha] as scratch. *)
  let entering st ~c_of ~bland alpha =
    let y = Array.init st.m (fun i -> c_of st.basis.(i)) in
    btran st y;
    let reduced j =
      let s = ref (c_of j) in
      Array.iter (fun (i, a) -> s := F.sub !s (F.mul a y.(i))) st.cols.(j);
      !s
    in
    (* Zero-span columns (variables fixed by a branching bound change in a
       warm re-solve) can neither step nor flip: entering one would loop on
       zero-length bound flips, so they are never eligible. *)
    let eligible j d =
      (match st.ubs.(j) with Some u -> gt u F.zero | None -> true)
      && if st.at_ub.(j) then gt d F.zero else lt d F.zero
    in
    let chosen =
      if bland then begin
        let rec go j =
          if j >= st.n then None
          else if st.pos.(j) < 0 && eligible j (reduced j) then Some j
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
              let df = F.to_float d in
              let score = df *. df /. st.weight.(j) in
              if score > !best_score then begin
                best := j;
                best_score := score
              end
            end
          end
        done;
        if !best < 0 then None else Some !best
      end
    in
    match chosen with
    | None -> None
    | Some col ->
      Array.fill alpha 0 st.m F.zero;
      scatter st col alpha;
      ftran st alpha;
      Some (col, if st.at_ub.(col) then F.neg F.one else F.one)

  type step =
    | Flip  (* the entering variable crosses to its other bound *)
    | Leave of { row : int; t : F.t; to_ub : bool }
    | Unbounded_dir

  (* Ratio test for [col] moving by [t >= 0] in direction [dir]: basic
     variables must stay within [0, ub], and the entering variable within
     its own span. Bland tie-break on basis variable index. In phase 2, a
     basic artificial (redundant row, value 0) also leaves on a ratio-0
     degenerate step whenever its entry is nonzero in the blocking
     direction — preferring artificials on ratio ties keeps Bland's
     termination argument, as an artificial that leaves never re-enters. *)
  let ratio_test st alpha ~dir ~span ~phase2 =
    let best = ref (-1) in
    let best_ratio = ref F.zero in
    let best_to_ub = ref false in
    let best_art = ref false in
    for i = 0 to st.m - 1 do
      let aeff = F.mul dir alpha.(i) in
      if not (F.is_zero aeff) then begin
        let bv = st.basis.(i) in
        let art = bv >= st.n in
        let candidate ratio to_ub =
          let better =
            !best < 0
            || lt ratio !best_ratio
            || (F.compare ratio !best_ratio = 0
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
        if gt aeff F.zero then candidate (F.div st.x_b.(i) aeff) false
        else begin
          match ub_of st bv with
          | Some u -> candidate (F.div (F.sub u st.x_b.(i)) (F.neg aeff)) true
          | None ->
            if phase2 && art && F.is_zero st.x_b.(i) then candidate F.zero false
        end
      end
    done;
    match (span, !best) with
    | None, -1 -> Unbounded_dir
    | Some u, -1 -> ignore u; Flip
    | None, row -> Leave { row; t = !best_ratio; to_ub = !best_to_ub }
    | Some u, row ->
      if F.compare u !best_ratio <= 0 then Flip
      else Leave { row; t = !best_ratio; to_ub = !best_to_ub }

  let run_phase st ~c_of ~phase2 ~max_iters ~iter_count ~deadline ~pivots
      ~bland_pivots ~flips ~refactorisations alpha =
    let switch = 3 * (st.m + st.n) in
    (* Pivots since the last refactorisation, not total eta-file length:
       refactorising itself emits up to [m] etas, so an absolute threshold
       below [m] would re-trigger on every iteration. *)
    let refactor_limit = min 150 (50 + (st.m / 4)) in
    let rec loop () =
      if !iter_count > max_iters then failwith "Tableau: iteration limit exceeded";
      (match deadline with
       | Some t when !iter_count land 15 = 0 && Telemetry.Clock.now_s () > t ->
         Telemetry.count "lp.simplex.deadline_aborts";
         raise Deadline_exceeded
       | Some _ | None -> ());
      incr iter_count;
      if st.n_etas - st.factor_etas > refactor_limit then
        refactor st refactorisations;
      let bland = !iter_count > switch in
      match entering st ~c_of ~bland alpha with
      | None -> `Optimal
      | Some (col, dir) -> begin
        let span = st.ubs.(col) in
        match ratio_test st alpha ~dir ~span ~phase2 with
        | Unbounded_dir -> `Unbounded
        | Flip ->
          let u = match span with Some u -> u | None -> assert false in
          let step = F.mul u dir in
          for i = 0 to st.m - 1 do
            if not (F.is_zero alpha.(i)) then
              st.x_b.(i) <- clamp (F.sub st.x_b.(i) (F.mul step alpha.(i)))
          done;
          st.at_ub.(col) <- not st.at_ub.(col);
          incr flips;
          loop ()
        | Leave { row; t; to_ub } ->
          let leaving = st.basis.(row) in
          let enter_val =
            if st.at_ub.(col) then
              match st.ubs.(col) with Some u -> u | None -> F.zero
            else F.zero
          in
          pivot st ~row ~col ~t ~dir ~enter_val alpha;
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
    let rho = Array.make st.m F.zero in
    let alpha = Array.make st.m F.zero in
    for i = 0 to st.m - 1 do
      if st.basis.(i) >= st.n then begin
        Array.fill rho 0 st.m F.zero;
        rho.(i) <- F.one;
        btran st rho;
        let row_entry j =
          let s = ref F.zero in
          Array.iter (fun (k, a) -> s := F.add !s (F.mul a rho.(k))) st.cols.(j);
          !s
        in
        let rec find j =
          if j >= st.n then None
          else if st.pos.(j) < 0 && not (F.is_zero (row_entry j)) then Some j
          else find (j + 1)
        in
        match find 0 with
        | Some col ->
          Array.fill alpha 0 st.m F.zero;
          scatter st col alpha;
          ftran st alpha;
          if not (F.is_zero alpha.(i)) then begin
            (* degenerate entry at the entering variable's current value *)
            let enter_val =
              if st.at_ub.(col) then
                match st.ubs.(col) with Some u -> u | None -> F.zero
              else F.zero
            in
            pivot st ~row:i ~col ~t:F.zero ~dir:F.one ~enter_val alpha;
            st.at_ub.(col) <- false;
            incr pivots
          end
        | None -> ()
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
      ~refactorisations alpha =
    let refactor_limit = min 150 (50 + (st.m / 4)) in
    let y = Array.make st.m F.zero in
    let rho = Array.make st.m F.zero in
    let delta = Array.make st.m F.zero in
    let cand = Array.make (max 1 st.n) 0 in
    let cand_ratio = Array.make (max 1 st.n) F.zero in
    let cand_arj = Array.make (max 1 st.n) F.zero in
    let hi_of bv = if bv < st.n then st.ubs.(bv) else Some F.zero in
    let rec loop () =
      if !iter_count > max_iters then `Cycled
      else begin
        (match deadline with
         | Some t when !iter_count land 15 = 0 && Telemetry.Clock.now_s () > t ->
           Telemetry.count "lp.simplex.deadline_aborts";
           raise Deadline_exceeded
         | Some _ | None -> ());
        incr iter_count;
        if st.n_etas - st.factor_etas > refactor_limit then
          refactor st refactorisations;
        (* Bound-ratio pricing of the infeasible basic variables. *)
        let row = ref (-1) and score = ref 0.0 and above = ref false in
        for i = 0 to st.m - 1 do
          let bv = st.basis.(i) in
          let viol, ab =
            if lt st.x_b.(i) F.zero then (F.neg st.x_b.(i), false)
            else
              match hi_of bv with
              | Some h when gt st.x_b.(i) h -> (F.sub st.x_b.(i) h, true)
              | Some _ | None -> (F.zero, false)
          in
          if gt viol F.zero then begin
            let w = if bv < st.n then st.weight.(bv) else 2.0 in
            let v = F.to_float viol in
            let s = v *. v /. w in
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
          Array.fill rho 0 st.m F.zero;
          rho.(r) <- F.one;
          btran st rho;
          for i = 0 to st.m - 1 do
            let bv = st.basis.(i) in
            y.(i) <- (if bv < st.n then c.(bv) else F.zero)
          done;
          btran st y;
          (* Collect every sign-eligible nonbasic structural column with its
             dual ratio |d_j| / |alpha_rj|. *)
          let ncand = ref 0 in
          for j = 0 to st.n - 1 do
            let movable =
              match st.ubs.(j) with Some u -> gt u F.zero | None -> true
            in
            if st.pos.(j) < 0 && movable then begin
              let arj = ref F.zero and dj = ref c.(j) in
              Array.iter
                (fun (i, a) ->
                  arj := F.add !arj (F.mul a rho.(i));
                  dj := F.sub !dj (F.mul a y.(i)))
                st.cols.(j);
              let arj = !arj in
              let eligible =
                if !above then
                  if st.at_ub.(j) then lt arj F.zero else gt arj F.zero
                else if st.at_ub.(j) then gt arj F.zero
                else lt arj F.zero
              in
              if eligible then begin
                cand.(!ncand) <- j;
                cand_ratio.(!ncand) <- F.div (F.abs !dj) (F.abs arj);
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
               feasible at the opposite bound) and reduces the violation
               slope by span * |alpha_rj|; the candidate where the slope
               would hit zero becomes the pivot. Exhausting all breakpoints
               with slope remaining is dual unboundedness, i.e. primal
               infeasibility. *)
            let order = Array.init !ncand Fun.id in
            Array.sort
              (fun a b ->
                let cr = F.compare cand_ratio.(a) cand_ratio.(b) in
                if cr <> 0 then cr
                else
                  let cm =
                    Float.compare
                      (Float.abs (F.to_float cand_arj.(b)))
                      (Float.abs (F.to_float cand_arj.(a)))
                  in
                  if cm <> 0 then cm else compare cand.(a) cand.(b))
              order;
            let target =
              if !above then
                match hi_of leaving with Some h -> h | None -> F.zero
              else F.zero
            in
            let viol = ref (F.abs (F.sub st.x_b.(r) target)) in
            let nflip = ref 0 in
            let enter = ref (-1) in
            let k = ref 0 in
            while !enter < 0 && !k < !ncand do
              let ci = order.(!k) in
              let j = cand.(ci) in
              let flip =
                match st.ubs.(j) with
                | None -> false
                | Some u ->
                  let drop = F.mul u (F.abs cand_arj.(ci)) in
                  lt drop !viol
              in
              if flip then begin
                (* flip past this breakpoint, keep walking *)
                order.(!nflip) <- ci;
                incr nflip;
                let u =
                  match st.ubs.(j) with Some u -> u | None -> F.zero
                in
                viol := F.sub !viol (F.mul u (F.abs cand_arj.(ci)))
              end
              else enter := j;
              incr k
            done;
            if !enter < 0 then `Dual_unbounded
            else begin
              (* Apply the accumulated flips with one FTRAN: the raw flipped
                 columns sum into [delta] and x_B -= B^-1 delta. *)
              if !nflip > 0 then begin
                Array.fill delta 0 st.m F.zero;
                for f = 0 to !nflip - 1 do
                  let j = cand.(order.(f)) in
                  let u =
                    match st.ubs.(j) with Some u -> u | None -> F.zero
                  in
                  let fstep = if st.at_ub.(j) then F.neg u else u in
                  Array.iter
                    (fun (i, a) ->
                      delta.(i) <- F.add delta.(i) (F.mul fstep a))
                    st.cols.(j);
                  st.at_ub.(j) <- not st.at_ub.(j);
                  incr flips
                done;
                ftran st delta;
                for i = 0 to st.m - 1 do
                  if not (F.is_zero delta.(i)) then
                    st.x_b.(i) <- clamp (F.sub st.x_b.(i) delta.(i))
                done
              end;
              let j = !enter in
              Array.fill alpha 0 st.m F.zero;
              scatter st j alpha;
              ftran st alpha;
              let arj = alpha.(r) in
              if F.is_zero arj then `Numerical
              else begin
                let step = F.div (F.sub st.x_b.(r) target) arj in
                (* the pricing row (from BTRAN of e_r) and the FTRAN'd column
                   must agree on the step direction, and after the flips the
                   step must fit the entering span; drift on either means the
                   eta file has gone numerically stale *)
                let dir_ok =
                  if st.at_ub.(j) then not (gt step F.zero)
                  else not (lt step F.zero)
                in
                let crosses =
                  match st.ubs.(j) with
                  | Some u -> gt (F.abs step) u
                  | None -> false
                in
                if (not dir_ok) || crosses then `Numerical
                else begin
                  let enter_val =
                    if st.at_ub.(j) then
                      match st.ubs.(j) with Some u -> u | None -> F.zero
                    else F.zero
                  in
                  pivot st ~row:r ~col:j ~t:step ~dir:F.one ~enter_val alpha;
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

  let resolve_with_basis ?(max_iters = 50_000) ?deadline ~nrows:m ~cols ~b ~c
      ~ubs ~snapshot () =
    let n = Array.length cols in
    if Array.length b <> m then invalid_arg "Tableau.resolve: b length";
    if Array.length c <> n then invalid_arg "Tableau.resolve: c length";
    if Array.length ubs <> n then invalid_arg "Tableau.resolve: ubs length";
    if Array.length snapshot.s_basis <> m || Array.length snapshot.s_at_ub <> n
    then invalid_arg "Tableau.resolve: snapshot shape";
    (* An empty span means the node fixed a variable to an impossible range:
       the subproblem is infeasible before any pivoting. *)
    if Array.exists (function Some u -> lt u F.zero | None -> false) ubs then
      Resolved (Infeasible, None)
    else begin
      let weight =
        Array.map
          (fun col ->
            Array.fold_left
              (fun acc (_, a) ->
                let x = F.to_float a in
                acc +. (x *. x))
              1.0 col)
          cols
      in
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
        if at_ub.(j) && (pos.(j) >= 0 || ubs.(j) = None) then at_ub.(j) <- false
      done;
      if not !sane then Stale "corrupt basis snapshot"
      else begin
        let st =
          {
            m;
            n;
            cols;
            ubs;
            at_ub;
            weight;
            basis;
            pos;
            x_b = Array.make m F.zero;
            b = Array.copy b;
            etas = [||];
            n_etas = 0;
            factor_etas = 0;
          }
        in
        let pivots = ref 0
        and bland_pivots = ref 0
        and flips = ref 0
        and dual_pivots = ref 0
        and refactorisations = ref 0 in
        let flush () =
          Telemetry.count "lp.simplex.warm_solves";
          Telemetry.count ~by:!pivots "lp.simplex.pivots";
          Telemetry.count ~by:!dual_pivots "lp.simplex.dual_pivots";
          Telemetry.count ~by:!bland_pivots "lp.simplex.bland_pivots";
          Telemetry.count ~by:!flips "lp.simplex.bound_flips";
          Telemetry.count ~by:!refactorisations "lp.simplex.refactorisations"
        in
        Fun.protect ~finally:flush @@ fun () ->
        let iter_count = ref 0 in
        let alpha = Array.make m F.zero in
        match
          (try
             refactor st refactorisations;
             dual_phase st ~c ~max_iters ~iter_count ~deadline ~dual_pivots
               ~flips ~refactorisations alpha
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
          let c2 j = if j < n then c.(j) else F.zero in
          match
            (try
               run_phase st ~c_of:c2 ~phase2:true ~max_iters ~iter_count
                 ~deadline ~pivots ~bland_pivots ~flips ~refactorisations alpha
             with Failure msg -> `Failed msg)
          with
          | `Failed msg -> Stale msg
          | `Unbounded -> Resolved (Unbounded, None)
          | `Optimal ->
            (* Accuracy cross-check before trusting the inherited basis: the
               resolved point must satisfy the bound system and A x = b. *)
            let tol = 1e-7 in
            let x = Array.make n F.zero in
            for j = 0 to n - 1 do
              if st.pos.(j) < 0 && st.at_ub.(j) then
                x.(j) <- (match st.ubs.(j) with Some u -> u | None -> F.zero)
            done;
            let ok = ref true in
            for i = 0 to m - 1 do
              let bv = st.basis.(i) in
              if bv < n then begin
                x.(bv) <- st.x_b.(i);
                if F.to_float st.x_b.(i) < -.tol then ok := false;
                match st.ubs.(bv) with
                | Some u ->
                  if F.to_float (F.sub st.x_b.(i) u) > tol then ok := false
                | None -> ()
              end
              else if Float.abs (F.to_float st.x_b.(i)) > tol then ok := false
            done;
            let resid = Array.copy st.b in
            for j = 0 to n - 1 do
              let xj = x.(j) in
              if not (F.is_zero xj) then
                Array.iter
                  (fun (i, a) -> resid.(i) <- F.sub resid.(i) (F.mul a xj))
                  st.cols.(j)
            done;
            let scale =
              Array.fold_left
                (fun acc bi -> Float.max acc (Float.abs (F.to_float bi)))
                1.0 st.b
            in
            Array.iter
              (fun ri ->
                if Float.abs (F.to_float ri) > 1e-6 *. scale then ok := false)
              resid;
            if not !ok then Stale "warm solve lost accuracy"
            else begin
              let value = ref F.zero in
              for j = 0 to n - 1 do
                value := F.add !value (F.mul c.(j) x.(j))
              done;
              Resolved
                ( Optimal (!value, x),
                  Some (new_snapshot ~basis:st.basis ~at_ub:st.at_ub) )
            end)
      end
    end

  let solve_cols ?(max_iters = 50_000) ?deadline ?ubs ?snapshot_out ~nrows:m
      ~cols ~b ~c () =
    let n = Array.length cols in
    if Array.length b <> m then invalid_arg "Tableau.solve: b length";
    if Array.length c <> n then invalid_arg "Tableau.solve: c length";
    let ubs = match ubs with Some u -> u | None -> Array.make n None in
    if Array.length ubs <> n then invalid_arg "Tableau.solve: ubs length";
    Array.iter
      (fun u ->
        match u with
        | Some u when not (gt u F.zero) ->
          invalid_arg "Tableau.solve: non-positive upper bound"
        | Some _ | None -> ())
      ubs;
    Array.iter
      (fun col ->
        Array.iter
          (fun (i, _) ->
            if i < 0 || i >= m then invalid_arg "Tableau.solve: row out of range")
          col)
      cols;
    Array.iter (fun bi -> if lt bi F.zero then invalid_arg "Tableau.solve: negative rhs") b;
    let weight =
      Array.map
        (fun col ->
          Array.fold_left
            (fun acc (_, a) ->
              let x = F.to_float a in
              acc +. (x *. x))
            1.0 col)
        cols
    in
    (* Crash basis: cover each row with a positive structural singleton
       column (a slack, surplus-free bound row, ...) where one exists — the
       basis stays diagonal, so x_B = b (rescaled) stays feasible — and
       only the remaining rows get artificials for phase 1 to clear. *)
    let basis = Array.init m (fun i -> n + i) in
    let covered = Array.make m false in
    for j = 0 to n - 1 do
      match cols.(j) with
      | [| (i, a) |] when (not covered.(i)) && gt a F.zero && ubs.(j) = None ->
        covered.(i) <- true;
        basis.(i) <- j
      | _ -> ()
    done;
    let pos = Array.make (n + m) (-1) in
    for i = 0 to m - 1 do
      pos.(basis.(i)) <- i
    done;
    let st =
      {
        m;
        n;
        cols;
        ubs;
        at_ub = Array.make n false;
        weight;
        basis;
        pos;
        x_b = Array.map clamp b;
        b = Array.copy b;
        etas = [||];
        n_etas = 0;
        factor_etas = 0;
      }
    in
    for i = 0 to m - 1 do
      if covered.(i) then begin
        let _, a = cols.(basis.(i)).(0) in
        if F.compare a F.one <> 0 then begin
          push_eta st { e_row = i; e_pivot = F.div F.one a; e_terms = [||] };
          st.x_b.(i) <- clamp (F.div st.x_b.(i) a)
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
    let alpha = Array.make m F.zero in
    (* Phase 1: minimise the sum of artificials. *)
    let c1 j = if j >= n then F.one else F.zero in
    match
      run_phase st ~c_of:c1 ~phase2:false ~max_iters ~iter_count ~deadline
        ~pivots ~bland_pivots ~flips ~refactorisations alpha
    with
    | `Unbounded -> failwith "Tableau: phase-1 unbounded (impossible)"
    | `Optimal ->
      let infeas = ref F.zero in
      for i = 0 to m - 1 do
        if st.basis.(i) >= n then infeas := F.add !infeas st.x_b.(i)
      done;
      if gt !infeas F.zero then Infeasible
      else begin
        drive_out_artificials st ~pivots;
        (* Phase 2: real costs over the structural columns. *)
        let c2 j = if j < n then c.(j) else F.zero in
        match
          run_phase st ~c_of:c2 ~phase2:true ~max_iters ~iter_count ~deadline
            ~pivots ~bland_pivots ~flips ~refactorisations alpha
        with
        | `Unbounded -> Unbounded
        | `Optimal ->
          let x = Array.make n F.zero in
          for j = 0 to n - 1 do
            if st.pos.(j) < 0 && st.at_ub.(j) then
              x.(j) <- (match ubs.(j) with Some u -> u | None -> F.zero)
          done;
          for i = 0 to m - 1 do
            if st.basis.(i) < n then x.(st.basis.(i)) <- st.x_b.(i)
          done;
          let value = ref F.zero in
          for j = 0 to n - 1 do
            value := F.add !value (F.mul c.(j) x.(j))
          done;
          (match snapshot_out with
           | Some cell ->
             cell := Some (new_snapshot ~basis:st.basis ~at_ub:st.at_ub)
           | None -> ());
          Optimal (!value, x)
      end

  let solve ?max_iters ?deadline ~a ~b ~c () =
    let m = Array.length a in
    let n = Array.length c in
    if Array.length b <> m then invalid_arg "Tableau.solve: b length";
    Array.iter
      (fun row -> if Array.length row <> n then invalid_arg "Tableau.solve: row length")
      a;
    let cols =
      Array.init n (fun j ->
          let entries = ref [] in
          for i = m - 1 downto 0 do
            if not (F.is_zero a.(i).(j)) then entries := (i, a.(i).(j)) :: !entries
          done;
          Array.of_list !entries)
    in
    solve_cols ?max_iters ?deadline ~nrows:m ~cols ~b ~c ()
end
