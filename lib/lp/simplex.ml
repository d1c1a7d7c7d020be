module Q = Numeric.Rat

type outcome =
  | Optimal of { objective : float; values : float array }
  | Infeasible
  | Unbounded

(* How each model variable maps onto standard-form columns. *)
type mapping =
  | Shifted of int * Q.t (* x = col + lb *)
  | Flipped of int * Q.t (* x = ub - col  (upper bound only) *)
  | Split of int * int (* x = pos - neg   (free) *)
  | Fixed of Q.t (* lb = ub *)

(* The standard form translated from one set of variable bounds
   ([p_lb] / [p_ub]) and compiled for the kernel once ([p_kernel]: column
   store, pricing weights, costs, root spans). Nodes of a branch-and-bound
   tree reuse it: a child's changed bounds are absorbed as per-column
   (lo, span) pairs — the kernel keeps its [0, ub] column form, the lower
   offset is folded into the rhs ([b - A lo]) and the span overrides the
   column's root span — so the constraint matrix, costs and column
   identities never change and the parent's basis snapshot stays
   structurally valid for a dual-simplex re-solve. Only variables whose
   bounds are not physically the prepared ones are re-derived; branching
   changes one variable per level. A bound change the column form cannot
   express (a [Fixed] variable coming unfixed, a [Split] free variable
   acquiring a bound, a [Shifted] / [Flipped] variable losing the bound
   that anchored it) forces a full re-translation. *)
type prepared = {
  p_nvars : int;
  p_mapping : mapping array;
  p_konst : float array;  (* the mapping's constant (k, l or u) per variable *)
  p_lb : Q.t option array;
  p_ub : Q.t option array;
  p_cols : (int * float) array array;
  p_kernel : Tableau_float.compiled;
  p_b : float array;
  p_c : float array;
  p_obj_const : float;  (* the sign-normalised objective constant *)
  p_dir : [ `Minimize | `Maximize ];
}

(* In/out warm-start cell threaded through {!solve_relaxation_float}: filled
   from the final basis of an [Optimal] solve, consumed (and refreshed) by
   the next solve holding it. Branch-and-bound hands each child a
   {!copy_basis} of its parent's cell. *)
type basis = {
  mutable bs_prepared : prepared option;
  mutable bs_snapshot : Tableau_float.snapshot option;
}

let new_basis () = { bs_prepared = None; bs_snapshot = None }

let copy_basis b =
  { bs_prepared = b.bs_prepared; bs_snapshot = b.bs_snapshot }

let stored_factor cell =
  Option.bind cell.bs_snapshot (fun s -> Atomic.get s.Tableau_float.s_factor)

let effective_bounds ?bounds model =
  let nvars = Model.var_count model in
  match bounds with
  | Some bs ->
    if Array.length bs <> nvars then
      invalid_arg "Simplex.solve_relaxation_float: bounds length";
    (Array.map fst bs, Array.map snd bs)
  | None ->
    ( Array.init nvars (fun v -> Model.var_lb model v),
      Array.init nvars (fun v -> Model.var_ub model v) )

(* Full translation and cold primal solve; [lb] / [ub] are the effective
   per-variable bounds. When [capture] is given the final basis and the
   translated form are stored into it for later warm re-solves. *)
let cold_solve ?max_iters ?deadline ?capture ~lb ~ub model =
  let nvars = Model.var_count model in
  let mapping = Array.make nvars (Fixed Q.zero) in
  let ncols = ref 0 in
  let fresh () =
    let c = !ncols in
    incr ncols;
    c
  in
  (* rows under construction: (terms over columns, sense, rhs) *)
  let rows = ref [] in
  let nrows = ref 0 in
  let push_row terms sense rhs =
    rows := (terms, sense, rhs) :: !rows;
    incr nrows
  in
  let infeasible_bounds = ref false in
  (* Doubly-bounded variables get an implicit column bound handled by the
     bounded-variable kernel, not an explicit [x <= u - l] row: on the
     branch-and-bound relaxations nearly every variable is boxed, so this
     roughly halves the row count. *)
  let col_ubs = ref [] in
  for v = 0 to nvars - 1 do
    match (lb.(v), ub.(v)) with
    | Some l, Some u when Q.compare l u > 0 -> infeasible_bounds := true
    | Some l, Some u when Q.equal l u -> mapping.(v) <- Fixed l
    | Some l, Some u ->
      let c = fresh () in
      mapping.(v) <- Shifted (c, l);
      col_ubs := (c, Q.sub u l) :: !col_ubs
    | Some l, None -> mapping.(v) <- Shifted (fresh (), l)
    | None, Some u -> mapping.(v) <- Flipped (fresh (), u)
    | None, None ->
      let p = fresh () in
      let q = fresh () in
      mapping.(v) <- Split (p, q)
  done;
  if !infeasible_bounds then Infeasible
  else begin
    (* Translate a model expression into (column terms, constant).
       [Linexpr] is canonical (one term per variable) and distinct
       variables map to distinct columns, so terms need no merging. *)
    let translate expr =
      let konst = ref (Linexpr.const_part expr) in
      let acc = ref [] in
      let bump col q = if not (Q.is_zero q) then acc := (col, q) :: !acc in
      Linexpr.fold
        (fun v c () ->
          match mapping.(v) with
          | Fixed k -> konst := Q.add !konst (Q.mul c k)
          | Shifted (col, l) ->
            bump col c;
            konst := Q.add !konst (Q.mul c l)
          | Flipped (col, u) ->
            bump col (Q.neg c);
            konst := Q.add !konst (Q.mul c u)
          | Split (p, q) ->
            bump p c;
            bump q (Q.neg c))
        expr ();
      (!acc, !konst)
    in
    Model.iter_constraints model (fun _name expr sense rhs ->
        let terms, k = translate expr in
        push_row terms sense (Q.sub rhs k));
    (* Slack / surplus columns; normalise rhs signs afterwards. *)
    let dir, obj_expr = Model.objective model in
    let obj_terms, obj_const = translate obj_expr in
    let slack_of_row = Array.make (max 1 !nrows) (-1) in
    let row_list = List.rev !rows in
    List.iteri
      (fun i (_, sense, _) ->
        match sense with
        | Model.Le | Model.Ge -> slack_of_row.(i) <- fresh ()
        | Model.Eq -> ())
      row_list;
    let n = !ncols in
    let m = !nrows in
    (* Column-wise sparse assembly: [translate] merges duplicate variables
       per row, so each (row, col) pair occurs at most once. *)
    let col_entries = Array.make n [] in
    let b = Array.make m 0.0 in
    let nnz = ref 0 in
    List.iteri
      (fun i (terms, sense, rhs) ->
        let flip = Q.sign rhs < 0 in
        let put col q =
          let q = if flip then Q.neg q else q in
          col_entries.(col) <- (i, Q.to_float q) :: col_entries.(col);
          incr nnz
        in
        List.iter (fun (col, q) -> put col q) terms;
        (match sense with
         | Model.Le -> put slack_of_row.(i) Q.one
         | Model.Ge -> put slack_of_row.(i) Q.minus_one
         | Model.Eq -> ());
        b.(i) <- Q.to_float (if flip then Q.neg rhs else rhs))
      row_list;
    let cols = Array.map (fun l -> Array.of_list (List.rev l)) col_entries in
    let c = Array.make n 0.0 in
    let obj_sign =
      match dir with `Minimize -> Q.one | `Maximize -> Q.minus_one
    in
    List.iter
      (fun (col, q) -> c.(col) <- c.(col) +. Q.to_float (Q.mul obj_sign q))
      obj_terms;
    let ubs = Array.make n None in
    List.iter (fun (col, u) -> ubs.(col) <- Some (Q.to_float u)) !col_ubs;
    Telemetry.count ~by:m "lp.simplex.rows";
    Telemetry.count ~by:n "lp.simplex.cols";
    Telemetry.count ~by:!nnz "lp.simplex.nnz";
    let snapshot_out = Option.map (fun _ -> ref None) capture in
    match
      Telemetry.span "lp.simplex.kernel" (fun () ->
          let kernel = Tableau_float.compile ~nrows:m ~cols ~c ~ubs in
          ( kernel,
            Tableau_float.solve_cols ?max_iters ?deadline ?snapshot_out kernel ~b () ))
    with
    | _, Tableau_float.Infeasible -> Infeasible
    | _, Tableau_float.Unbounded -> Unbounded
    | kernel, Tableau_float.Optimal (value, x) ->
      let konst =
        Array.map
          (function
            | Fixed k | Shifted (_, k) | Flipped (_, k) -> Q.to_float k
            | Split _ -> 0.0)
          mapping
      in
      let obj_const = Q.to_float (Q.mul obj_sign obj_const) in
      (match (capture, snapshot_out) with
       | Some cell, Some { contents = Some snap } ->
         cell.bs_prepared <-
           Some
             {
               p_nvars = nvars;
               p_mapping = mapping;
               p_konst = konst;
               p_lb = lb;
               p_ub = ub;
               p_cols = cols;
               p_kernel = kernel;
               p_b = b;
               p_c = c;
               p_obj_const = obj_const;
               p_dir = dir;
             };
         cell.bs_snapshot <- Some snap
       | _ -> ());
      let value_of v =
        match mapping.(v) with
        | Fixed _ -> konst.(v)
        | Shifted (col, _) -> x.(col) +. konst.(v)
        | Flipped (col, _) -> konst.(v) -. x.(col)
        | Split (p, q) -> x.(p) -. x.(q)
      in
      let values = Array.init nvars value_of in
      (* Undo the max->min sign flip and re-add the objective constant. *)
      let natural =
        let base = value +. obj_const in
        match dir with `Minimize -> base | `Maximize -> -.base
      in
      Optimal { objective = natural; values }
  end

exception Remap of string

(* Express the bounds of the [changed] variables (in increasing order) in
   the prepared form's column space, or raise {!Remap} when the mapping
   cannot carry them (see {!prepared}). Returns the nonzero lower offsets
   as (column, lo) and the node spans of the re-derived columns, both in
   increasing column order: columns are allocated in variable order. *)
let overlay p ~lb ~ub changed =
  let shifts = ref [] and spans = ref [] in
  let column col lo span =
    if Q.sign lo <> 0 then shifts := (col, Q.to_float lo) :: !shifts;
    spans := (col, span) :: !spans
  in
  List.iter
    (fun v ->
      match p.p_mapping.(v) with
      | Fixed k -> (
        match (lb.(v), ub.(v)) with
        | Some l, Some u when Q.equal l k && Q.equal u k -> ()
        | _ -> raise (Remap "fixed variable came unfixed"))
      | Shifted (col, l_root) -> (
        match lb.(v) with
        | None -> raise (Remap "shifted variable lost its lower bound")
        | Some l' ->
          column col (Q.sub l' l_root)
            (Option.map (fun u' -> Q.to_float (Q.sub u' l')) ub.(v)))
      | Flipped (col, u_root) -> (
        match ub.(v) with
        | None -> raise (Remap "flipped variable lost its upper bound")
        | Some u' ->
          column col (Q.sub u_root u')
            (Option.map (fun l' -> Q.to_float (Q.sub u' l')) lb.(v)))
      | Split (_, _) ->
        if lb.(v) <> None || ub.(v) <> None then
          raise (Remap "free variable acquired a bound"))
    changed;
  (List.rev !shifts, List.rev !spans)

let warm_solve ?max_iters ?deadline ~(basis : basis) p snap ~lb ~ub ~changed
    =
  match overlay p ~lb ~ub changed with
  | exception Remap reason -> Error reason
  | shifts, spans -> (
    let b_node = Array.copy p.p_b in
    List.iter
      (fun (col, lf) ->
        Array.iter
          (fun (i, a) -> b_node.(i) <- b_node.(i) -. (a *. lf))
          p.p_cols.(col))
      shifts;
    (* A warm repair normally needs a handful of dual pivots; one still
       going after a quarter of the pivots a cold solve would need is
       degenerate-stalling, and the cold solve is the cheaper way out —
       cap the budget and let the [`Cycled] -> [Stale] path fall back
       rather than burn the node deadline. *)
    let warm_cap =
      min (Option.value max_iters ~default:50_000)
        (max 100 (Array.length p.p_b / 4))
    in
    match
      Telemetry.span "lp.simplex.kernel" (fun () ->
          Tableau_float.resolve_with_basis ~max_iters:warm_cap ?deadline p.p_kernel
            ~b:b_node ~spans ~snapshot:snap ())
    with
    | Tableau_float.Stale reason -> Error reason
    | Tableau_float.Resolved (res, snap') ->
      (match snap' with
       | Some s -> basis.bs_snapshot <- Some s
       | None -> ());
      Ok
        (match res with
        | Tableau_float.Infeasible -> Infeasible
        | Tableau_float.Unbounded -> Unbounded
        | Tableau_float.Optimal (value, x) ->
          let lo = Array.make (Array.length p.p_cols) 0.0 in
          List.iter (fun (col, lf) -> lo.(col) <- lf) shifts;
          let value_of v =
            match p.p_mapping.(v) with
            | Fixed _ -> p.p_konst.(v)
            | Shifted (col, _) -> x.(col) +. lo.(col) +. p.p_konst.(v)
            | Flipped (col, _) -> p.p_konst.(v) -. (x.(col) +. lo.(col))
            | Split (pc, qc) -> x.(pc) -. x.(qc)
          in
          let values = Array.init p.p_nvars value_of in
          (* the kernel solved in shifted column space: undo the shift's
             contribution to the objective, then the max->min sign flip *)
          let shift_cost =
            List.fold_left
              (fun acc (col, lf) -> acc +. (p.p_c.(col) *. lf))
              0.0 shifts
          in
          let base = value +. shift_cost +. p.p_obj_const in
          let natural =
            match p.p_dir with `Minimize -> base | `Maximize -> -.base
          in
          Optimal { objective = natural; values }))

let solve_relaxation_float ?max_iters ?deadline ?bounds ?basis model =
  Telemetry.span "lp.simplex.solve" @@ fun () ->
  Telemetry.count "lp.simplex.relaxations";
  let lb, ub = effective_bounds ?bounds model in
  let nvars = Model.var_count model in
  let empty v =
    match (lb.(v), ub.(v)) with
    | Some l, Some u -> Q.compare l u > 0
    | _ -> false
  in
  let cold capture =
    cold_solve ?max_iters ?deadline ?capture ~lb ~ub model
  in
  match basis with
  | Some ({ bs_prepared = Some p; bs_snapshot = Some snap } as cell)
    when p.p_nvars = nvars -> (
    (* the prepared form was only built from non-empty bounds, so only
       the bounds that are not physically its own can be empty *)
    let changed = ref [] in
    for v = nvars - 1 downto 0 do
      if lb.(v) != p.p_lb.(v) || ub.(v) != p.p_ub.(v) then
        changed := v :: !changed
    done;
    if List.exists empty !changed then Infeasible
    else
      match
        warm_solve ?max_iters ?deadline ~basis:cell p snap ~lb ~ub
          ~changed:!changed
      with
      | Ok outcome ->
        Telemetry.count "lp.bb.warm_hits";
        outcome
      | Error _reason ->
        (* stale basis or an overlay-incompatible bound change: full
           cold re-solve, refreshing the cell for the subtree below *)
        Telemetry.count "lp.bb.warm_fallbacks";
        cold (Some cell))
  | _ ->
    if Seq.exists empty (Seq.init nvars Fun.id) then Infeasible
    else
      (* no warm start, or a fresh cell that this first solve fills: no
         fallback counted *)
      cold basis
