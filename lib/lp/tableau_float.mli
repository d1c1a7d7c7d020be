(** Float bounded-variable simplex kernel.

    The algorithm and contract of [Tableau.Make(Field.Approx)] — crash
    basis, two phases, implicit upper bounds with bound flips, periodic
    fill-avoiding refactorisation, dual-simplex warm re-solves — with
    [float] hardcoded so the hot arrays are unboxed and the arithmetic is
    inline (this switch has no flambda, so the functorised kernel pays an
    indirect call and an allocation per field operation). Used by
    {!Simplex.Float_driver}; the exact-rational driver keeps the functor.
    The exact-vs-float property test cross-checks the two on random
    models.

    A standard form is compiled once ({!compile}) and then solved cold and
    re-solved warm any number of times; warm re-solves share refactorised
    bases through the factor cell of {!Tableau.snapshot}. *)

type compiled
(** The column store of one standard form: row-index and value arrays per
    structural column, pricing weights, costs and root spans. Immutable;
    safe to share between solves on any domain. *)

val compile :
  nrows:int ->
  cols:(int * float) array array ->
  c:float array ->
  ubs:float option array ->
  compiled
(** [compile ~nrows ~cols ~c ~ubs] with [cols.(j)] the sparse column of
    structural variable [j] as (row, coefficient) pairs (each row at most
    once per column), [c] its cost and [ubs.(j)], when present, its strictly
    positive root span (upper bound).
    @raise Invalid_argument on shape mismatch, a row index out of range or a
    non-positive span. *)

val solve_cols :
  ?max_iters:int ->
  ?deadline:float ->
  ?snapshot_out:Tableau.snapshot option ref ->
  compiled ->
  b:float array ->
  unit ->
  float Tableau.result
(** Cold two-phase solve of the compiled form at its root spans with
    right-hand side [b] (length [nrows], all entries [>= 0]). Contract of
    [Tableau.Make(Field.Approx).solve_cols], including the telemetry
    counters, {!Tableau.Deadline_exceeded} and the [snapshot_out] basis
    capture for {!resolve_with_basis}. *)

val resolve_with_basis :
  ?max_iters:int ->
  ?deadline:float ->
  compiled ->
  b:float array ->
  spans:(int * float option) list ->
  snapshot:Tableau.snapshot ->
  unit ->
  float Tableau.resolve
(** Contract of [Tableau.Make(Field.Approx).resolve_with_basis]: dual-simplex
    warm re-solve from a parent basis under a changed rhs [b] and changed
    spans, with the accuracy cross-check and [Stale] fallback signalling.
    [spans] lists the columns whose span differs from the compiled root
    span, with the node's span ([None] = no upper bound). [b] entries may be
    negative and spans zero (a variable fixed by branching); a negative span
    reports [Infeasible] immediately.

    The snapshot's factor is installed when a sibling re-solve has
    published it (counted under [lp.simplex.factor_reuses]); otherwise the
    snapshot's basis is refactorised and published (counted under
    [lp.simplex.refactorisations]). Either way the solve computes the same
    floats. *)
