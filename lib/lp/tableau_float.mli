(** Sparse revised bounded-variable simplex kernel on [float].

    Solves bounded standard-form problems

    {[ minimise  c . x   subject to   A x = b,  0 <= x <= u ]}

    with [u] optional per column. The constraint matrix is held column-wise
    sparse and the basis inverse as a periodically-refactorised product-form
    eta file, so the per-iteration cost is proportional to the number of
    nonzeros rather than [m * n]. Upper bounds are enforced inside the ratio
    test (nonbasic variables rest at either bound; a step may end in a bound
    flip with no basis change) instead of as explicit rows, which roughly
    halves the row count on the branch-and-bound relaxations this kernel
    exists for. Artificial variables are managed internally; pricing is
    steepest-edge-lite (reduced costs scaled by static column norms) with a
    Bland fallback that guarantees termination. Comparisons use an absolute
    tolerance of [1e-9].

    FTRAN'd columns live in a sparse work vector that records the rows each
    FTRAN touches, sorted ascending afterwards: building an eta, updating
    the basic values, the primal ratio test and refactorisation scan only
    those rows, in the order a dense scan would, so they compute the same
    floats in time proportional to nonzeros. Refactorisation also skips the
    FTRAN over its own triangular-pass etas: each pivots on a row where
    every later column is exactly zero.

    A cold solve ({!solve_cols}) runs a crash basis and two primal phases; a
    warm re-solve ({!resolve_with_basis}) repairs a parent's basis with a
    bound-flipping dual simplex. Every array on the hot path is an unboxed
    [float array]. {!Simplex} is the only caller in the library: it
    translates a {!Model} into this form and back.

    A standard form is compiled once ({!compile}) and then solved cold and
    re-solved warm any number of times; warm re-solves share refactorised
    bases through the factor cell of {!snapshot}. *)

type result =
  | Optimal of float * float array
      (** objective value, values of the [n] structural variables *)
  | Infeasible
  | Unbounded

exception Deadline_exceeded
(** Raised (from inside the pivot loop) when a [deadline] passes before the
    solve finishes, so time-limited callers are not at the mercy of one
    long-running relaxation. *)

type eta = {
  e_row : int;
  e_pivot : float;  (** [1 / alpha_r] *)
  e_idx : int array;  (** rows [i <> e_row] with nonzero [alpha_i] *)
  e_val : float array;  (** [-alpha_i / alpha_r], parallel to [e_idx] *)
}
(** One product-form eta record. *)

type factor = { f_basis : int array; f_etas : eta array }
(** A refactorised basis: the row each basic column was placed in by
    refactorisation ([f_basis]) and the eta file that represents its
    inverse (exactly [Array.length f_etas] records). A stored factor is
    shared between solves and never written to. *)

type snapshot = {
  s_basis : int array;
  s_at_ub : bool array;
  s_factor : factor option Atomic.t;
}
(** A basis snapshot: which column is basic in each row ([s_basis], entries
    [>= n] are artificial) and which nonbasic structural columns rest at
    their upper bound ([s_at_ub]).

    [s_factor] is a write-once cell. The first re-solve from the snapshot
    refactorises [s_basis] and publishes the result with
    [Atomic.compare_and_set]; later re-solves from the same snapshot (the
    sibling branch) install it instead of refactorising. Refactorisation
    depends only on the basis order and the matrix, so the installed factor
    is bit for bit the one the sibling would have built. *)

val new_snapshot : basis:int array -> at_ub:bool array -> snapshot
(** A snapshot of copies of [basis] and [at_ub] with an empty factor cell. *)

type resolve =
  | Resolved of result * snapshot option
      (** the inherited basis was repaired by the dual simplex; the new
          snapshot is present whenever the re-solve ended [Optimal] *)
  | Stale of string
      (** the warm solve cycled, went singular or lost numerical accuracy —
          the caller should fall back to a cold primal solve *)

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
    structural variable [j] as (row, coefficient) pairs in strictly
    ascending row order, [c] its cost and [ubs.(j)], when present, its
    strictly positive root span (upper bound; default: none — the classic
    [x >= 0] form). Fixed variables must be substituted out by the caller.
    The kernel relies on that order: it keeps the rows of every eta
    ascending, which fixes the summation order of every BTRAN.
    @raise Invalid_argument on shape mismatch, a row index out of range,
    rows not strictly ascending within a column or a non-positive span. *)

val solve_cols :
  ?max_iters:int ->
  ?deadline:float ->
  ?snapshot_out:snapshot option ref ->
  compiled ->
  b:float array ->
  unit ->
  result
(** Cold two-phase solve of the compiled form at its root spans with
    right-hand side [b] (length [nrows], all entries [>= 0]; the caller
    flips row signs beforehand). [deadline] is an absolute
    {!Telemetry.Clock} time checked every few pivots. The work is counted
    once per solve under [lp.simplex.solves], [pivots], [bland_pivots],
    [bound_flips] and [refactorisations].
    @raise Invalid_argument on a [b] of the wrong length or with negative
    entries.
    @raise Failure if [max_iters] (default [50_000]) pivots are exceeded.
    @raise Deadline_exceeded if [deadline] passes mid-solve.

    When [snapshot_out] is supplied it is filled with a {!snapshot} of the
    final basis whenever the solve ends [Optimal], for later reuse through
    {!resolve_with_basis}. *)

val resolve_with_basis :
  ?max_iters:int ->
  ?deadline:float ->
  compiled ->
  b:float array ->
  spans:(int * float option) list ->
  snapshot:snapshot ->
  unit ->
  resolve
(** Warm re-solve: repair [snapshot] — taken from an optimal solve of the
    same compiled form under a different [b] / spans (the rhs shift and
    span changes of a branch-and-bound child node) — with dual-simplex
    pivots (bound-ratio pricing of the most infeasible basic variable, a
    bound-flipping dual ratio test over the nonbasic structural columns),
    then polish with primal phase-2 pivots. [spans] lists the columns whose
    span differs from the compiled root span, with the node's span
    ([None] = no upper bound). Unlike {!solve_cols}, [b] entries may be
    negative and spans zero (a variable fixed by branching); a negative
    span reports [Infeasible] immediately. A [Resolved (Infeasible, _)]
    from an exhausted dual ratio test is a genuine infeasibility
    certificate. The resolved point is cross-checked against the bound
    system and [A x = b] before being trusted; any accuracy loss, cycling
    or singular refactorisation is reported as [Stale] so the caller can
    fall back to a cold primal solve.

    The snapshot's factor is installed when a sibling re-solve has
    published it (counted under [lp.simplex.factor_reuses]); otherwise the
    snapshot's basis is refactorised and published (counted under
    [lp.simplex.refactorisations]). Either way the solve computes the same
    floats.
    @raise Invalid_argument on a [b] or [snapshot] of the wrong shape.
    @raise Deadline_exceeded if [deadline] passes mid-solve. *)
