(** Sparse revised two-phase primal simplex on bounded standard-form
    problems

    {[ minimise  c . x   subject to   A x = b,  0 <= x <= u ]}

    with [b >= 0] (the caller flips row signs beforehand) and [u] optional
    per column. The constraint matrix is held column-wise sparse and the
    basis inverse as a periodically-refactorised product-form eta file, so
    the per-iteration cost is proportional to the number of nonzeros rather
    than [m * n]. Upper bounds are enforced inside the ratio test (nonbasic
    variables rest at either bound; a step may end in a bound flip with no
    basis change) instead of as explicit rows, which roughly halves the row
    count on the branch-and-bound relaxations this kernel exists for.
    Artificial variables are managed internally; pricing is
    steepest-edge-lite (reduced costs scaled by static column norms) with a
    Bland fallback that guarantees termination. This is the kernel under
    both {!Simplex} front-ends. *)

type 'num result =
  | Optimal of 'num * 'num array
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
(** One product-form eta record of the float kernel {!Tableau_float}. *)

type factor = { f_basis : int array; f_etas : eta array }
(** A refactorised basis of the float kernel: the row each basic column was
    placed in by refactorisation ([f_basis]) and the eta file that
    represents its inverse (exactly [Array.length f_etas] records). A
    stored factor is shared between solves and never written to. *)

type snapshot = {
  s_basis : int array;
  s_at_ub : bool array;
  s_factor : factor option Atomic.t;
}
(** A basis snapshot: which column is basic in each row ([s_basis], entries
    [>= n] are artificial) and which nonbasic structural columns rest at
    their upper bound ([s_at_ub]). The basis part is field-independent, so a
    parent node's basis from either the functorised or the float kernel can
    warm-start a re-solve in the other.

    [s_factor] is a write-once cell. The first float re-solve from the
    snapshot refactorises [s_basis] and publishes the result with
    [Atomic.compare_and_set]; later re-solves from the same snapshot (the
    sibling branch) install it instead of refactorising. Refactorisation
    depends only on the basis order and the matrix, so the installed factor
    is bit for bit the one the sibling would have built. The functorised
    kernel ignores the cell. *)

val new_snapshot : basis:int array -> at_ub:bool array -> snapshot
(** A snapshot of copies of [basis] and [at_ub] with an empty factor cell. *)

type 'num resolve =
  | Resolved of 'num result * snapshot option
      (** the inherited basis was repaired by the dual simplex; the new
          snapshot is present whenever the re-solve ended [Optimal] *)
  | Stale of string
      (** the warm solve cycled, went singular or lost numerical accuracy —
          the caller should fall back to a cold primal solve *)

module Make (F : Field.S) : sig
  val solve_cols :
    ?max_iters:int ->
    ?deadline:float ->
    ?ubs:F.t option array ->
    ?snapshot_out:snapshot option ref ->
    nrows:int ->
    cols:(int * F.t) array array ->
    b:F.t array ->
    c:F.t array ->
    unit ->
    F.t result
  (** [solve_cols ~nrows ~cols ~b ~c ()] with [cols.(j)] the sparse column
      of structural variable [j] as (row, coefficient) pairs (each row at
      most once per column), [b] length [nrows] (all entries [>= 0]), [c]
      length [Array.length cols]. [ubs.(j)], when present, is a strictly
      positive upper bound on structural variable [j] (default: none — the
      classic [x >= 0] form); fixed variables must be substituted out by
      the caller. [deadline] is an absolute {!Telemetry.Clock} time checked
      every few pivots.
      @raise Invalid_argument on shape mismatch, a row index out of range,
      negative [b] entries or a non-positive upper bound.
      @raise Failure if [max_iters] (default [50_000]) pivots are exceeded.
      @raise Deadline_exceeded if [deadline] passes mid-solve.

      When [snapshot_out] is supplied it is filled with a {!snapshot} of the
      final basis whenever the solve ends [Optimal], for later reuse through
      {!resolve_with_basis}. *)

  val resolve_with_basis :
    ?max_iters:int ->
    ?deadline:float ->
    nrows:int ->
    cols:(int * F.t) array array ->
    b:F.t array ->
    c:F.t array ->
    ubs:F.t option array ->
    snapshot:snapshot ->
    unit ->
    F.t resolve
  (** Warm re-solve: repair [snapshot] — taken from an optimal solve of a
      problem with the same columns and costs but different [b] / [ubs]
      (the rhs shift and span changes of a branch-and-bound child node) —
      with dual-simplex pivots (bound-ratio pricing of the most infeasible
      basic variable, dual ratio test over the nonbasic structural columns,
      bound flips when the entering span is the binding limit), then polish
      with primal phase-2 pivots. Unlike {!solve_cols}, [b] entries may be
      negative and [ubs] entries may be zero (a variable fixed by
      branching). A [Resolved (Infeasible, _)] from an exhausted dual ratio
      test is a genuine infeasibility certificate. For the approximate
      field the resolved point is cross-checked against the bound system
      and [A x = b] before being trusted; any accuracy loss, cycling or
      singular refactorisation is reported as [Stale] so the caller can
      fall back to a cold primal solve.
      @raise Invalid_argument on shape mismatch.
      @raise Deadline_exceeded if [deadline] passes mid-solve. *)

  val solve :
    ?max_iters:int ->
    ?deadline:float ->
    a:F.t array array ->
    b:F.t array ->
    c:F.t array ->
    unit ->
    F.t result
  (** Dense-input convenience wrapper over {!solve_cols}: [a] of shape
      [m x n] is converted to sparse columns first. Same contract. *)
end
