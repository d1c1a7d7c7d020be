(* Exact LP oracle: vertex enumeration over a [Lp.Model.t] in
   [Numeric.Rat].

   A nonempty bounded feasible region is the convex hull of its vertices,
   and every vertex is the unique solution of some [n] of the model's
   hyperplanes (constraint rows and finite variable bounds), [n] the
   variable count. So: solve every [n]-subset of hyperplanes by Gaussian
   elimination, keep the solutions that satisfy every row and bound, and
   return the best objective among them. Integrality is ignored, as in the
   LP relaxation.

   The oracle reads the model directly, with no standard-form translation
   of its own, so comparing it with [Lp.Simplex] checks that translation
   too. It is exponential in the model size and meant for models of a few
   variables and rows. The caller must ensure the feasible region is
   bounded: an unbounded direction goes unnoticed. *)

module Q = Numeric.Rat
module M = Lp.Model

type outcome =
  | Optimal of { objective : Q.t; values : Q.t array }
  | Infeasible

(* [a . x = r] with [a] dense over the model variables. *)
type hyperplane = { a : Q.t array; r : Q.t }

(* The rows as (dense coefficients, sense, rhs), any constant moved to the
   rhs. *)
let rows model =
  let n = M.var_count model in
  List.map
    (fun (_, expr, sense, rhs) ->
      let a = Array.make n Q.zero in
      Lp.Linexpr.fold (fun v c () -> a.(v) <- c) expr ();
      (a, sense, Q.sub rhs (Lp.Linexpr.const_part expr)))
    (M.constraints model)

let hyperplanes model rows =
  let n = M.var_count model in
  let unit v bound =
    Option.map
      (fun r ->
        { a = Array.init n (fun i -> if i = v then Q.one else Q.zero); r })
      bound
  in
  List.map (fun (a, _, r) -> { a; r }) rows
  @ List.concat_map
      (fun v ->
        List.filter_map Fun.id
          [ unit v (M.var_lb model v); unit v (M.var_ub model v) ])
      (List.init n Fun.id)

(* Gauss-Jordan elimination on a square system; [None] when singular. *)
let solve_square (planes : hyperplane list) =
  let a = Array.of_list (List.map (fun h -> Array.copy h.a) planes) in
  let b = Array.of_list (List.map (fun h -> h.r) planes) in
  let n = Array.length b in
  let swap arr i j =
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  in
  let rec eliminate k =
    if k = n then Some (Array.init n (fun i -> Q.div b.(i) a.(i).(i)))
    else
      let pivot_rows = List.init (n - k) (( + ) k) in
      match List.find_opt (fun r -> not (Q.is_zero a.(r).(k))) pivot_rows with
      | None -> None
      | Some p ->
        swap a k p;
        swap b k p;
        for r = 0 to n - 1 do
          if r <> k && not (Q.is_zero a.(r).(k)) then begin
            let f = Q.div a.(r).(k) a.(k).(k) in
            for j = k to n - 1 do
              a.(r).(j) <- Q.sub a.(r).(j) (Q.mul f a.(k).(j))
            done;
            b.(r) <- Q.sub b.(r) (Q.mul f b.(k))
          end
        done;
        eliminate (k + 1)
  in
  eliminate 0

let feasible model rows x =
  let dot a =
    Array.fold_left Q.add Q.zero (Array.mapi (fun i c -> Q.mul c x.(i)) a)
  in
  let within v =
    let ok bound cmp =
      match bound with None -> true | Some q -> cmp (Q.compare x.(v) q)
    in
    ok (M.var_lb model v) (fun c -> c >= 0)
    && ok (M.var_ub model v) (fun c -> c <= 0)
  in
  List.for_all
    (fun (a, sense, r) ->
      let c = Q.compare (dot a) r in
      match sense with M.Le -> c <= 0 | M.Ge -> c >= 0 | M.Eq -> c = 0)
    rows
  && List.for_all within (List.init (Array.length x) Fun.id)

(* Every [k]-subset of [l], in order. *)
let rec choose k l =
  match (k, l) with
  | 0, _ -> [ [] ]
  | _, [] -> []
  | k, h :: t -> List.map (List.cons h) (choose (k - 1) t) @ choose k t

let solve model =
  let rows = rows model in
  let dir, obj = M.objective model in
  let better a b =
    match dir with
    | `Minimize -> Q.compare a b < 0
    | `Maximize -> Q.compare a b > 0
  in
  List.fold_left
    (fun best planes ->
      match solve_square planes with
      | Some x when feasible model rows x -> (
        let objective = Lp.Linexpr.eval (fun v -> x.(v)) obj in
        match best with
        | Optimal { objective = o; _ } when not (better objective o) -> best
        | Optimal _ | Infeasible -> Optimal { objective; values = x })
      | Some _ | None -> best)
    Infeasible
    (choose (M.var_count model) (hyperplanes model rows))
