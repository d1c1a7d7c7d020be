open Microfluidics
module G = Flowgraph.Digraph
module Dag = Flowgraph.Dag
module Flow = Flowgraph.Maxflow

type layer = {
  index : int;
  ops : int list;
  indeterminate : int list;
  stored_transfers : (int * int) list;
}

type t = {
  assay : Assay.t;
  threshold : int;
  layers : layer array;
  layer_of_op : int array;
}

type choice = Smallest_id | Seeded of int

(* The dependency graph compiled once per [compute]: ascending successor and
   predecessor arrays, a topological order, and one stamp array shared by
   every traversal (a vertex is marked iff its stamp is the current epoch,
   so a traversal starts in O(1)). [slot] numbers an eviction cone's
   vertices in its max-flow network. *)
type graph = {
  succ : int array array;
  pred : int array array;
  topo : int array;
  indet : bool array;
  stamp : int array;
  mutable epoch : int;
  slot : int array;
}

let compile assay =
  let g = Assay.dependency_graph assay in
  let n = G.vertex_count g in
  {
    succ = Array.init n (fun v -> Array.of_list (G.succ g v));
    pred = Array.init n (fun v -> Array.of_list (G.pred g v));
    topo = Array.of_list (Dag.topological_order g);
    indet = Array.map Operation.is_indeterminate (Assay.operations assay);
    stamp = Array.make n 0;
    epoch = 0;
    slot = Array.make n 0;
  }

let marked g v = g.stamp.(v) = g.epoch

(* Marks and returns the [roots] and every vertex they reach along [next]
   through vertices satisfying [inside]. *)
let reach g next ~inside roots =
  g.epoch <- g.epoch + 1;
  let acc = ref [] in
  let rec visit v =
    g.stamp.(v) <- g.epoch;
    acc := v :: !acc;
    Array.iter (fun w -> if inside w && not (marked g w) then visit w) next.(v)
  in
  List.iter (fun r -> if not (marked g r) then visit r) roots;
  !acc

(* Phase 1 of Algorithm 1 (Fig. 4): keep every indeterminate operation that
   has no indeterminate ancestor in the working set, pushing its descendants
   to later layers; then keep all untouched operations. The paper picks the
   next eligible operation "randomly"; [choice] makes that pick either
   deterministic (smallest id) or seeded pseudo-random. [work] is the working
   set, ascending. Each round marks a vertex [blocked] when an unselected
   indeterminate operation reaches it through unpushed working vertices, in
   one forward pass in topological order. Fills [pushed] and [selected]. *)
let dependency_based_allocation g ~choice ~work ~in_work pushed selected =
  let blocked = Array.make (Array.length g.topo) false in
  let live p = in_work p && not pushed.(p) in
  let pick_round = ref 0 and count = ref 0 in
  let rec loop () =
    Array.iter
      (fun v ->
        if live v then
          blocked.(v) <-
            Array.exists
              (fun p -> live p && ((g.indet.(p) && not selected.(p)) || blocked.(p)))
              g.pred.(v))
      g.topo;
    let viable v = g.indet.(v) && (not pushed.(v)) && (not selected.(v)) && not blocked.(v) in
    let select v =
      selected.(v) <- true;
      incr count;
      let inside w = live w && not selected.(w) in
      List.iter (fun u -> if u <> v then pushed.(u) <- true) (reach g g.succ ~inside [ v ]);
      loop ()
    in
    match (List.filter viable work, choice) with
    | [], (Smallest_id | Seeded _) -> ()
    | v :: _, Smallest_id -> select v
    | vs, Seeded seed ->
      incr pick_round;
      let h = ref (seed * 0x9E3779B1 + (!pick_round * 0x85EBCA77)) in
      h := !h lxor (!h lsr 13);
      h := !h * 0xC2B2AE35;
      h := !h lxor (!h lsr 16);
      select (List.nth vs (abs !h mod List.length vs))
  in
  loop ();
  Telemetry.count "layering.mis_rounds";
  Telemetry.count ~by:!count "layering.mis_selected"

(* Eviction cost of indeterminate [v] from the layer [kept] (Fig. 5): a
   min-cut between a virtual source standing for the previous layers and
   [v], over [v]'s ancestor cone inside the layer. Crossing edges are
   reagents stored at the boundary; the nearest-sink cut moves the fewest
   ancestors out. Returns (storage_cost, moved vertices including v). *)
let eviction_cut g ~kept v =
  Telemetry.count "layering.min_cuts";
  (* the marked vertices are the cone and [v] itself *)
  match List.filter (fun u -> u <> v) (reach g g.pred ~inside:kept [ v ]) with
  | [] -> (0, [ v ])
  | cone ->
    let verts = List.sort compare cone in
    List.iteri (fun i u -> g.slot.(u) <- i + 1) verts;
    let src = 0 and sink = List.length verts + 1 in
    let net = Flow.create (sink + 1) in
    let idx u = if u = v then sink else g.slot.(u) in
    let add_dep_edges u =
      Array.iter
        (fun w -> if marked g w then Flow.add_edge net ~src:(idx u) ~dst:(idx w) ~cap:1)
        g.succ.(u)
    in
    List.iter add_dep_edges verts;
    (* the virtual operation of Fig. 5(d) feeds the roots of the cone
       (ancestors with no parent inside it) *)
    let feed_root u =
      if not (Array.exists (marked g) g.pred.(u)) then
        Flow.add_edge net ~src ~dst:(idx u) ~cap:1
    in
    List.iter feed_root verts;
    let value, side = Flow.min_cut_nearest_sink net ~source:src ~sink in
    (value, v :: List.filter (fun u -> not side.(g.slot.(u))) verts)

(* Phase 2 of Algorithm 1: while the layer holds more indeterminate
   operations than the threshold, evict the cheapest one together with the
   sink side of its cut, closed under in-layer descendants so that nothing
   kept depends on an evicted operation. Evicted vertices join [pushed];
   returns the remaining [selected], ascending. *)
let resource_based_allocation g threshold ~kept pushed selected =
  let selected = ref selected and stop = ref false in
  while (not !stop) && List.length !selected > threshold do
    (* an eviction whose cascade would wipe out every indeterminate
       operation of the layer is rejected: each non-final layer must keep
       one for the cyber-physical boundary *)
    let cost v =
      let c, moved = eviction_cut g ~kept v in
      let closure = reach g g.succ ~inside:kept moved in
      if List.for_all (marked g) !selected then None
      else Some (c, List.length closure - 1, v, closure)
    in
    let better best v =
      match (best, cost v) with
      | Some (c0, m0, v0, _), Some (c, m, v, _) when (c0, m0, v0) <= (c, m, v) -> best
      | best, None -> best
      | _, cand -> cand
    in
    match List.fold_left better None !selected with
    | None -> stop := true
    | Some (c, _, _, closure) ->
      Telemetry.count "layering.evictions";
      Telemetry.observe "layering.eviction_storage_cost" (float_of_int c);
      List.iter (fun u -> pushed.(u) <- true) closure;
      selected := List.filter (fun s -> not pushed.(s)) !selected
  done;
  !selected

let compute ?(threshold = 10) ?(choice = Smallest_id) assay =
  if threshold < 1 then invalid_arg "Layering.compute: threshold must be >= 1";
  (match Assay.validate assay with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Layering.compute: " ^ msg));
  Telemetry.span "layering.compute" ~attrs:[ ("assay", Assay.name assay) ]
  @@ fun () ->
  let g = compile assay in
  let n = Array.length g.topo in
  let layer_of_op = Array.make n (-1) in
  let in_work v = layer_of_op.(v) < 0 in
  let layers = ref [] and index = ref 0 in
  while Array.exists (fun l -> l < 0) layer_of_op do
    let work = List.filter in_work (List.init n Fun.id) in
    let pushed = Array.make n false and selected = Array.make n false in
    dependency_based_allocation g ~choice ~work ~in_work pushed selected;
    let kept v = in_work v && not pushed.(v) in
    let indeterminate =
      resource_based_allocation g threshold ~kept pushed
        (List.filter (fun v -> selected.(v)) work)
    in
    let ops = List.filter kept work in
    assert (ops <> []);
    List.iter (fun v -> layer_of_op.(v) <- !index) ops;
    let stored_transfers =
      List.concat_map
        (fun u ->
          List.filter_map
            (fun w -> if in_work w then Some (u, w) else None)
            (Array.to_list g.succ.(u)))
        ops
    in
    layers := { index = !index; ops; indeterminate; stored_transfers } :: !layers;
    incr index
  done;
  Telemetry.count ~by:!index "layering.layers";
  { assay; threshold; layers = Array.of_list (List.rev !layers); layer_of_op }

let layer_count t = Array.length t.layers

let storage_units t =
  Array.fold_left (fun acc l -> acc + List.length l.stored_transfers) 0 t.layers

let check ?(strict = true) t =
  let ops = Assay.operations t.assay in
  let n = Array.length ops in
  let g = Assay.dependency_graph t.assay in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* partition *)
  let seen = Array.make n 0 in
  Array.iter (fun l -> List.iter (fun v -> seen.(v) <- seen.(v) + 1) l.ops) t.layers;
  Array.iteri (fun v c -> if c <> 1 then err "op %d appears in %d layers" v c) seen;
  (* dependencies are monotone; indeterminate parents strictly earlier *)
  let check_edge u v =
    let lu = t.layer_of_op.(u) and lv = t.layer_of_op.(v) in
    if lu > lv then err "dependency %d->%d goes backwards (%d > %d)" u v lu lv;
    if Operation.is_indeterminate ops.(u) && lu >= lv then
      err "indeterminate %d has descendant %d in same layer" u v
  in
  G.iter_edges check_edge g;
  (* threshold and non-last layers have an indeterminate op *)
  Array.iteri
    (fun i l ->
      if strict && List.length l.indeterminate > t.threshold then
        err "layer %d exceeds indeterminate threshold" i;
      if strict && i < Array.length t.layers - 1 && l.indeterminate = [] then
        err "non-final layer %d has no indeterminate operation" i;
      List.iter
        (fun v ->
          if not (Operation.is_indeterminate ops.(v)) then
            err "op %d marked indeterminate in layer %d but is determinate" v i)
        l.indeterminate)
    t.layers;
  match !errors with [] -> Ok () | e -> Error (String.concat "; " (List.rev e))

let pp fmt t =
  Format.fprintf fmt "@[<v>layering of %s (threshold %d): %d layers@,"
    (Assay.name t.assay) t.threshold (Array.length t.layers);
  Array.iter
    (fun l ->
      Format.fprintf fmt "  L%d: %d ops, %d indeterminate, %d stored@," l.index
        (List.length l.ops)
        (List.length l.indeterminate)
        (List.length l.stored_transfers))
    t.layers;
  Format.fprintf fmt "@]"
