(* Reference oracle for Cohls.Layering: the original set-based statement of
   Algorithm 1, kept verbatim in behaviour (same eligible order, same seeded
   pick, same max-flow network, same tie-break) but without telemetry. Every
   traversal re-walks the dependency graph through an [Iset], which makes it
   slow and obviously faithful to the paper's prose; the differential tests
   compare the compiled implementation against it. *)

open Microfluidics
module G = Flowgraph.Digraph
module Flow = Flowgraph.Maxflow
module L = Cohls.Layering
module Iset = Set.Make (Int)

let within next g inside v =
  let seen = Array.make (G.vertex_count g) false in
  let rec dfs u =
    List.iter
      (fun w ->
        if (not seen.(w)) && Iset.mem w inside then begin
          seen.(w) <- true;
          dfs w
        end)
      (next g u)
  in
  dfs v;
  let acc = ref Iset.empty in
  Array.iteri (fun u s -> if s then acc := Iset.add u !acc) seen;
  !acc

let descendants_within = within G.succ
let ancestors_within = within G.pred

(* Phase 1 (Fig. 4): returns (kept, selected). *)
let dependency_based_allocation g is_indet ~choice working =
  let pushed = ref Iset.empty and selected = ref Iset.empty in
  let pick_round = ref 0 in
  let viable v =
    Iset.mem v working
    && (not (Iset.mem v !pushed))
    && (not (Iset.mem v !selected))
    && is_indet v
    &&
    let anc = ancestors_within g (Iset.diff working !pushed) v in
    not (Iset.exists (fun a -> is_indet a && not (Iset.mem a !selected)) anc)
  in
  let candidate () =
    match (List.filter viable (Iset.elements working), choice) with
    | [], _ -> None
    | v :: _, L.Smallest_id -> Some v
    | vs, L.Seeded seed ->
      incr pick_round;
      let h = ref ((seed * 0x9E3779B1) + (!pick_round * 0x85EBCA77)) in
      h := !h lxor (!h lsr 13);
      h := !h * 0xC2B2AE35;
      h := !h lxor (!h lsr 16);
      Some (List.nth vs (abs !h mod List.length vs))
  in
  let rec loop () =
    match candidate () with
    | None -> ()
    | Some v ->
      selected := Iset.add v !selected;
      let inside = Iset.diff working (Iset.union !pushed !selected) in
      pushed := Iset.union !pushed (descendants_within g inside v);
      loop ()
  in
  loop ();
  (Iset.diff working !pushed, !selected)

(* Fig. 5: (storage_cost, moved set including v). *)
let eviction_cut g kept v =
  let anc = ancestors_within g kept v in
  if Iset.is_empty anc then (0, Iset.singleton v)
  else begin
    let verts = Iset.elements anc in
    let index = Hashtbl.create 16 in
    List.iteri (fun i u -> Hashtbl.replace index u (i + 1)) verts;
    let src = 0 and sink = List.length verts + 1 in
    let net = Flow.create (sink + 1) in
    let idx u = if u = v then sink else Hashtbl.find index u in
    Iset.iter
      (fun u ->
        List.iter
          (fun w ->
            if w = v || Iset.mem w anc then
              Flow.add_edge net ~src:(idx u) ~dst:(idx w) ~cap:1)
          (G.succ g u))
      anc;
    Iset.iter
      (fun u ->
        if not (List.exists (fun p -> Iset.mem p anc) (G.pred g u)) then
          Flow.add_edge net ~src ~dst:(idx u) ~cap:1)
      anc;
    let value, side = Flow.min_cut_nearest_sink net ~source:src ~sink in
    let moved = ref (Iset.singleton v) in
    List.iteri (fun i u -> if not side.(i + 1) then moved := Iset.add u !moved) verts;
    (value, !moved)
  end

(* Phase 2: evict the cheapest indeterminate while over the threshold. *)
let resource_based_allocation g threshold kept selected =
  let kept = ref kept and selected = ref selected in
  let closure_of moved =
    let closure = ref moved and grew = ref true in
    while !grew do
      grew := false;
      Iset.iter
        (fun u ->
          let fresh =
            Iset.diff (descendants_within g (Iset.remove u !kept) u) !closure
          in
          if not (Iset.is_empty fresh) then begin
            closure := Iset.union !closure fresh;
            grew := true
          end)
        !closure
    done;
    !closure
  in
  let stop = ref false in
  while (not !stop) && Iset.cardinal !selected > threshold do
    let cost v =
      let c, moved = eviction_cut g !kept v in
      let closure = closure_of moved in
      (c, Iset.cardinal closure - 1, v, closure)
    in
    let candidates =
      List.filter
        (fun (_, _, _, closure) -> not (Iset.subset !selected closure))
        (List.map cost (Iset.elements !selected))
    in
    let best =
      List.fold_left
        (fun acc ((c, m, v, _) as cand) ->
          match acc with
          | Some (c0, m0, v0, _) when (c0, m0, v0) <= (c, m, v) -> acc
          | _ -> Some cand)
        None candidates
    in
    match best with
    | None -> stop := true
    | Some (_, _, _, closure) ->
      kept := Iset.diff !kept closure;
      selected := Iset.diff !selected closure
  done;
  (!kept, !selected)

let compute ?(threshold = 10) ?(choice = L.Smallest_id) assay : L.t =
  let g = Assay.dependency_graph assay in
  let ops = Assay.operations assay in
  let n = Array.length ops in
  let is_indet v = Operation.is_indeterminate ops.(v) in
  let remaining = ref (Iset.of_list (List.init n Fun.id)) in
  let layers = ref [] in
  let layer_of_op = Array.make n (-1) in
  let index = ref 0 in
  while not (Iset.is_empty !remaining) do
    let kept, selected = dependency_based_allocation g is_indet ~choice !remaining in
    let kept, selected = resource_based_allocation g threshold kept selected in
    Iset.iter (fun v -> layer_of_op.(v) <- !index) kept;
    remaining := Iset.diff !remaining kept;
    let crossing u acc =
      List.fold_left
        (fun acc w -> if Iset.mem w !remaining then (u, w) :: acc else acc)
        acc (G.succ g u)
    in
    layers :=
      {
        L.index = !index;
        ops = Iset.elements kept;
        indeterminate = Iset.elements selected;
        stored_transfers = List.sort compare (Iset.fold crossing kept []);
      }
      :: !layers;
    incr index
  done;
  { L.assay; threshold; layers = Array.of_list (List.rev !layers); layer_of_op }
