(* Replay of the first synthesis pass's per-layer ILP models from outside
   the library. Inside [Synthesis.run] model construction, presolve and the
   root relaxation are all hidden under the [layer.ilp] and [lp.bb.solve]
   spans; rebuilding the spec [Layer_solver] builds for each first-pass
   layer and timing the three public calls one by one separates them.

   The replay also checks what the layer solver guarantees: on its own
   layer model, the schedule the first pass kept for a layer is never worse
   than the greedy schedule for that layer. *)

open Microfluidics
module Syn = Cohls.Synthesis

type t = {
  layers : int;  (** layer models replayed *)
  build_s : float;  (** [Ilp_model.build] *)
  presolve_s : float;  (** [Presolve.run] *)
  root_solve_s : float;  (** cold [Simplex.solve_relaxation_float] *)
  worse_than_greedy : string list;
      (** layers whose kept schedule is worse than the greedy one on the
          layer's model, or cannot be expressed in it *)
}

let empty =
  {
    layers = 0;
    build_s = 0.0;
    presolve_s = 0.0;
    root_solve_s = 0.0;
    worse_than_greedy = [];
  }

(* The inputs pass 0 handed to [Layer_solver.solve] for layer [i], rebuilt
   from the pass-0 schedule: devices first used by earlier layers (in
   first-use order) are inherited, operations of earlier layers are bound,
   and the device pairs of their transfers are already routed. *)
let layer_input (config : Syn.config) (s0 : Cohls.Schedule.t) i =
  let layering = s0.Cohls.Schedule.layering in
  let assay = layering.Cohls.Layering.assay in
  let layer_of_op = layering.Cohls.Layering.layer_of_op in
  let earlier op = layer_of_op.(op) < i in
  let bound_before op =
    if earlier op then Cohls.Schedule.binding s0 op else None
  in
  let available =
    let seen = Hashtbl.create 16 in
    List.concat_map
      (fun (l : Cohls.Schedule.layer_schedule) ->
        if l.Cohls.Schedule.layer_index >= i then []
        else
          List.map (fun (e : Cohls.Schedule.entry) -> e.Cohls.Schedule.device)
            l.Cohls.Schedule.entries
          |> List.sort_uniq compare
          |> List.filter_map (fun id ->
                 if Hashtbl.mem seen id then None
                 else begin
                   Hashtbl.replace seen id ();
                   Chip.find_device s0.Cohls.Schedule.chip id
                 end))
      (Array.to_list s0.Cohls.Schedule.layers)
  in
  let existing_paths =
    let paths = ref [] in
    Flowgraph.Digraph.iter_edges
      (fun u v ->
        if earlier u && earlier v then
          match (bound_before u, bound_before v) with
          | Some du, Some dv when du <> dv ->
            let k = (min du dv, max du dv) in
            if not (List.mem k !paths) then paths := k :: !paths
          | Some _, Some _ | None, _ | _, None -> ())
      (Assay.dependency_graph assay);
    !paths
  in
  {
    Cohls.Layer_solver.ops = Assay.operations assay;
    graph = Assay.dependency_graph assay;
    layer = layering.Cohls.Layering.layers.(i);
    layer_of_op;
    bound_before;
    available;
    rule = config.Syn.rule;
    max_devices = max (List.length available) config.Syn.max_devices;
    transport = Cohls.Transport.time s0.Cohls.Schedule.transport_times;
    cost = config.Syn.cost;
    weights = config.Syn.weights;
    existing_paths;
    device_penalty = (fun _ -> 0);
  }

(* Build, presolve and cold-solve the root relaxation of one layer model,
   exactly as [Layer_solver] prepares it for branch-and-bound: the greedy
   schedule fixes the free-slot count and the objective cutoff. [kept] is
   the layer's schedule in the first pass, priced on the same model. *)
let replay_layer (config : Syn.config) ~extra_free_slots ~fresh_id ~name ~kept input
    acc =
  let heur = Cohls.Layer_solver.solve Cohls.Layer_solver.Heuristic input ~fresh_id in
  let n_avail = List.length input.Cohls.Layer_solver.available in
  let free_count =
    min
      (List.length heur.Cohls.Layer_solver.created + extra_free_slots)
      (max 0 (input.Cohls.Layer_solver.max_devices - n_avail))
  in
  let spec =
    {
      Cohls.Ilp_model.ops = input.Cohls.Layer_solver.ops;
      graph = input.Cohls.Layer_solver.graph;
      layer = input.Cohls.Layer_solver.layer;
      layer_of_op = input.Cohls.Layer_solver.layer_of_op;
      bound_before = input.Cohls.Layer_solver.bound_before;
      slots =
        Array.of_list
          (List.map
             (fun d -> Cohls.Ilp_model.Fixed d)
             input.Cohls.Layer_solver.available
          @ List.init free_count (fun _ -> Cohls.Ilp_model.Free { id = fresh_id () }));
      rule = config.Syn.rule;
      transport = input.Cohls.Layer_solver.transport;
      cost = config.Syn.cost;
      weights = config.Syn.weights;
      existing_paths = input.Cohls.Layer_solver.existing_paths;
    }
  in
  let built, build_s = Telemetry.Clock.timed (fun () -> Cohls.Ilp_model.build spec) in
  let lp = Cohls.Ilp_model.model built in
  let price entries =
    Option.map
      (fun values -> Lp.Model.eval_objective lp (fun v -> values.(v)))
      (Cohls.Ilp_model.warm_start built entries)
  in
  let greedy = price heur.Cohls.Layer_solver.entries in
  let worse =
    let layer = input.Cohls.Layer_solver.layer.Cohls.Layering.index in
    match (price kept, greedy) with
    | Some k, Some g when k > g +. 1e-6 ->
      [
        Printf.sprintf "%s layer %d: kept schedule costs %.0f, greedy %.0f" name layer
          k g;
      ]
    | None, Some _ ->
      [
        Printf.sprintf "%s layer %d: kept schedule does not fit the layer model" name
          layer;
      ]
    | Some _, Some _ | _, None -> []
  in
  (match greedy with
   | Some cutoff ->
     let _, obj = Lp.Model.objective lp in
     Lp.Model.add_constr lp ~name:"warm_cutoff" obj Lp.Model.Le
       (Lp.Linexpr.constant (Numeric.Rat.of_int (int_of_float (Float.round cutoff))))
   | None -> ());
  let presolved, presolve_s = Telemetry.Clock.timed (fun () -> Lp.Presolve.run lp) in
  let root_solve_s =
    match presolved with
    | Lp.Presolve.Proved_infeasible -> 0.0
    | Lp.Presolve.Ok _ ->
      snd (Telemetry.Clock.timed (fun () -> Lp.Simplex.solve_relaxation_float lp))
  in
  {
    layers = acc.layers + 1;
    build_s = acc.build_s +. build_s;
    presolve_s = acc.presolve_s +. presolve_s;
    root_solve_s = acc.root_solve_s +. root_solve_s;
    worse_than_greedy = worse @ acc.worse_than_greedy;
  }

let run (config : Syn.config) (results : Syn.result list) =
  match config.Syn.engine with
  | Cohls.Layer_solver.Heuristic -> empty
  | Cohls.Layer_solver.Ilp { extra_free_slots; _ } ->
    List.fold_left
      (fun acc (r : Syn.result) ->
        let s0 = (List.hd r.Syn.iterations).Syn.schedule in
        (* ids past every device of the pass: only labels of new devices *)
        let next =
          ref
            (List.fold_left
               (fun m (d : Device.t) -> max m (d.Device.id + 1))
               0 (Chip.devices s0.Cohls.Schedule.chip))
        in
        let fresh_id () =
          let id = !next in
          incr next;
          id
        in
        let acc = ref acc in
        let name = Assay.name r.Syn.layering.Cohls.Layering.assay in
        Array.iteri
          (fun i (l : Cohls.Schedule.layer_schedule) ->
            let input = layer_input config s0 i in
            acc :=
              replay_layer config ~extra_free_slots ~fresh_id ~name
                ~kept:l.Cohls.Schedule.entries input !acc)
          s0.Cohls.Schedule.layers;
        !acc)
      empty results
