(* What one traced workload iteration recorded, read from the program's
   telemetry once the iteration has finished, and the per-layer numbers and
   waterfall derived from it. *)

type t = {
  wall_s : float;  (** bench-measured wall time of the iteration *)
  self_s : (string * float) list;
      (** self time per span name on the calling domain, waterfall order *)
  worker_self_s : (string * float) list;
      (** self time per span name on the branch-and-bound worker domains *)
  counters : (string * int) list;
  by_domain : (string * (int * int) list) list;
  histograms : (string * Telemetry.histogram) list;
}

(* Software-stack order of the spans the program and the benchmark record;
   names not listed here follow alphabetically. *)
let stack_order =
  [
    "bench.synthesis.run";
    "synthesis.run";
    "layering.compute";
    "synthesis.pass";
    "layer.solve";
    "layer.heuristic";
    "layer.ilp";
    "lp.bb.solve";
    "lp.simplex.solve";
    "lp.simplex.kernel";
  ]

let ordered tbl =
  let rank name =
    let rec find i = function
      | [] -> (List.length stack_order, name)
      | n :: rest -> if n = name then (i, "") else find (i + 1) rest
    in
    find 0 stack_order
  in
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (rank a) (rank b))

(* A span's self time is its duration minus that of its direct children.
   Spans arrive in start order, so the parent of a span at depth [d] is the
   latest span opened at depth [d - 1] on the same domain. *)
let self_times ~main_tid spans =
  let main = Hashtbl.create 16 and worker = Hashtbl.create 16 in
  let open_at = Hashtbl.create 16 in
  let bump tbl name v =
    let old = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (old +. v)
  in
  List.iter
    (fun (s : Telemetry.span_record) ->
      let tbl = if s.Telemetry.tid = main_tid then main else worker in
      bump tbl s.Telemetry.span_name s.Telemetry.duration_s;
      (match Hashtbl.find_opt open_at (s.Telemetry.tid, s.Telemetry.depth - 1) with
       | Some parent -> bump tbl parent (-.s.Telemetry.duration_s)
       | None -> ());
      Hashtbl.replace open_at
        (s.Telemetry.tid, s.Telemetry.depth)
        s.Telemetry.span_name)
    spans;
  (ordered main, ordered worker)

let capture ~wall_s =
  let main_tid = (Domain.self () :> int) in
  let self_s, worker_self_s = self_times ~main_tid (Telemetry.spans ()) in
  {
    wall_s;
    self_s;
    worker_self_s;
    counters = Telemetry.counters ();
    by_domain = Telemetry.counters_by_domain ();
    histograms = Telemetry.histograms ();
  }

let self p name = Option.value ~default:0.0 (List.assoc_opt name p.self_s)
let counter p name = Option.value ~default:0 (List.assoc_opt name p.counters)
let sum l = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 l
let unattributed_s p = p.wall_s -. sum p.self_s

(* The work counts that must repeat exactly between runs of one seed. *)
let exact_counts =
  [
    "lp.bb.nodes";
    "lp.simplex.pivots";
    "lp.simplex.dual_pivots";
    "lp.simplex.bound_flips";
    "lp.simplex.refactorisations";
    "layering.min_cuts";
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

let histogram p name = List.assoc_opt name p.histograms

(* Per-layer metrics of one traced iteration, as (name, value, unit). *)
let layer_metrics p =
  let c name = float_of_int (counter p name) in
  let count name = (name, c name, "count") in
  let nodes = counter p "lp.bb.nodes" in
  let bb_total =
    (* lp.bb.solve's full duration on the calling domain: its self time
       plus every span nested below it there *)
    List.fold_left
      (fun acc name -> acc +. self p name)
      0.0
      [ "lp.bb.solve"; "lp.simplex.solve"; "lp.simplex.kernel" ]
  in
  let gap_mean, proven_share =
    match histogram p "lp.bb.gap" with
    | Some h when h.Telemetry.samples > 0 ->
      (* bucket 0 holds gaps <= 1e-6: the layer solves proved optimal *)
      ( h.Telemetry.sum /. float_of_int h.Telemetry.samples,
        iratio h.Telemetry.bucket_counts.(0) h.Telemetry.samples )
    | Some _ | None -> (0.0, 0.0)
  in
  let max_domain_node_share =
    (* lp.bb.nodes is counted once per search on the calling domain, so the
       per-domain split of the node work comes from the relaxation count *)
    match List.assoc_opt "lp.simplex.relaxations" p.by_domain with
    | Some split ->
      let total = List.fold_left (fun acc (_, v) -> acc + v) 0 split in
      iratio (List.fold_left (fun acc (_, v) -> max acc v) 0 split) total
    | None -> 0.0
  in
  let refactor_s =
    match histogram p "lp.simplex.refactor_s" with
    | Some h -> h.Telemetry.sum
    | None -> 0.0
  in
  [
    ("layering.compute_s", self p "layering.compute", "s");
    count "layering.min_cuts";
    count "layering.evictions";
    count "layering.layers";
    ("layer.heuristic_s", self p "layer.heuristic", "s");
    ("synthesis.self_s", self p "synthesis.run" +. self p "synthesis.pass", "s");
    count "synthesis.passes";
    count "synthesis.passes_accepted";
    ("layer.ilp.self_s", self p "layer.ilp", "s");
    count "ilp.model.vars";
    count "ilp.model.constrs";
    count "ilp.model.binds_pruned";
    ( "layer.ilp_improved_share",
      iratio (counter p "layer.ilp_improved")
        (counter p "layer.ilp_improved" + counter p "layer.ilp_rejected"),
      "ratio" );
    count "lp.presolve.rows_removed";
    count "lp.presolve.cols_fixed";
    count "lp.presolve.rounds";
    ("lp.bb.self_s", self p "lp.bb.solve", "s");
    count "lp.bb.nodes";
    ("lp.bb.nodes_per_s", ratio (float_of_int nodes) bb_total, "1/s");
    count "lp.bb.pruned_by_bound";
    ( "lp.bb.warm_hit_rate",
      iratio (counter p "lp.bb.warm_hits")
        (counter p "lp.bb.warm_hits" + counter p "lp.bb.warm_fallbacks"),
      "ratio" );
    ("lp.bb.gap_mean", gap_mean, "ratio");
    ("lp.bb.proven_share", proven_share, "ratio");
    ("lp.bb.max_domain_node_share", max_domain_node_share, "ratio");
    ("lp.bb.worker_busy_s", sum p.worker_self_s, "s");
    ("lp.simplex.driver_self_s", self p "lp.simplex.solve", "s");
    ("lp.simplex.kernel_s", self p "lp.simplex.kernel", "s");
    ("lp.simplex.refactor_s", refactor_s, "s");
    count "lp.simplex.refactorisations";
    ( "lp.simplex.refactorisations_per_node",
      iratio (counter p "lp.simplex.refactorisations") nodes,
      "ratio" );
    count "lp.simplex.pivots";
    count "lp.simplex.dual_pivots";
    count "lp.simplex.bound_flips";
    ("waterfall.unattributed_s", unattributed_s p, "s");
  ]

let print_waterfall oc ~workload p =
  let row name v =
    Printf.fprintf oc "  %-28s %10.4f s %6.1f%%\n" name v (100.0 *. ratio v p.wall_s)
  in
  Printf.fprintf oc "waterfall %s: self time per span on the calling domain\n" workload;
  List.iter (fun (name, v) -> row name v) p.self_s;
  row "(unattributed remainder)" (unattributed_s p);
  row "= synth_traced_s" p.wall_s;
  if p.worker_self_s <> [] then begin
    Printf.fprintf oc "  worker domains, busy in parallel (not part of the sum):\n";
    List.iter (fun (name, v) -> row name v) p.worker_self_s
  end
