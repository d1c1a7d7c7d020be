(* The cohls synthesis benchmark. One process runs one workload: it builds
   the inputs from the seed (timed as set-up), runs the workload's
   [Synthesis.run] calls repeatedly for the given number of seconds with
   telemetry off, scales their times by the machine's speed ([Calibrate]),
   checks every result, and prints the end-to-end metrics as
   the last line of standard output. With [--trace 1] half of the time runs
   untraced and half traced, and the per-layer metrics and the waterfall of
   the median traced iteration are printed instead. See README.md. *)

open Microfluidics
module Syn = Cohls.Synthesis

(* All ILP workloads search deterministically under a per-layer node
   budget, never a time budget: the explored tree, and with it every
   quality metric and work count, then depends only on the code. *)
let ilp_config ~node_budget ~domains =
  {
    Syn.default_config with
    Syn.engine =
      Cohls.Layer_solver.Ilp
        {
          options =
            {
              Lp.Branch_bound.default_options with
              Lp.Branch_bound.time_limit = None;
              node_limit = Some node_budget;
              deterministic = true;
              domains;
            };
          extra_free_slots = 1;
        };
  }

(* Budgets that keep one iteration at a few seconds. At 400 nodes per layer
   the case-1 search is still stopped by the budget and already beats the
   heuristic; at 300 it does not improve at all. *)
let case1_node_budget = 400
let random_node_budget = 50
let random_batch = 80
let random_op_count = 8

(* Random assays of >= 100 ops raise [No_device] under the default device
   cap, so the batch is many small assays. The batch's quality totals still
   vary from one seed to the next by the inputs alone; 80 assays keep that
   spread within the bounds of BENCHMARK.json (see README.md). *)
let random_assays ~seed =
  List.init random_batch (fun i ->
      Assays.Random_assay.generate ~seed:((seed * 1000) + i)
        {
          Assays.Random_assay.default_params with
          Assays.Random_assay.op_count = random_op_count;
        })

(* The paper's scaling method: replicated protocols, up to 1,120 ops. *)
let scale_assays () =
  List.map
    (fun copies -> Assay.replicate (Assays.Gene_expression.base ()) ~copies)
    [ 10; 20; 40; 80; 160 ]
  @ List.map
      (fun copies -> Assay.replicate (Assays.Rt_qpcr.base ()) ~copies)
      [ 10; 20; 50; 100 ]

type workload = {
  name : string;
  inputs : seed:int -> Assay.t list;
  config : Syn.config;
  partner : Syn.config option;
      (** a configuration that must reach the same results and node count *)
  setup_batch : int;
      (** set-ups per timed batch: enough for a batch of well over 0.1 s *)
}

let case1 ~seed:_ = [ Assays.Kinase.testcase () ]

let workloads =
  [
    {
      name = "ilp_case1";
      inputs = case1;
      config = ilp_config ~node_budget:case1_node_budget ~domains:1;
      partner = None;
      setup_batch = 600;
    };
    {
      name = "ilp_case1_d2";
      inputs = case1;
      config = ilp_config ~node_budget:case1_node_budget ~domains:2;
      partner = Some (ilp_config ~node_budget:case1_node_budget ~domains:1);
      setup_batch = 600;
    };
    {
      name = "ilp_random";
      inputs = random_assays;
      config = ilp_config ~node_budget:random_node_budget ~domains:1;
      partner = None;
      setup_batch = 12;
    };
    {
      name = "heuristic_scale";
      inputs = (fun ~seed:_ -> scale_assays ());
      config = Syn.default_config;
      partner = None;
      setup_batch = 1;
    };
  ]

let is_ilp (config : Syn.config) =
  match config.Syn.engine with
  | Cohls.Layer_solver.Ilp _ -> true
  | Cohls.Layer_solver.Heuristic -> false

let now = Telemetry.Clock.now_s
let timed = Telemetry.Clock.timed

(* Lower median: always one of the samples, so the waterfall of the median
   traced iteration adds up to the reported traced time. *)
let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.((Array.length a - 1) / 2)

(* ------------------------------------------------------------ checking *)

let attempted = ref 0
let failures = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

type outcome = (Syn.result, string) result

let synthesize config assay : outcome =
  incr attempted;
  match Telemetry.span "bench.synthesis.run" (fun () -> Syn.run ~config assay) with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let weighted (r : Syn.result) = r.Syn.final_breakdown.Cohls.Schedule.weighted
let fixed_minutes (r : Syn.result) = r.Syn.final_breakdown.Cohls.Schedule.fixed_minutes

let check_valid assays outcomes =
  List.iter2
    (fun a o ->
      let name = Assay.name a in
      match o with
      | Error e -> fail "%s: Synthesis.run raised %s" name e
      | Ok r -> (
        (match Cohls.Schedule.validate r.Syn.final with
         | Ok () -> ()
         | Error e -> fail "%s: invalid schedule: %s" name e);
        match Cohls.Layering.check r.Syn.layering with
        | Ok () -> ()
        | Error e -> fail "%s: invalid layering: %s" name e))
    assays outcomes

let oks outcomes = List.filter_map Result.to_option outcomes

(* Every iteration must reproduce the reference results exactly. *)
let check_same ~what assays reference outcomes =
  List.iter2
    (fun a (r, o) ->
      match (r, o) with
      | Ok r, Ok o
        when (weighted r, fixed_minutes r) <> (weighted o, fixed_minutes o) ->
        fail "%s: %s weighted %d, %d min differ from %d, %d min" (Assay.name a) what
          (weighted o) (fixed_minutes o) (weighted r) (fixed_minutes r)
      | _ -> ())
    assays
    (List.combine reference outcomes)

(* ------------------------------------------------------------ measuring *)

type iteration = {
  wall_s : float;
  scaled_s : float;  (** [wall_s] scaled to the nominal machine, see [Calibrate] *)
  outcomes : outcome list;
}

(* A stretch of calls lasts at least this long before the machine's speed
   is measured again: often enough to follow it, rarely enough that the
   reference adds at most a tenth to a run. *)
let stretch_s = 1.0

let run_iteration config assays =
  let rec go acc wall_s scaled_s ~before = function
    | [] -> { wall_s; scaled_s; outcomes = List.rev acc }
    | pending ->
      let t0 = now () in
      let rec take acc = function
        | a :: rest when now () -. t0 < stretch_s ->
          take (synthesize config a :: acc) rest
        | rest -> (acc, rest)
      in
      let acc, rest = take acc pending in
      let t = now () -. t0 in
      let after = Calibrate.reference_s () in
      let scaled_s = scaled_s +. Calibrate.scale ~before ~after t in
      go acc (wall_s +. t) scaled_s ~before:after rest
  in
  let it = go [] 0.0 0.0 ~before:(Calibrate.reference_s ()) assays in
  check_valid assays it.outcomes;
  it

(* Call [f] for [seconds]: at least once, and again only while the next
   call, taking as long as the last one did, is expected to end in time. *)
let repeat ~seconds f =
  let t0 = now () in
  let rec go acc =
    let started = now () in
    let acc = f () :: acc in
    let t = now () in
    if t -. t0 +. (t -. started) > seconds then List.rev acc else go acc
  in
  go []

let traced f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable f

let read_peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
  in
  scan ()

(* ------------------------------------------------------------ output *)

let print_json ~correct ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    !attempted failed
    (String.concat ", " (List.map metric metrics))

let print_metrics metrics =
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-36s %16.6f %s\n" name value unit)
    metrics

(* ------------------------------------------------------------ main *)

(* Set-up runs in a fixed number of batches of [w.setup_batch] set-ups
   each, and the median batch time per set-up, scaled to the nominal
   machine, is reported. The counts are fixed, not timed, so that the heap
   the timed iterations start from, and with it [peak_rss_mb], does not
   depend on the machine's speed. *)
let setup_batches = 5

(* Input generation plus, for the ILP engine, the heuristic results the
   ILP is compared against (which also warm the heap). *)
let set_up w ~seed =
  let last = ref ([], []) in
  let once () =
    let assays = w.inputs ~seed in
    let heuristic =
      if is_ilp w.config then
        List.map
          (fun a -> try Ok (Syn.run a) with e -> Error (Printexc.to_string e))
          assays
      else []
    in
    last := (assays, heuristic)
  in
  let before = ref (Calibrate.reference_s ()) in
  let setup_s =
    median
      (List.init setup_batches (fun _ ->
           let (), t = timed (fun () -> for _ = 1 to w.setup_batch do once () done) in
           let after = Calibrate.reference_s () in
           let scaled = Calibrate.scale ~before:!before ~after t in
           before := after;
           scaled /. float_of_int w.setup_batch))
  in
  let assays, heuristic = !last in
  (assays, heuristic, setup_s)

(* ILP against heuristic, per assay; returns how many final ILP results are
   worse. This is no correctness check: the layer solver only guarantees
   that a layer's kept schedule is no worse than the greedy one on that
   layer's model, which [Replay] checks. Later layers inherit different
   devices, and re-synthesis passes price devices differently for the two
   engines, so the assay-level result can be worse (149 of 2,400 random
   assays of seeds 1-30). *)
let ilp_worse_than_heuristic assays heuristic outcomes =
  let worse = ref 0 in
  if heuristic <> [] then
    List.iter2
      (fun a (h, o) ->
        match (h, o) with
        | Error e, _ -> fail "%s: heuristic Synthesis.run raised %s" (Assay.name a) e
        | Ok h, Ok o -> if weighted o > weighted h then incr worse
        | Ok _, Error _ -> ())
      assays (List.combine heuristic outcomes);
  !worse

(* The partner configuration must explore the same tree: same results and
   the same node count, read with telemetry on outside the timed part. *)
let check_partner w assays first partner =
  let run config =
    traced (fun () ->
        let it = run_iteration config assays in
        (it.outcomes, Telemetry.counter_value "lp.bb.nodes"))
  in
  let p_out, p_nodes = run partner and w_out, w_nodes = run w.config in
  check_same ~what:"partner" assays p_out w_out;
  check_same ~what:"partner" assays p_out first;
  if p_nodes <> w_nodes then
    fail "lp.bb.nodes %d differs from partner's %d" w_nodes p_nodes

(* Traced iterations for [seconds], the waterfall of the median one, the
   first-pass replay's times, and the per-layer metrics. *)
let traced_metrics w assays first replay ~seconds ~synth_s ~synth_wall_s =
  let runs =
    repeat ~seconds (fun () ->
        traced (fun () ->
            let it = run_iteration w.config assays in
            check_same ~what:"traced" assays first it.outcomes;
            (Profile.capture ~wall_s:it.wall_s, it.scaled_s)))
  in
  let profiles = List.map fst runs in
  let counts p = List.map (fun n -> (n, Profile.counter p n)) Profile.exact_counts in
  let reference = counts (List.hd profiles) in
  List.iter
    (fun p ->
      List.iter2
        (fun (n, a) (_, b) -> if a <> b then fail "%s changed from %d to %d" n a b)
        reference (counts p))
    profiles;
  let p =
    let synth_traced_s = median (List.map (fun p -> p.Profile.wall_s) profiles) in
    List.find (fun p -> p.Profile.wall_s = synth_traced_s) profiles
  in
  Profile.print_waterfall stdout ~workload:w.name p;
  if replay.Replay.layers > 0 then
    Printf.printf
      "  replayed %d first-pass layer models outside synth_s: build %.4f s (in \
       layer.ilp), presolve %.4f s (in lp.bb.solve), cold root LP %.4f s\n"
      replay.Replay.layers replay.Replay.build_s replay.Replay.presolve_s
      replay.Replay.root_solve_s;
  Profile.layer_metrics p
  @ [
      ("ilp_model.build_s", replay.Replay.build_s, "s");
      ("presolve.run_s", replay.Replay.presolve_s, "s");
      ("simplex.root_solve_s", replay.Replay.root_solve_s, "s");
      ("synth_wall_s", synth_wall_s, "s");
      ("synth_traced_s", p.Profile.wall_s, "s");
      ("telemetry.overhead_s", median (List.map snd runs) -. synth_s, "s");
    ]

let main ~workload ~seed ~seconds ~trace =
  let w = List.find (fun w -> w.name = workload) workloads in
  let assays, heuristic, setup_s = set_up w ~seed in
  let seconds = if trace then seconds /. 2.0 else seconds in
  (* Peak memory after the first iteration: a fixed amount of work, where
     a later reading would depend on how many iterations fit in the time. *)
  let peak_rss_mb = ref 0.0 in
  let untraced =
    repeat ~seconds (fun () ->
        let it = run_iteration w.config assays in
        if !peak_rss_mb = 0.0 then peak_rss_mb := read_peak_rss_mb ();
        it)
  in
  let first = (List.hd untraced).outcomes in
  List.iter (fun it -> check_same ~what:"repeat" assays first it.outcomes) untraced;
  let synth_s = median (List.map (fun it -> it.scaled_s) untraced) in
  let synth_wall_s = median (List.map (fun it -> it.wall_s) untraced) in
  Printf.printf
    "synthbench %s seed %d: %d untraced iterations of %d Synthesis.run calls\n" workload
    seed (List.length untraced) (List.length assays);
  let seconds_of f =
    String.concat " " (List.map (fun it -> Printf.sprintf "%.3f" (f it)) untraced)
  in
  Printf.printf "  untraced iteration seconds, wall:   %s\n"
    (seconds_of (fun it -> it.wall_s));
  Printf.printf "  untraced iteration seconds, scaled: %s\n"
    (seconds_of (fun it -> it.scaled_s));
  let worse = ilp_worse_than_heuristic assays heuristic first in
  if worse > 0 then
    Printf.printf "  note: %d of %d final ILP results are worse than the heuristic's\n"
      worse (List.length heuristic);
  Option.iter (check_partner w assays first) w.partner;
  let replay = Replay.run w.config (oks first) in
  List.iter (fail "%s") replay.Replay.worse_than_greedy;
  let total f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 (oks first)) in
  let metrics =
    if trace then
      traced_metrics w assays first replay ~seconds ~synth_s ~synth_wall_s
      @ [
          ( "ilp.final_worse_than_heuristic_share",
            Profile.iratio worse (List.length heuristic),
            "ratio" );
        ]
    else
      [
        ("setup_s", setup_s, "s");
        ("synth_s", synth_s, "s");
        ("weighted", total weighted, "obj");
        ("fixed_minutes", total fixed_minutes, "assay-min");
        ("peak_rss_mb", !peak_rss_mb, "MiB");
      ]
  in
  print_metrics metrics;
  let failed = List.length !failures in
  List.iter
    (fun msg -> prerr_endline ("synthbench: check failed: " ^ msg))
    (List.rev !failures);
  print_json ~correct:(failed = 0) ~failed:(min failed !attempted) metrics;
  if failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let names = List.map (fun w -> w.name) workloads in
  Arg.parse
    [
      ("--workload", Arg.Symbol (names, fun s -> workload := s), " workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics, not end-to-end ones");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "synthbench --workload W --seed N --seconds S --trace 0|1";
  if !workload = "" || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline
      "synthbench: --workload, a positive --seconds and --trace 0|1 are required";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
