(* Tests for Algorithm 1: dependency-based allocation (Fig. 4),
   resource-based eviction via min-cut (Fig. 5), and the layering
   invariants on both the paper's assays and random DAGs. *)

open Microfluidics
module L = Cohls.Layering

let check = Alcotest.check
let bool = Alcotest.bool
let int_t = Alcotest.int
let int_list = Alcotest.(list int)

let det a name = Assay.add_operation a ~duration:(Operation.Fixed 5) name

let indet a name =
  Assay.add_operation a ~duration:(Operation.Indeterminate { min_minutes = 5 }) name

(* ---------- dependency-based allocation ---------- *)

let test_single_layer_when_no_indet () =
  let a = Assay.create ~name:"det-only" in
  let x = det a "x" in
  let y = det a "y" in
  Assay.add_dependency a ~parent:x ~child:y;
  let l = L.compute a in
  check int_t "one layer" 1 (L.layer_count l);
  check int_list "all ops" [ x; y ] l.L.layers.(0).L.ops;
  check bool "check" true (L.check l = Ok ())

let test_indet_descendants_pushed () =
  (* i -> d: the descendant of an indeterminate op goes to the next layer *)
  let a = Assay.create ~name:"push" in
  let i = indet a "i" in
  let d = det a "d" in
  Assay.add_dependency a ~parent:i ~child:d;
  let l = L.compute a in
  check int_t "two layers" 2 (L.layer_count l);
  check int_list "layer0" [ i ] l.L.layers.(0).L.ops;
  check int_list "layer0 indets" [ i ] l.L.layers.(0).L.indeterminate;
  check int_list "layer1" [ d ] l.L.layers.(1).L.ops;
  check bool "check" true (L.check l = Ok ())

let test_fig4_style_selection () =
  (* Two indeterminate ops in a chain: only the one without an
     indeterminate ancestor joins the first layer. An unrelated determinate
     op stays in layer 0 (maximum-independent-set behaviour). *)
  let a = Assay.create ~name:"fig4" in
  let i1 = indet a "i1" in
  let mid = det a "mid" in
  let i2 = indet a "i2" in
  let free = det a "free" in
  Assay.add_dependency a ~parent:i1 ~child:mid;
  Assay.add_dependency a ~parent:mid ~child:i2;
  let l = L.compute a in
  check int_t "two layers" 2 (L.layer_count l);
  check int_list "layer0 keeps i1 and free op" [ i1; free ] l.L.layers.(0).L.ops;
  check int_list "layer1 gets the chain tail" [ mid; i2 ] l.L.layers.(1).L.ops;
  check int_list "i2 is layer1's indeterminate" [ i2 ] l.L.layers.(1).L.indeterminate;
  check bool "check" true (L.check l = Ok ())

let test_sibling_indets_share_layer () =
  (* Independent indeterminate ops run in parallel in one layer. *)
  let a = Assay.create ~name:"siblings" in
  let i1 = indet a "i1" in
  let i2 = indet a "i2" in
  let i3 = indet a "i3" in
  ignore (i1, i2, i3);
  let l = L.compute a in
  check int_t "one layer" 1 (L.layer_count l);
  check int_t "three indets" 3 (List.length l.L.layers.(0).L.indeterminate)

(* ---------- resource-based eviction (Fig. 5) ---------- *)

(* Fig. 5 selection: o1 (storage 1, moves nothing) is evicted before o3
   (storage 1, moves 2 ancestors) and before o2 (storage 2). *)
let fig5_assay () =
  let a = Assay.create ~name:"fig5" in
  let a1 = det a "a1" in
  let o1 = indet a "o1" in
  Assay.add_dependency a ~parent:a1 ~child:o1;
  let a2 = det a "a2" in
  let a3 = det a "a3" in
  let o2 = indet a "o2" in
  Assay.add_dependency a ~parent:a2 ~child:o2;
  Assay.add_dependency a ~parent:a3 ~child:o2;
  let a4 = det a "a4" in
  let a5 = det a "a5" in
  let o3 = indet a "o3" in
  Assay.add_dependency a ~parent:a4 ~child:a5;
  Assay.add_dependency a ~parent:a5 ~child:o3;
  Assay.add_dependency a ~parent:a4 ~child:o3;
  (a, o1, o2, o3)

let test_fig5_eviction_order () =
  let a, o1, o2, o3 = fig5_assay () in
  (* threshold 2: exactly one indeterminate op must leave; it must be o1
     (cheapest cut, fewest moved ancestors) *)
  let l = L.compute ~threshold:2 a in
  check bool "o1 evicted" true (l.L.layer_of_op.(o1) > 0);
  check int_t "o2 stays" 0 l.L.layer_of_op.(o2);
  check int_t "o3 stays" 0 l.L.layer_of_op.(o3);
  check bool "o1's ancestor stays (its output is stored)" true
    (l.L.layer_of_op.(o1) > 0);
  check bool "check" true (L.check l = Ok ())

let test_fig5_eviction_to_one () =
  let a, o1, o2, o3 = fig5_assay () in
  (* threshold 1: o1 goes first, then o3 (cut cost 1 via moving its
     ancestors beats o2's cost 2); o2 remains *)
  let l = L.compute ~threshold:1 a in
  check int_t "o2 is the survivor" 0 l.L.layer_of_op.(o2);
  check bool "o1 evicted" true (l.L.layer_of_op.(o1) > 0);
  check bool "o3 evicted" true (l.L.layer_of_op.(o3) > 0);
  check int_t "layer0 has exactly 1 indet" 1
    (List.length l.L.layers.(0).L.indeterminate);
  check bool "check" true (L.check l = Ok ())

let test_eviction_storage_recorded () =
  let a, o1, _, _ = fig5_assay () in
  let l = L.compute ~threshold:2 a in
  (* a1 stays in layer 0 while o1 moved: the a1 -> o1 transfer is stored *)
  let stored = l.L.layers.(0).L.stored_transfers in
  check bool "a1->o1 stored" true (List.exists (fun (_, c) -> c = o1) stored)

let test_threshold_validation () =
  let a = Assay.create ~name:"t" in
  ignore (det a "x");
  Alcotest.check_raises "threshold 0"
    (Invalid_argument "Layering.compute: threshold must be >= 1") (fun () ->
      ignore (L.compute ~threshold:0 a))

(* ---------- paper test cases ---------- *)

let test_case2_structure () =
  let l = L.compute (Assays.Gene_expression.testcase ()) in
  check int_t "two layers" 2 (L.layer_count l);
  check int_t "layer0 = 10 captures" 10 (List.length l.L.layers.(0).L.ops);
  check int_t "layer0 all indet" 10 (List.length l.L.layers.(0).L.indeterminate);
  check int_t "layer1 = 60 det ops" 60 (List.length l.L.layers.(1).L.ops);
  check int_t "layer1 no indets" 0 (List.length l.L.layers.(1).L.indeterminate);
  check bool "check" true (L.check l = Ok ())

let test_case3_structure () =
  let l = L.compute (Assays.Rt_qpcr.testcase ()) in
  (* 20 indeterminate captures with threshold 10: three layers as in the
     paper's 603m+I1+I2 *)
  check int_t "three layers" 3 (L.layer_count l);
  check int_t "layer0 = 10 captures" 10 (List.length l.L.layers.(0).L.indeterminate);
  check int_t "layer1 = 10 captures" 10 (List.length l.L.layers.(1).L.indeterminate);
  check int_t "layer2 no indets" 0 (List.length l.L.layers.(2).L.indeterminate);
  check int_t "all 120 ops covered" 120
    (Array.fold_left (fun acc l -> acc + List.length l.L.ops) 0 l.L.layers);
  check bool "check" true (L.check l = Ok ())

let test_case1_single_layer () =
  let l = L.compute (Assays.Kinase.testcase ()) in
  check int_t "one layer (no indets)" 1 (L.layer_count l);
  check bool "check" true (L.check l = Ok ())

let test_threshold_sweep_case3 () =
  (* a smaller threshold forces more layers, never fewer *)
  let a = Assays.Rt_qpcr.testcase () in
  let counts =
    List.map (fun t -> L.layer_count (L.compute ~threshold:t a)) [ 2; 5; 10; 20 ]
  in
  (match counts with
   | [ c2; c5; c10; c20 ] ->
     check bool "monotone" true (c2 >= c5 && c5 >= c10 && c10 >= c20);
     check int_t "threshold 20 gives 2 layers" 2 c20
   | _ -> Alcotest.fail "unexpected");
  List.iter
    (fun t -> check bool "valid" true (L.check (L.compute ~threshold:t a) = Ok ()))
    [ 2; 5; 10; 20 ]

(* ---------- properties on random assays ---------- *)

let arb_assay =
  QCheck.make
    QCheck.Gen.(
      pair (int_range 1 99999) (int_range 2 40) >>= fun (seed, n) ->
      float_range 0.0 0.5 >>= fun indet_frac ->
      return (seed, n, indet_frac))
    ~print:(fun (seed, n, f) -> Printf.sprintf "seed=%d n=%d indet=%.2f" seed n f)

let layering_of (seed, n, indet_frac) =
  let params =
    { Assays.Random_assay.default_params with
      Assays.Random_assay.op_count = n;
      indeterminate_fraction = indet_frac }
  in
  let a = Assays.Random_assay.generate ~seed params in
  (a, L.compute ~threshold:3 a)

let prop_layering_invariants =
  QCheck.Test.make ~name:"layering invariants on random assays" ~count:200 arb_assay
    (fun spec ->
      let _, l = layering_of spec in
      L.check ~strict:false l = Ok ())

let prop_layering_partitions =
  QCheck.Test.make ~name:"layers partition the operation set" ~count:200 arb_assay
    (fun spec ->
      let a, l = layering_of spec in
      let n = Assay.operation_count a in
      let covered =
        Array.fold_left (fun acc lay -> acc + List.length lay.L.ops) 0 l.L.layers
      in
      covered = n && Array.for_all (fun x -> x >= 0) l.L.layer_of_op)

let prop_indet_descendants_later =
  QCheck.Test.make ~name:"descendants of indeterminate ops are strictly later"
    ~count:200 arb_assay (fun spec ->
      let a, l = layering_of spec in
      let g = Assay.dependency_graph a in
      let ops = Assay.operations a in
      let ok = ref true in
      Flowgraph.Digraph.iter_edges
        (fun u v ->
          if Operation.is_indeterminate ops.(u) && l.L.layer_of_op.(u) >= l.L.layer_of_op.(v)
          then ok := false)
        g;
      !ok)

let prop_deterministic =
  QCheck.Test.make ~name:"layering is deterministic" ~count:50 arb_assay (fun spec ->
      let _, l1 = layering_of spec in
      let _, l2 = layering_of spec in
      Array.for_all2
        (fun (a : L.layer) (b : L.layer) -> a.L.ops = b.L.ops)
        l1.L.layers l2.L.layers)

(* ---------- differential against the set-based oracle ---------- *)

let same_layering (a : L.t) (b : L.t) =
  let key (l : L.layer) = (l.L.ops, l.L.indeterminate, l.L.stored_transfers) in
  Array.map key a.L.layers = Array.map key b.L.layers
  && a.L.layer_of_op = b.L.layer_of_op

let arb_differential =
  QCheck.make
    QCheck.Gen.(
      quad (int_range 1 99999) (int_range 8 60) (oneofl [ 0.2; 0.5 ])
        (pair (oneofl [ 1; 2; 3; 10 ])
           (oneof [ return L.Smallest_id; map (fun s -> L.Seeded s) (int_range 0 999) ])))
    ~print:(fun (seed, n, f, (t, c)) ->
      Printf.sprintf "seed=%d n=%d indet=%.1f threshold=%d choice=%s" seed n f t
        (match c with L.Smallest_id -> "Smallest_id" | L.Seeded s -> Printf.sprintf "Seeded %d" s))

let prop_matches_oracle =
  QCheck.Test.make ~name:"compute matches the set-based oracle" ~count:400
    arb_differential (fun (seed, n, indet_frac, (threshold, choice)) ->
      let a =
        Assays.Random_assay.generate ~seed
          { Assays.Random_assay.default_params with
            Assays.Random_assay.op_count = n;
            indeterminate_fraction = indet_frac }
      in
      same_layering
        (L.compute ~threshold ~choice a)
        (Layering_oracle.compute ~threshold ~choice a))

(* Replicated protocols are the paper's scaling method; thresholds below the
   replica count force long eviction cascades. *)
let test_replicated_match_oracle () =
  List.iter
    (fun (name, a) ->
      List.iter
        (fun (threshold, choice) ->
          check bool
            (Printf.sprintf "%s threshold %d" name threshold)
            true
            (same_layering
               (L.compute ~threshold ~choice a)
               (Layering_oracle.compute ~threshold ~choice a)))
        [ (1, L.Smallest_id); (3, L.Seeded 7); (10, L.Smallest_id); (10, L.Seeded 123) ])
    [
      ("gene expression x4", Assay.replicate (Assays.Gene_expression.base ()) ~copies:4);
      ("rt-qpcr x6", Assay.replicate (Assays.Rt_qpcr.base ()) ~copies:6);
      ("kinase x3", Assay.replicate (Assays.Kinase.testcase ()) ~copies:3);
    ]

(* Layer count, storage units and an MD5 of the layer op lists of the
   heuristic-scale assays (replicated gene expression and RT-qPCR, 60 to
   1,120 ops) at the default threshold, pinned from the set-based
   implementation. *)
let scale_golden =
  [
    ("gene_expression", 10, 2, 10, "e069ad39a159bca9adf4cabb5c7f1fb3");
    ("gene_expression", 20, 3, 20, "dfa835630905941d80aebd09793155c4");
    ("gene_expression", 40, 5, 40, "142c7ff97e4050d16cbf0a1f4c4ff003");
    ("gene_expression", 80, 9, 80, "efaf7b4f7f9515c92bb9f2c635c42e61");
    ("gene_expression", 160, 17, 160, "f7d9db222d35cfa727b54dea1f78e8f1");
    ("rt_qpcr", 10, 2, 10, "af1e66d2c14ee1835b3753f8f8691c0b");
    ("rt_qpcr", 20, 3, 20, "8a33f784fc88226b4bc0cfde3cd086fa");
    ("rt_qpcr", 50, 6, 50, "1717ff47ce30621b399ee7114aaa2f22");
    ("rt_qpcr", 100, 11, 100, "a4196a8e1aee6827f31841008ceb2ea4");
  ]

let ops_digest (l : L.t) =
  Array.to_list l.L.layers
  |> List.map (fun (ly : L.layer) -> String.concat "," (List.map string_of_int ly.L.ops))
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let test_scale_golden () =
  List.iter
    (fun (name, copies, layers, storage, digest) ->
      let base =
        if name = "gene_expression" then Assays.Gene_expression.base ()
        else Assays.Rt_qpcr.base ()
      in
      let l = L.compute (Assay.replicate base ~copies) in
      let what = Printf.sprintf "%s x%d" name copies in
      check int_t (what ^ " layers") layers (L.layer_count l);
      check int_t (what ^ " storage units") storage (L.storage_units l);
      check Alcotest.string (what ^ " op digest") digest (ops_digest l))
    scale_golden

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "layering"
    [
      ( "dependency-based",
        [
          Alcotest.test_case "single layer without indets" `Quick
            test_single_layer_when_no_indet;
          Alcotest.test_case "indet descendants pushed" `Quick
            test_indet_descendants_pushed;
          Alcotest.test_case "Fig. 4 selection" `Quick test_fig4_style_selection;
          Alcotest.test_case "sibling indets share layer" `Quick
            test_sibling_indets_share_layer;
        ] );
      ( "resource-based",
        [
          Alcotest.test_case "Fig. 5 eviction order" `Quick test_fig5_eviction_order;
          Alcotest.test_case "Fig. 5 eviction to one" `Quick test_fig5_eviction_to_one;
          Alcotest.test_case "stored transfers recorded" `Quick
            test_eviction_storage_recorded;
          Alcotest.test_case "threshold validation" `Quick test_threshold_validation;
        ] );
      ( "paper-cases",
        [
          Alcotest.test_case "case 1: single layer" `Quick test_case1_single_layer;
          Alcotest.test_case "case 2: 10+60" `Quick test_case2_structure;
          Alcotest.test_case "case 3: 3 layers" `Quick test_case3_structure;
          Alcotest.test_case "threshold sweep" `Quick test_threshold_sweep_case3;
        ] );
      ( "differential",
        [
          Alcotest.test_case "replicated assays match the oracle" `Quick
            test_replicated_match_oracle;
          Alcotest.test_case "heuristic-scale golden layerings" `Quick
            test_scale_golden;
        ] );
      ( "props",
        qsuite
          [
            prop_layering_invariants;
            prop_layering_partitions;
            prop_indet_descendants_later;
            prop_deterministic;
            prop_matches_oracle;
          ] );
    ]
