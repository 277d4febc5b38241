open Helpers
module Prng = Tb_util.Prng
module Forest = Tb_model.Forest
module Xgboost = Tb_baselines.Xgboost
module Treelite = Tb_baselines.Treelite
module Hummingbird = Tb_baselines.Hummingbird
module Config = Tb_cpu.Config
module Cost_model = Tb_cpu.Cost_model
module Cache = Tb_cpu.Cache

let random_setup ?(num_trees = 10) seed =
  let rng = Prng.create seed in
  let forest = Forest.random ~num_trees ~max_depth:7 ~num_features:6 rng in
  let rows = random_rows rng 6 32 in
  (forest, rows)

let xgboost_equivalence_property version seed =
  let forest, rows = random_setup seed in
  let packed = Xgboost.compile forest in
  let out = Xgboost.predict_batch packed version rows in
  let expected = Forest.predict_batch_raw forest rows in
  Array.for_all2 arrays_same_bits out expected
  || QCheck2.Test.fail_report "xgboost baseline diverges"

let treelite_equivalence_property seed =
  let forest, rows = random_setup seed in
  let compiled = Treelite.compile forest in
  let out = Treelite.predict_batch compiled rows in
  let expected = Forest.predict_batch_raw forest rows in
  Array.for_all2 arrays_same_bits out expected
  || QCheck2.Test.fail_report "treelite baseline diverges"

let hummingbird_equivalence_property seed =
  let forest, rows = random_setup ~num_trees:6 seed in
  let compiled = Hummingbird.compile forest in
  let out = Hummingbird.predict_batch compiled rows in
  let expected = Forest.predict_batch_raw forest rows in
  Array.for_all2 arrays_same_bits out expected
  || QCheck2.Test.fail_report "hummingbird baseline diverges"

let test_baselines_multiclass () =
  let rng = Prng.create 1 in
  let trees = Array.init 6 (fun _ -> Tb_model.Tree.random ~max_depth:4 ~num_features:4 rng) in
  let forest = Forest.make ~task:(Forest.Multiclass 3) ~num_features:4 trees in
  let rows = random_rows rng 4 16 in
  let expected = Forest.predict_batch_raw forest rows in
  let xg = Xgboost.predict_batch (Xgboost.compile forest) Xgboost.V15 rows in
  let tl = Treelite.predict_batch (Treelite.compile forest) rows in
  let hb = Hummingbird.predict_batch (Hummingbird.compile forest) rows in
  check_bool "xgboost" true (Array.for_all2 arrays_same_bits xg expected);
  check_bool "treelite" true (Array.for_all2 arrays_same_bits tl expected);
  check_bool "hummingbird" true
    (Array.for_all2 arrays_same_bits hb expected)

let test_xgboost_versions_agree () =
  let forest, rows = random_setup 2 in
  let packed = Xgboost.compile forest in
  let a = Xgboost.predict_batch packed Xgboost.V09 rows in
  let b = Xgboost.predict_batch packed Xgboost.V15 rows in
  check_bool "v09 == v15 output" true (Array.for_all2 arrays_same_bits a b)

let test_xgboost_v15_better_cache () =
  (* Loop interchange (the 0.9 -> 1.5 change) must reduce L1 misses on a
     model bigger than L1. *)
  let rng = Prng.create 3 in
  let forest = Forest.random ~num_trees:150 ~max_depth:7 ~num_features:6 rng in
  let rows = random_rows rng 6 64 in
  let packed = Xgboost.compile forest in
  let miss v =
    (Xgboost.profile ~target:Config.intel_rocket_lake packed v rows).Cost_model.l1.Cache.misses
  in
  check_bool "v15 fewer misses" true (miss Xgboost.V15 < miss Xgboost.V09)

let test_xgboost_memory_accounting () =
  let forest, _ = random_setup 4 in
  let packed = Xgboost.compile forest in
  let nodes = Forest.total_nodes forest + Forest.total_leaves forest in
  check_int "16B per node" (16 * nodes) (Xgboost.memory_bytes packed)

let test_treelite_code_grows_with_model () =
  let small, _ = random_setup ~num_trees:2 5 in
  let large, _ = random_setup ~num_trees:40 5 in
  check_bool "code size grows" true
    (Treelite.code_bytes (Treelite.compile large)
    > Treelite.code_bytes (Treelite.compile small))

let test_treelite_frontend_bound_on_big_model () =
  let rng = Prng.create 6 in
  let forest = Forest.random ~num_trees:300 ~max_depth:7 ~num_features:6 rng in
  let rows = random_rows rng 6 32 in
  let compiled = Treelite.compile forest in
  let w = Treelite.profile ~target:Config.intel_rocket_lake compiled rows in
  let b = Cost_model.estimate Config.intel_rocket_lake w in
  check_bool "front-end dominates"
    true
    (b.Cost_model.frontend > 0.3 *. b.Cost_model.cycles)

let test_hummingbird_macs_scale_with_model () =
  let small = Hummingbird.compile (fst (random_setup ~num_trees:2 7)) in
  let large = Hummingbird.compile (fst (random_setup ~num_trees:40 7)) in
  check_bool "macs grow" true (Hummingbird.macs_per_row large > Hummingbird.macs_per_row small)

let test_hummingbird_core_cap () =
  let t = Hummingbird.compile (fst (random_setup 8)) in
  let target = Config.intel_rocket_lake in
  let c1 = Hummingbird.cycles_per_row ~target ~threads:1 t in
  let c4 = Hummingbird.cycles_per_row ~target ~threads:4 t in
  let c16 = Hummingbird.cycles_per_row ~target ~threads:16 t in
  check_bool "some scaling" true (c4 < c1);
  (* Beyond the cap, scaling stops improving meaningfully. *)
  check_bool "capped scaling" true (c1 /. c16 <= float_of_int Hummingbird.effective_core_cap +. 0.01)

let suite =
  [
    qcheck ~name:"xgboost v0.9 == reference" seed_gen
      (xgboost_equivalence_property Xgboost.V09);
    qcheck ~name:"xgboost v1.5 == reference" seed_gen
      (xgboost_equivalence_property Xgboost.V15);
    qcheck ~name:"treelite == reference" seed_gen treelite_equivalence_property;
    qcheck ~count:60 ~name:"hummingbird == reference" seed_gen
      hummingbird_equivalence_property;
    quick "baselines multiclass" test_baselines_multiclass;
    quick "xgboost loop orders agree" test_xgboost_versions_agree;
    quick "xgboost v1.5 better cache" test_xgboost_v15_better_cache;
    quick "xgboost memory accounting" test_xgboost_memory_accounting;
    quick "treelite code grows with model" test_treelite_code_grows_with_model;
    quick "treelite front-end bound" test_treelite_frontend_bound_on_big_model;
    quick "hummingbird macs scale" test_hummingbird_macs_scale_with_model;
    quick "hummingbird core cap" test_hummingbird_core_cap;
  ]
