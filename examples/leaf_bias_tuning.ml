(* Probability-based tiling on a leaf-biased workload (paper §III-C).

   Production categorical traffic is head-heavy: most requests repeat a few
   common feature patterns. Trees trained on such data are "leaf-biased" —
   a handful of leaves receive nearly all the probability mass — and
   Algorithm 1 tiles them so the hot leaves sit behind fewer tile steps.

   Run with: dune exec examples/leaf_bias_tuning.exe *)

module Dataset = Tb_data.Dataset
module Model_stats = Tb_model.Model_stats
module Schedule = Tb_hir.Schedule
module Treebeard = Tb_core.Treebeard
module Perf = Tb_core.Perf
module Config = Tb_cpu.Config

let () =
  (* airline-ohe is the paper's most leaf-biased benchmark. *)
  let rng = Tb_util.Prng.create 7 in
  let ds = Tb_data.Generators.airline_ohe ~rows:3000 rng in
  let train, test = Dataset.split ds ~train_fraction:0.8 rng in
  let params =
    { Tb_gbt.Train.default_params with
      num_rounds = 200; max_depth = 9; learning_rate = 0.02;
      subsample = 0.5; colsample = 0.12; min_child_weight = 0.1 }
  in
  let forest = Tb_gbt.Train.fit ~params train in

  (* Leaf probabilities are estimated on the training data (paper fn. 5). *)
  let profiles = Model_stats.profile_forest forest train.Dataset.features in
  let biased =
    Array.fold_left
      (fun acc p -> if Model_stats.is_leaf_biased p ~alpha:0.075 ~beta:0.9 then acc + 1 else acc)
      0 profiles
  in
  Printf.printf "%d of %d trees are leaf-biased at <alpha=0.075, beta=0.9>\n"
    biased (Array.length profiles);

  (* Tile size 2 leaves several tile levels per tree, which is where the
     two algorithms' tilings diverge most visibly. *)
  let schedule tiling =
    { Schedule.default with
      tiling; tile_size = 2; interleave = 1; pad_and_unroll = false; peel = false }
  in
  let basic =
    Treebeard.make ~plan:(`Schedule (schedule Schedule.Basic)) ~profiles
      (`Forest forest)
  in
  let prob =
    Treebeard.make
      ~plan:(`Schedule (schedule Schedule.Probability_based))
      ~profiles (`Forest forest)
  in

  (* Compare the expected number of tile steps per walk — the §III-C
     objective probability tiling minimizes. *)
  let rows = test.Dataset.features in
  let mean_steps compiled =
    let w =
      Tb_cpu.Profiler.profile ~target:Config.intel_rocket_lake
        compiled.Treebeard.lowered (Array.sub rows 0 64)
    in
    let module C = Tb_cpu.Cost_model in
    float_of_int (w.C.steps_checked + w.C.steps_unchecked)
    /. float_of_int (w.C.walks_checked + w.C.walks_unrolled)
  in
  Printf.printf "mean tile steps per walk: basic %.2f, probability-based %.2f\n"
    (mean_steps basic) (mean_steps prob);

  (* And the simulated end-to-end effect on the Intel target. *)
  let simulate compiled =
    (Perf.simulate ~target:Config.intel_rocket_lake compiled.Treebeard.lowered rows)
      .Perf.cycles_per_row
  in
  let c_basic = simulate basic and c_prob = simulate prob in
  Printf.printf "simulated cycles/row: basic %.0f, probability-based %.0f (%.2fx)\n"
    c_basic c_prob (c_basic /. c_prob);

  (* Both compilations compute the same predictions (tree reordering
     changes the floating-point summation order, hence the tolerance). *)
  let r = Tb_model.Forest.predict_batch_raw forest rows in
  let check compiled =
    let out = Treebeard.predict_forest compiled rows in
    Array.for_all2
      (fun a b -> Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b)
      out r
  in
  Printf.printf "correct: basic %b, probability-based %b\n" (check basic) (check prob)
