open Helpers
module Prng = Tb_util.Prng
module Forest = Tb_model.Forest
module Model_stats = Tb_model.Model_stats
module Schedule = Tb_hir.Schedule
module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Pack = Tb_lir.Pack
module Jit = Tb_vm.Jit
module Pool = Tb_vm.Pool
module Numeric = Tb_analysis.Numeric
module Profiler = Tb_cpu.Profiler
module Config = Tb_cpu.Config
module Cost_model = Tb_cpu.Cost_model
module Cache = Tb_cpu.Cache

(* The central semantic property of the whole compiler: every combination
   of schedule knobs produces a predictor equal to the reference. *)

let random_schedule rng =
  {
    Schedule.scalar_baseline with
    tile_size = 1 + Prng.int rng 8;
    tiling =
      (if Prng.bool rng then Schedule.Basic else Schedule.Probability_based);
    loop_order =
      (if Prng.bool rng then Schedule.One_tree_at_a_time
       else Schedule.One_row_at_a_time);
    pad_and_unroll = Prng.bool rng;
    peel = Prng.bool rng;
    interleave = 1 lsl Prng.int rng 4;
    layout = (if Prng.bool rng then Schedule.Sparse_layout else Schedule.Array_layout);
    num_threads = 1 + Prng.int rng 4;
  }

let jit_equivalence_property seed =
  let rng = Prng.create seed in
  let forest = Forest.random ~num_trees:(2 + Prng.int rng 12) ~max_depth:7 ~num_features:6 rng in
  let schedule = random_schedule rng in
  let rows = random_rows rng 6 (1 + Prng.int rng 40) in
  let profiles =
    if Prng.bool rng then Some (Model_stats.profile_forest forest rows) else None
  in
  let lp = Lower.lower ?profiles forest schedule in
  let predict = jit lp in
  let out = predict rows in
  let expected = Forest.predict_batch_raw forest rows in
  (Array.for_all2 (fun a b -> arrays_close a b) out expected)
  || QCheck2.Test.fail_reportf "JIT diverges: %s" (Schedule.to_string schedule)

let test_jit_multiclass () =
  let rng = Prng.create 11 in
  let trees = Array.init 9 (fun _ -> Tb_model.Tree.random ~max_depth:5 ~num_features:5 rng) in
  let forest = Forest.make ~task:(Forest.Multiclass 3) ~num_features:5 trees in
  let rows = random_rows rng 5 64 in
  List.iter
    (fun schedule ->
      let predict = jit (Lower.lower forest schedule) in
      let out = predict rows in
      let expected = Forest.predict_batch_raw forest rows in
      check_bool "multiclass equal" true (Array.for_all2 arrays_close out expected))
    [ Schedule.scalar_baseline; Schedule.default ]

let test_jit_empty_batch () =
  let forest = Forest.random ~num_trees:3 (Prng.create 12) in
  let predict = jit (Lower.lower forest Schedule.default) in
  check_int "empty output" 0 (Array.length (predict [||]))

let test_jit_batch_not_multiple_of_interleave () =
  let rng = Prng.create 13 in
  let forest = Forest.random ~num_trees:5 ~num_features:6 rng in
  let schedule = { Schedule.default with interleave = 8 } in
  let predict = jit (Lower.lower forest schedule) in
  (* 13 rows: 8 + 5 remainder. *)
  let rows = random_rows rng 6 13 in
  let out = predict rows in
  let expected = Forest.predict_batch_raw forest rows in
  check_bool "remainder handled" true (Array.for_all2 arrays_close out expected)

(* Threaded predictors split the batch with Mir.row_partition and only
   change which domain runs each range, so every tier must agree with its
   single-thread predictor bit for bit — whatever the batch leaves empty. *)
let parallel_batches = [ 0; 1; 2; 3; 13; 257 ]

let float_predictors forest schedule threads =
  let lp = Lower.lower forest (Schedule.with_threads schedule threads) in
  (jit_single_thread lp, jit lp)

(* A certified int16 lowering of [forest] at [threads]: the same pack
   instantiated single-thread and threaded. *)
let int16_predictors forest threads =
  let cert = Numeric.certify ~tolerance:1e12 ~width:Numeric.I16 forest in
  check_bool "int16 plan does not overflow" false
    (List.exists (fun d -> d.Tb_diag.Diagnostic.code = "N001") cert.Numeric.findings);
  let lowered =
    Lower.lower ~quant:(Test_quant.qspec_of_plan cert.Numeric.plan) forest
      (Schedule.with_threads Schedule.default threads)
  in
  let pk = Pack.of_lower ~quant:(Test_quant.pack_quant cert 0) lowered in
  (Jit.instantiate_single_thread pk, Jit.instantiate pk)

let bitwise_outputs a b =
  Array.length a = Array.length b && Array.for_all2 Test_quant.bitwise_eq a b

let test_jit_parallel_matches_sequential () =
  let rng = Prng.create 14 in
  let forest = Forest.random ~num_trees:10 ~num_features:6 rng in
  let rows = random_rows rng 6 257 in
  let tiers =
    [
      ("float tree-major", float_predictors forest Schedule.default);
      ( "float row-major",
        float_predictors forest
          { Schedule.default with loop_order = Schedule.One_row_at_a_time } );
      ("int16", int16_predictors forest);
    ]
  in
  List.iter
    (fun (tier, predictors) ->
      List.iter
        (fun threads ->
          let seq, par = predictors threads in
          List.iter
            (fun batch ->
              let batch_rows = Array.sub rows 0 batch in
              check_bool
                (Printf.sprintf "%s: %d threads, %d rows" tier threads batch)
                true
                (bitwise_outputs (seq batch_rows) (par batch_rows)))
            parallel_batches)
        [ 2; 3; 8 ])
    tiers

let test_jit_parallel_more_threads_than_rows () =
  let rng = Prng.create 15 in
  let forest = Forest.random ~num_trees:4 ~num_features:6 rng in
  let rows = random_rows rng 6 3 in
  let out = jit (Lower.lower forest (Schedule.with_threads Schedule.default 8)) rows in
  let expected = Forest.predict_batch_raw forest rows in
  check_bool "tiny batch" true (Array.for_all2 arrays_close out expected)

let test_jit_single_leaf_forest () =
  let forest =
    Forest.make ~task:Forest.Regression ~num_features:1
      [| Tb_model.Tree.Leaf 2.0; Tb_model.Tree.Leaf 3.0 |]
  in
  List.iter
    (fun schedule ->
      let out = jit (Lower.lower forest schedule) [| [| 0.0 |] |] in
      check_float "constant forest" 5.0 out.(0).(0))
    [ Schedule.scalar_baseline; Schedule.default ]

(* A call allocates its outputs and one cursor buffer per row range, and
   nothing per tree: walks return leaf indices instead of boxed floats,
   build no closure over the row, and jams share the range's buffer. The
   budget is a few words per row over the outputs, whatever the tree
   count. The 256-row calls run row jams, except on the row-major
   schedule; the 1- and 3-row calls are shorter than the default
   interleave and run tree jams. *)
let test_jit_allocation_per_call () =
  let rng = Prng.create 16 in
  let forest = Forest.random ~num_trees:64 ~num_features:6 rng in
  let all_rows = random_rows rng 6 256 in
  List.iter
    (fun (name, schedule) ->
      let predict = jit_single_thread (Lower.lower forest schedule) in
      List.iter
        (fun n ->
          let rows = Array.sub all_rows 0 n in
          let budget = (n * (Forest.num_outputs forest + 4)) + 256 in
          ignore (predict rows);
          let before = Gc.minor_words () in
          let out = predict rows in
          let words = Gc.minor_words () -. before in
          check_bool
            (Printf.sprintf "%s, %d rows: %.0f minor words <= %d" name n words budget)
            true
            (words <= float_of_int budget);
          check_bool
            (Printf.sprintf "%s, %d rows: equals the reference" name n)
            true
            (Array.for_all2 arrays_close out (Forest.predict_batch_raw forest rows)))
        [ 256; 1; 3 ])
    [
      ("default", Schedule.default);
      ("default, interleave 1", { Schedule.default with interleave = 1 });
      ( "row-major",
        { Schedule.default with loop_order = Schedule.One_row_at_a_time } );
      ( "array layout, tile size 2, no padding",
        {
          Schedule.default with
          layout = Schedule.Array_layout;
          tile_size = 2;
          pad_and_unroll = false;
        } );
      ("scalar baseline", Schedule.scalar_baseline);
    ]

(* The domain pool behind threaded predictors *)

let test_pool_reraises_after_every_task () =
  (* The caller's own task fails first and fast; the pool's tasks are
     still running when it does. *)
  let finished = Array.make 4 false in
  let task i () =
    Unix.sleepf (if i = 0 then 0.005 else 0.05);
    if i <= 1 then failwith (Printf.sprintf "task %d" i);
    finished.(i) <- true
  in
  (match Pool.run (Array.init 4 task) with
  | () -> Alcotest.fail "the raising tasks were swallowed"
  | exception Failure m ->
    check_bool "a task's own exception" true (m = "task 0" || m = "task 1"));
  check_bool "every other task finished before the raise" true
    (finished.(2) && finished.(3));
  let ran = Atomic.make 0 in
  Pool.run (Array.init 4 (fun _ () -> Atomic.incr ran));
  check_int "the pool serves the next call" 4 (Atomic.get ran)

let test_jit_partition_exception_reaches_caller () =
  let rng = Prng.create 16 in
  let forest = Forest.random ~num_trees:6 ~num_features:6 rng in
  let seq, par = float_predictors forest Schedule.default 2 in
  let rows = random_rows rng 6 16 in
  (* A row too short to walk, in the second partition. *)
  let bad = Array.mapi (fun i r -> if i = 12 then [||] else r) rows in
  check_bool "second partition's error raised in the caller" true
    (match par bad with _ -> false | exception Invalid_argument _ -> true);
  check_bool "next call correct" true (bitwise_outputs (seq rows) (par rows))

let test_pool_concurrent_callers () =
  let rng = Prng.create 17 in
  let forest = Forest.random ~num_trees:10 ~num_features:6 rng in
  let seq, par = float_predictors forest Schedule.default 3 in
  let batches = Array.init 4 (fun _ -> random_rows rng 6 40) in
  let callers =
    Array.map
      (fun rows ->
        Domain.spawn (fun () ->
            let want = seq rows in
            let ok = ref true in
            for _ = 1 to 25 do
              ok := !ok && bitwise_outputs want (par rows)
            done;
            !ok))
      batches
  in
  Array.iteri
    (fun i d -> check_bool (Printf.sprintf "caller %d" i) true (Domain.join d))
    callers

let test_pool_nested_calls () =
  let rng = Prng.create 18 in
  let forest = Forest.random ~num_trees:10 ~num_features:6 rng in
  let seq, par = float_predictors forest Schedule.default 4 in
  let batches = Array.init 3 (fun _ -> random_rows rng 6 33) in
  let got = Array.make 3 [||] in
  (* Every task is itself a threaded call, so tasks queue behind tasks. *)
  Pool.run (Array.init 3 (fun i () -> got.(i) <- par batches.(i)));
  Array.iteri
    (fun i rows ->
      check_bool (Printf.sprintf "nested call %d" i) true
        (bitwise_outputs (seq rows) got.(i)))
    batches

(* pool_child.exe runs a threaded predictor, so its pool has live idle
   workers when main returns; the process must still exit at once. *)
let test_pool_child_exits () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "pool_child.exe" in
  if not (Sys.file_exists exe) then Alcotest.failf "%s not built" exe;
  let pid = Unix.create_process exe [| exe |] Unix.stdin Unix.stdout Unix.stderr in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "child still running 10 s after start"
    | _, status -> status
  in
  check_bool "child exited cleanly" true (wait () = Unix.WEXITED 0)

(* Profiler *)

let profile_of ?(schedule = Schedule.default) ?(rows = 32) seed =
  let rng = Prng.create seed in
  let forest = Forest.random ~num_trees:10 ~max_depth:7 ~num_features:6 rng in
  let lp = Lower.lower forest schedule in
  let data = random_rows rng 6 rows in
  (lp, Profiler.profile ~target:Config.intel_rocket_lake lp data)

let test_profiler_counts_walks () =
  let _, w = profile_of ~rows:32 21 in
  check_int "one walk per (tree,row)" (10 * 32)
    (w.Cost_model.walks_checked + w.Cost_model.walks_unrolled);
  check_int "one leaf fetch per walk" (10 * 32) w.Cost_model.leaf_fetches

let test_profiler_steps_positive () =
  let _, w = profile_of 22 in
  check_bool "steps counted" true
    (w.Cost_model.steps_checked + w.Cost_model.steps_unchecked > 0);
  check_bool "cache accessed" true (w.Cost_model.l1.Cache.accesses > 0)

let test_profiler_unrolled_schedule_has_unchecked_steps () =
  let _, w =
    profile_of ~schedule:{ Schedule.default with interleave = 1 } 23
  in
  check_bool "unrolled steps exist" true (w.Cost_model.steps_unchecked > 0)

let test_profiler_scalar_baseline_all_checked () =
  let _, w = profile_of ~schedule:Schedule.scalar_baseline 24 in
  check_int "no unrolled walks" 0 w.Cost_model.walks_unrolled;
  check_int "no unchecked steps" 0 w.Cost_model.steps_unchecked

let test_profiler_interleave_reduces_critical_steps () =
  let base = { Schedule.default with pad_and_unroll = false; peel = false } in
  let _, w1 = profile_of ~schedule:{ base with interleave = 1 } 25 in
  let _, w8 = profile_of ~schedule:{ base with interleave = 8 } 25 in
  check_int "same total steps" w1.Cost_model.steps_checked w8.Cost_model.steps_checked;
  check_bool "jam shortens critical path" true
    (w8.Cost_model.critical_steps < w1.Cost_model.critical_steps);
  check_bool "critical at least total/8" true
    (w8.Cost_model.critical_steps * 8 >= w1.Cost_model.critical_steps)

let test_profiler_tree_major_improves_cache () =
  (* One-tree-at-a-time reuses the tree across rows: strictly fewer misses
     than row-major on a model larger than L1. *)
  let rng = Prng.create 26 in
  let forest = Forest.random ~num_trees:120 ~max_depth:7 ~num_features:6 rng in
  let data = random_rows rng 6 64 in
  let miss order =
    let lp =
      Lower.lower forest { Schedule.scalar_baseline with loop_order = order }
    in
    (Profiler.profile ~target:Config.intel_rocket_lake lp data).Cost_model.l1.Cache.misses
  in
  check_bool "tree-major fewer misses" true
    (miss Schedule.One_tree_at_a_time < miss Schedule.One_row_at_a_time)

let test_profiler_scale () =
  let _, w = profile_of 27 in
  let w2 = Profiler.scale w 2.0 in
  check_int "rows doubled" (2 * w.Cost_model.rows) w2.Cost_model.rows;
  check_int "misses doubled" (2 * w.Cost_model.l1.Cache.misses)
    w2.Cost_model.l1.Cache.misses;
  check_int "tile size unchanged" w.Cost_model.tile_size w2.Cost_model.tile_size

let test_profiler_extrapolate_closes_miss_gap () =
  (* Tree-major over a model larger than L1: the per-batch model stream is
     a fixed miss cost, so linear scaling of a 48-row sample overstates a
     256-row batch's misses severalfold (the C002 shape). The affine
     two-point fit must land within the C002 tolerance of the instrumented
     cold run, and strictly beat linear scaling. *)
  let rng = Prng.create 29 in
  let forest = Forest.random ~num_trees:120 ~max_depth:7 ~num_features:6 rng in
  let data = random_rows rng 6 256 in
  let sched = { Schedule.default with loop_order = Schedule.One_tree_at_a_time } in
  let lp = Lower.lower forest sched in
  let target = Config.intel_rocket_lake in
  let truth = Profiler.profile ~target lp data in
  let w1 = Profiler.profile ~target lp (Array.sub data 0 48) in
  let w2 = Profiler.profile ~target lp (Array.sub data 0 96) in
  let affine = Profiler.extrapolate w1 w2 ~rows:256 in
  let linear = Profiler.scale w1 (256.0 /. 48.0) in
  let rel w =
    let m = float_of_int w.Cost_model.l1.Cache.misses in
    let t = float_of_int truth.Cost_model.l1.Cache.misses in
    Float.abs (m -. t) /. t
  in
  check_int "rows" 256 affine.Cost_model.rows;
  check_bool "affine within C002 tolerance" true (rel affine < 0.25);
  check_bool "affine beats linear" true (rel affine < rel linear);
  check_bool "misses <= accesses" true
    (affine.Cost_model.l1.Cache.misses <= affine.Cost_model.l1.Cache.accesses);
  check_int "hits consistent"
    (affine.Cost_model.l1.Cache.accesses - affine.Cost_model.l1.Cache.misses)
    affine.Cost_model.l1.Cache.hits

let test_profiler_extrapolate_rejects_bad_points () =
  let _, w = profile_of ~rows:32 30 in
  let small = { w with Cost_model.rows = 16 } in
  check_bool "equal rows rejected" true
    (match Profiler.extrapolate w w ~rows:64 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "order matters" true
    (match Profiler.extrapolate w small ~rows:64 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_profiler_deterministic () =
  (* Same program, same rows -> the exact same workload, cache state and
     all. The calibration lint (Cost_check) relies on this: any predicted/
     measured divergence must come from extrapolation, never from the
     profiler itself. *)
  let rng = Prng.create 28 in
  let forest = Forest.random ~num_trees:10 ~max_depth:7 ~num_features:6 rng in
  let data = random_rows rng 6 48 in
  List.iter
    (fun schedule ->
      let lp = Lower.lower forest schedule in
      let w1 = Profiler.profile ~target:Config.intel_rocket_lake lp data in
      let w2 = Profiler.profile ~target:Config.intel_rocket_lake lp data in
      check_bool (Schedule.to_string schedule) true (w1 = w2))
    [ Schedule.scalar_baseline; Schedule.default;
      { Schedule.default with layout = Schedule.Array_layout } ]

let profiler_scale_property seed =
  let rng = Prng.create seed in
  let schedule = random_schedule rng in
  let _, w = profile_of ~schedule ~rows:(8 + Prng.int rng 24) seed in
  let k = 1 + Prng.int rng 9 in
  let w' = Profiler.scale w (float_of_int k) in
  (* Extensive counts are multiplied exactly (integer factor, so no
     rounding slack); intensive/structural fields are untouched. *)
  w'.Cost_model.rows = k * w.Cost_model.rows
  && w'.Cost_model.walks_checked = k * w.Cost_model.walks_checked
  && w'.Cost_model.walks_unrolled = k * w.Cost_model.walks_unrolled
  && w'.Cost_model.steps_checked = k * w.Cost_model.steps_checked
  && w'.Cost_model.steps_unchecked = k * w.Cost_model.steps_unchecked
  && w'.Cost_model.leaf_fetches = k * w.Cost_model.leaf_fetches
  && w'.Cost_model.critical_steps = k * w.Cost_model.critical_steps
  && w'.Cost_model.l1.Cache.accesses = k * w.Cost_model.l1.Cache.accesses
  && w'.Cost_model.l1.Cache.misses = k * w.Cost_model.l1.Cache.misses
  && w'.Cost_model.l1.Cache.hits = k * w.Cost_model.l1.Cache.hits
  && w'.Cost_model.tile_size = w.Cost_model.tile_size
  && w'.Cost_model.layout = w.Cost_model.layout
  && w'.Cost_model.code_bytes = w.Cost_model.code_bytes
  && w'.Cost_model.model_bytes = w.Cost_model.model_bytes

(* Cost model / cache / multicore *)

let test_cache_basics () =
  let c = Cache.create ~line_bytes:64 ~ways:2 ~size_bytes:1024 () in
  check_bool "first access misses" false (Cache.access c 0);
  check_bool "second access hits" true (Cache.access c 32);
  (* 8 sets; addresses 0, 1024, 2048 map to set 0 (line 0,16,32... wait
     1024/64=16 lines, 16 mod 8 = 0). Two ways: third distinct line evicts
     LRU. *)
  ignore (Cache.access c 1024);
  ignore (Cache.access c 2048);
  check_bool "original line evicted" false (Cache.access c 0)

let test_cache_stats_consistent () =
  let c = Cache.create ~size_bytes:4096 () in
  for i = 0 to 999 do
    ignore (Cache.access c (i * 8))
  done;
  let s = Cache.stats c in
  check_int "accesses" 1000 s.Cache.accesses;
  check_int "hits+misses" 1000 (s.Cache.hits + s.Cache.misses);
  Cache.reset c;
  check_int "reset" 0 (Cache.stats c).Cache.accesses

let test_cost_model_interleave_cuts_core_stalls () =
  let base = { Schedule.default with pad_and_unroll = false; peel = false } in
  let breakdown il seed =
    let lp, w = profile_of ~schedule:{ base with interleave = il } seed in
    ignore lp;
    Cost_model.estimate Config.intel_rocket_lake w
  in
  let b1 = breakdown 1 30 and b8 = breakdown 8 30 in
  check_bool "interleaving reduces core stalls" true
    (b8.Cost_model.backend_core < b1.Cost_model.backend_core);
  check_bool "interleaving reduces cycles" true (b8.Cost_model.cycles < b1.Cost_model.cycles)

let test_cost_model_gather_hurts_amd () =
  let lp, w = profile_of ~schedule:{ Schedule.default with tile_size = 8 } 31 in
  ignore lp;
  let intel = Cost_model.estimate Config.intel_rocket_lake w in
  let amd = Cost_model.estimate Config.amd_ryzen7 w in
  check_bool "amd pays more for gathers" true
    (amd.Cost_model.cycles > intel.Cost_model.cycles)

let test_cost_model_scalar_has_bad_speculation () =
  let _, w = profile_of ~schedule:Schedule.scalar_baseline 32 in
  let b = Cost_model.estimate Config.intel_rocket_lake w in
  check_bool "mispredicts charged" true (b.Cost_model.bad_speculation > 0.0)

let test_cost_model_frontend_kicks_in_on_huge_code () =
  let _, w = profile_of 33 in
  let small = Cost_model.estimate Config.intel_rocket_lake w in
  let huge =
    Cost_model.estimate Config.intel_rocket_lake
      { w with Cost_model.code_bytes = 4 * 1024 * 1024 }
  in
  check_float "no frontend stalls on small code" 0.0 small.Cost_model.frontend;
  check_bool "frontend stalls on huge code" true (huge.Cost_model.frontend > 0.0)

let test_multicore_speedup_monotone () =
  let cfg = Config.intel_rocket_lake in
  let s n = Tb_cpu.Multicore.speedup cfg ~threads:n () in
  check_float "1 thread" 1.0 (s 1);
  check_bool "monotone" true (s 2 > s 1 && s 4 > s 2 && s 8 > s 4 && s 16 > s 8);
  check_bool "smt bounded" true (s 16 < 16.0);
  check_bool "8 cores near 8x" true (s 8 > 6.0)

let test_multicore_effective_core_cap () =
  let cfg = Config.intel_rocket_lake in
  let capped = Tb_cpu.Multicore.speedup cfg ~max_effective_cores:3 ~threads:16 () in
  check_bool "cap respected" true (capped <= 3.0)

let suite =
  [
    qcheck ~count:150 ~name:"JIT == reference for random schedules" seed_gen
      jit_equivalence_property;
    quick "jit multiclass" test_jit_multiclass;
    quick "jit empty batch" test_jit_empty_batch;
    quick "jit interleave remainder" test_jit_batch_not_multiple_of_interleave;
    quick "jit parallel == sequential" test_jit_parallel_matches_sequential;
    quick "jit more threads than rows" test_jit_parallel_more_threads_than_rows;
    quick "jit constant forest" test_jit_single_leaf_forest;
    quick "jit allocates nothing per tree" test_jit_allocation_per_call;
    quick "pool re-raises after every task" test_pool_reraises_after_every_task;
    quick "jit partition error reaches the caller"
      test_jit_partition_exception_reaches_caller;
    quick "pool concurrent callers" test_pool_concurrent_callers;
    quick "pool nested calls" test_pool_nested_calls;
    quick "pool child process exits" test_pool_child_exits;
    quick "profiler counts walks" test_profiler_counts_walks;
    quick "profiler counts steps and cache" test_profiler_steps_positive;
    quick "profiler sees unrolled steps" test_profiler_unrolled_schedule_has_unchecked_steps;
    quick "profiler scalar all checked" test_profiler_scalar_baseline_all_checked;
    quick "interleave shortens critical path" test_profiler_interleave_reduces_critical_steps;
    quick "tree-major improves cache" test_profiler_tree_major_improves_cache;
    quick "profiler scaling" test_profiler_scale;
    quick "affine extrapolation closes miss gap" test_profiler_extrapolate_closes_miss_gap;
    quick "extrapolation rejects bad points" test_profiler_extrapolate_rejects_bad_points;
    quick "profiler is deterministic" test_profiler_deterministic;
    qcheck ~count:75 ~name:"scale multiplies extensive counts exactly"
      seed_gen profiler_scale_property;
    quick "cache basics" test_cache_basics;
    quick "cache stats consistent" test_cache_stats_consistent;
    quick "interleaving cuts core stalls" test_cost_model_interleave_cuts_core_stalls;
    quick "gather hurts amd" test_cost_model_gather_hurts_amd;
    quick "scalar pays bad speculation" test_cost_model_scalar_has_bad_speculation;
    quick "frontend stalls on huge code" test_cost_model_frontend_kicks_in_on_huge_code;
    quick "multicore speedup monotone" test_multicore_speedup_monotone;
    quick "multicore effective-core cap" test_multicore_effective_core_cap;
  ]
