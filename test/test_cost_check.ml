(* Cost-model calibration (Tb_analysis.Cost_check): the agreement
   statistics are tested on synthetic observations where the ground truth
   is known exactly, each C00x detector on a seeded fault, and the full
   calibrate loop end to end on a small forest. *)

open Helpers
module Prng = Tb_util.Prng
module Stats = Tb_util.Stats
module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule
module Lower = Tb_lir.Lower
module Layout = Tb_lir.Layout
module Config = Tb_cpu.Config
module Cost_model = Tb_cpu.Cost_model
module Cache = Tb_cpu.Cache
module Cost_check = Tb_analysis.Cost_check
module D = Tb_diag.Diagnostic

let target = Config.intel_rocket_lake

let has_code c ds = List.exists (fun d -> d.D.code = c) ds

let in_path sub ds =
  List.exists (fun d -> List.exists (String.equal sub) d.D.path) ds

(* A tolerance that never fires: isolates the statistics from the lint. *)
let loose =
  {
    Cost_check.event_rel_err = 1e9;
    stall_share_abs = 1.0;
    min_tau = -1.1;
    top_k = max_int;
    max_regret = infinity;
  }

(* --- Kendall-tau --- *)

let test_tau_perfect () =
  check_float "agreement" 1.0
    (Stats.kendall_tau [| 1.0; 2.0; 3.0; 4.0 |] [| 10.0; 20.0; 30.0; 40.0 |]);
  check_float "inversion" (-1.0)
    (Stats.kendall_tau [| 1.0; 2.0; 3.0; 4.0 |] [| 40.0; 30.0; 20.0; 10.0 |])

let test_tau_degenerate () =
  check_float "all ties" 0.0
    (Stats.kendall_tau [| 1.0; 2.0; 3.0 |] [| 5.0; 5.0; 5.0 |]);
  check_float "singleton" 0.0 (Stats.kendall_tau [| 1.0 |] [| 2.0 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.kendall_tau: length mismatch") (fun () ->
      ignore (Stats.kendall_tau [| 1.0 |] [| 1.0; 2.0 |]))

let test_tau_partial () =
  (* One discordant pair out of three: tau = (2 - 1) / 3. *)
  let tau = Stats.kendall_tau [| 1.0; 2.0; 3.0 |] [| 1.0; 3.0; 2.0 |] in
  check_float "one swap" (1.0 /. 3.0) tau

(* --- synthetic observations --- *)

let mk_workload ?(rows = 100) ~steps ~misses () =
  let accesses = rows * 40 in
  {
    Cost_model.rows;
    walks_checked = rows * 5;
    walks_unrolled = rows * 3;
    steps_checked = rows * steps;
    steps_unchecked = rows * steps * 2;
    leaf_fetches = rows * 8;
    critical_steps = rows * steps;
    l1 = { Cache.accesses; hits = accesses - misses; misses };
    code_bytes = 4096;
    model_bytes = 65536;
    tile_size = 4;
    layout = Layout.Sparse_kind;
  }

(* An observation whose measurement is a perfect oracle: measured events
   equal the extrapolated ones and wall clock is the model's own cycle
   count at a fixed frequency. *)
let honest_obs schedule w : Cost_check.observation =
  let b = Cost_model.estimate target w in
  {
    schedule;
    predicted = b;
    predicted_workload = w;
    measured_workload = w;
    measured_s_per_row = Cost_model.cycles_per_row b w /. 3.5e9;
  }

let sched i = { Schedule.default with tile_size = 1 + (i mod 8) }

let test_clean_calibration () =
  let obs =
    Array.init 5 (fun i ->
        honest_obs (sched i) (mk_workload ~steps:(4 + (3 * i)) ~misses:(100 * i) ()))
  in
  let r = Cost_check.check ~target ~name:"clean" obs in
  check_float "tau" 1.0 r.Cost_check.tau;
  check_float "regret" 0.0 r.Cost_check.regret;
  check_int "champion = measured best" r.Cost_check.measured_best r.Cost_check.champion;
  check_bool "no findings" true (r.Cost_check.findings = []);
  List.iter
    (fun (e : Cost_check.event_error) -> check_float e.event 0.0 e.rel_err)
    r.Cost_check.worst_events

let test_c001_rank_inversion () =
  (* Predicted cost increases with steps; make the wall clock decrease, so
     the model's champion is the measured worst. *)
  let obs =
    Array.init 3 (fun i ->
        let w = mk_workload ~steps:(4 + (4 * i)) ~misses:0 () in
        let o = honest_obs (sched i) w in
        { o with Cost_check.measured_s_per_row = 1e-6 /. float_of_int (i + 1) })
  in
  let r = Cost_check.check ~target ~name:"inverted" obs in
  check_bool "tau negative" true (r.Cost_check.tau < 0.0);
  check_bool "C001 emitted" true (has_code "C001" r.Cost_check.findings);
  check_bool "regret positive" true (r.Cost_check.regret > 0.0);
  (* No event or attribution drift was planted. *)
  check_bool "no C002" false (has_code "C002" r.Cost_check.findings);
  check_bool "no C003" false (has_code "C003" r.Cost_check.findings)

let test_c002_event_divergence () =
  (* The extrapolated workload undercounts leaf fetches by 2x — the shape
     of a broken Profiler.scale factor. Single observation: the rank lint
     (which needs a grid) stays out of the way. *)
  let w = mk_workload ~steps:8 ~misses:50 () in
  let wrong =
    { w with Cost_model.leaf_fetches = w.Cost_model.leaf_fetches / 2 }
  in
  let o = honest_obs (sched 0) w in
  let o =
    {
      o with
      Cost_check.predicted_workload = wrong;
      predicted = Cost_model.estimate target wrong;
    }
  in
  let r = Cost_check.check ~target ~name:"halved" [| o |] in
  check_bool "C002 emitted" true (has_code "C002" r.Cost_check.findings);
  check_bool "names leaf_fetches" true
    (in_path "leaf_fetches" r.Cost_check.findings);
  check_bool "no C001 on a single point" false
    (has_code "C001" r.Cost_check.findings)

let test_c002_structural_mismatch () =
  let w = mk_workload ~steps:8 ~misses:0 () in
  let o = honest_obs (sched 0) w in
  let o =
    {
      o with
      Cost_check.predicted_workload =
        { w with Cost_model.code_bytes = w.Cost_model.code_bytes * 2 };
    }
  in
  let r = Cost_check.check ~target ~name:"structural" [| o |] in
  check_bool "C002 emitted" true (has_code "C002" r.Cost_check.findings)

let test_c003_stall_attribution () =
  (* The breakdown scored by the autotuner came from a target with the L1
     miss penalty zeroed out; the measured events are honest. A memory-
     bound workload then shifts its predicted cycles into other buckets. *)
  let blind = { target with Config.l1_miss_penalty = 0.0 } in
  let w = mk_workload ~steps:2 ~misses:3200 () in
  let o = honest_obs (sched 0) w in
  let o = { o with Cost_check.predicted = Cost_model.estimate blind w } in
  let r = Cost_check.check ~target ~name:"blind-l1" [| o |] in
  check_bool "C003 emitted" true (has_code "C003" r.Cost_check.findings);
  check_bool "names backend_memory" true
    (in_path "backend_memory" r.Cost_check.findings);
  (* Event counts were untouched. *)
  check_bool "no C002" false (has_code "C002" r.Cost_check.findings)

let test_check_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Cost_check.check: no observations")
    (fun () -> ignore (Cost_check.check ~target ~name:"x" [||]))

(* --- observe / calibrate end to end --- *)

let small_forest seed =
  let rng = Prng.create seed in
  Forest.random ~num_trees:12 ~max_depth:6 ~num_features:6 rng

let test_observe_fields () =
  let forest = small_forest 11 in
  let rows = random_rows (Prng.create 12) 6 96 in
  let lowered = Lower.lower forest Schedule.default in
  let o =
    Cost_check.observe ~target ~sample:32 ~min_time_s:0.0 ~min_iters:1 lowered
      (jit lowered) rows
  in
  check_int "extrapolated to the batch" 96 o.Cost_check.predicted_workload.Cost_model.rows;
  check_int "measured on the batch" 96 o.Cost_check.measured_workload.Cost_model.rows;
  check_bool "wall clock positive" true (o.Cost_check.measured_s_per_row > 0.0);
  check_bool "schedule threaded through" true (o.Cost_check.schedule = Schedule.default);
  (* Structural fields never drift between the two profiles. *)
  check_int "tile"
    o.Cost_check.measured_workload.Cost_model.tile_size
    o.Cost_check.predicted_workload.Cost_model.tile_size;
  check_int "code bytes"
    o.Cost_check.measured_workload.Cost_model.code_bytes
    o.Cost_check.predicted_workload.Cost_model.code_bytes

let test_calibrate_end_to_end () =
  let forest = small_forest 21 in
  let rows = random_rows (Prng.create 22) 6 64 in
  let rejected = { Schedule.default with tile_size = 3 } in
  let grid = [ Schedule.scalar_baseline; Schedule.default; rejected ] in
  let compile schedule =
    if schedule = rejected then Error "rejected for the test"
    else
      let lowered = Lower.lower forest schedule in
      Ok (lowered, jit lowered)
  in
  let r =
    Cost_check.calibrate ~target ~tol:loose ~sample:16 ~min_time_s:0.0
      ~min_iters:1 ~compile ~name:"e2e" ~grid rows
  in
  check_int "observations" 2 (Array.length r.Cost_check.observations);
  check_int "skipped" 1 (List.length r.Cost_check.skipped);
  check_bool "skip reason kept" true
    (List.exists (fun (_, m) -> m = "rejected for the test") r.Cost_check.skipped);
  check_bool "loose tolerance finds nothing" true (r.Cost_check.findings = []);
  (* The report serializes both ways. *)
  let js = Tb_util.Json.to_string (Cost_check.report_to_json r) in
  check_bool "json mentions model" true
    (Tb_util.Json.member "model" (Tb_util.Json.of_string js) = Tb_util.Json.Str "e2e");
  let s = Cost_check.report_to_string r in
  check_bool "summary mentions tau" true
    (String.length s > 0 &&
     (let rec find i = i + 11 <= String.length s
          && (String.sub s i 11 = "kendall-tau" || find (i + 1)) in
      find 0))

let test_explore_champion_guard () =
  let forest = small_forest 41 in
  let rows = random_rows (Prng.create 42) 6 64 in
  let result = Tb_core.Explore.greedy ~target forest rows in
  let rivals = [ Schedule.scalar_baseline; Schedule.default ] in
  let report, c001 =
    Tb_core.Explore.check_champion ~target ~sample:16 ~rivals ~tol:loose
      forest rows result
  in
  check_bool "champion observed" true
    (Array.exists
       (fun (o : Cost_check.observation) ->
         o.schedule = result.Tb_core.Explore.schedule)
       report.Cost_check.observations);
  check_bool "rivals observed" true
    (Array.length report.Cost_check.observations >= List.length rivals);
  check_bool "loose tolerance raises no rank findings" true (c001 = [])

let test_reduced_grid_is_valid () =
  check_bool "non-trivial" true (List.length Cost_check.reduced_grid >= 12);
  List.iter
    (fun s ->
      (match Schedule.validate s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid grid point %s: %s" (Schedule.to_string s) m);
      check_int "single-threaded" 1 s.Schedule.num_threads)
    Cost_check.reduced_grid;
  (* Every point must actually compile on an ordinary forest. *)
  let forest = small_forest 31 in
  List.iter
    (fun s -> ignore (Lower.lower forest s))
    Cost_check.reduced_grid

let suite =
  [
    quick "kendall-tau perfect / inverted" test_tau_perfect;
    quick "kendall-tau degenerate inputs" test_tau_degenerate;
    quick "kendall-tau partial agreement" test_tau_partial;
    quick "clean calibration has no findings" test_clean_calibration;
    quick "C001 on rank inversion" test_c001_rank_inversion;
    quick "C002 on event divergence" test_c002_event_divergence;
    quick "C002 on structural mismatch" test_c002_structural_mismatch;
    quick "C003 on stall-attribution drift" test_c003_stall_attribution;
    quick "check rejects empty input" test_check_rejects_empty;
    quick "observe fills every field" test_observe_fields;
    quick "calibrate end to end with skips" test_calibrate_end_to_end;
    quick "explore champion guard" test_explore_champion_guard;
    quick "reduced grid is valid" test_reduced_grid_is_valid;
  ]
