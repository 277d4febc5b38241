(* Cost-model calibration: the C0xx lint. See the .mli for the design. *)

module Schedule = Tb_hir.Schedule
module Program = Tb_hir.Program
module Lower = Tb_lir.Lower
module Config = Tb_cpu.Config
module Cost_model = Tb_cpu.Cost_model
module Cache = Tb_cpu.Cache
module Profiler = Tb_cpu.Profiler
module Jit = Tb_vm.Jit
module Timer = Tb_util.Timer
module Stats = Tb_util.Stats
module Json = Tb_util.Json
module D = Tb_diag.Diagnostic

type tolerance = {
  event_rel_err : float;
  stall_share_abs : float;
  min_tau : float;
  top_k : int;
  max_regret : float;
}

let default_tolerance =
  {
    event_rel_err = 0.25;
    stall_share_abs = 0.15;
    min_tau = 0.6;
    top_k = 3;
    max_regret = 0.2;
  }

type observation = {
  schedule : Schedule.t;
  predicted : Cost_model.breakdown;
  predicted_workload : Cost_model.workload;
  measured_workload : Cost_model.workload;
  measured_s_per_row : float;
}

type event_error = {
  event : string;
  schedule : Schedule.t;
  predicted_per_row : float;
  measured_per_row : float;
  rel_err : float;
}

type report = {
  name : string;
  target : string;
  tol : tolerance;
  observations : observation array;
  skipped : (Schedule.t * string) list;
  tau : float;
  champion : int;
  measured_best : int;
  regret : float;
  worst_events : event_error list;
  findings : D.t list;
}

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)

let observe ~target ?(sample = 48) ?(min_time_s = 0.05) ?(min_iters = 3)
    (lowered : Lower.t) predict rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Cost_check.observe: no rows";
  (* Mirror the autotuner: the prediction is Perf.simulate's sampled
     estimate; the full-batch instrumented run below stays cold — it is
     the ground truth the extrapolation is judged against. *)
  let predicted_workload =
    Profiler.profile_sample ~target ~sample ~batch:n lowered rows
  in
  let predicted = Cost_model.estimate target predicted_workload in
  let measured_workload = Profiler.profile ~target lowered rows in
  let r =
    Timer.measure ~warmup:1 ~min_iters ~min_time_s (fun () ->
        ignore (predict rows))
  in
  {
    schedule = lowered.Lower.hir.Program.schedule;
    predicted;
    predicted_workload;
    measured_workload;
    measured_s_per_row = r.Timer.mean_s /. float_of_int n;
  }

(* ------------------------------------------------------------------ *)
(* Agreement statistics                                                *)

(* The extensive counts, as per-row rates so the sample-extrapolated and
   full-batch workloads are comparable whatever their row counts. *)
let events =
  [
    ("steps_checked", fun w -> w.Cost_model.steps_checked);
    ("steps_unchecked", fun w -> w.Cost_model.steps_unchecked);
    ("leaf_fetches", fun w -> w.Cost_model.leaf_fetches);
    ("critical_steps", fun w -> w.Cost_model.critical_steps);
    ("walks_checked", fun w -> w.Cost_model.walks_checked);
    ("walks_unrolled", fun w -> w.Cost_model.walks_unrolled);
    ("l1_accesses", fun w -> w.Cost_model.l1.Cache.accesses);
    ("l1_misses", fun w -> w.Cost_model.l1.Cache.misses);
  ]

let per_row w count =
  float_of_int count /. float_of_int (max 1 w.Cost_model.rows)

let event_error_of obs (event, field) =
  let p = per_row obs.predicted_workload (field obs.predicted_workload) in
  let m = per_row obs.measured_workload (field obs.measured_workload) in
  (* Floor the denominator at one event per row: a couple of stray cache
     misses on a tiny model is noise, not drift. *)
  let rel_err = Float.abs (p -. m) /. Float.max 1.0 m in
  {
    event;
    schedule = obs.schedule;
    predicted_per_row = p;
    measured_per_row = m;
    rel_err;
  }

(* The paper's §VI-E top-down buckets, as shares of total cycles. *)
let buckets =
  [
    ("retiring", fun b -> b.Cost_model.retiring);
    ("frontend", fun b -> b.Cost_model.frontend);
    ("bad_speculation", fun b -> b.Cost_model.bad_speculation);
    ("backend_memory", fun b -> b.Cost_model.backend_memory);
    ("backend_core", fun b -> b.Cost_model.backend_core);
  ]

let share b component = component /. Float.max 1e-9 b.Cost_model.cycles

let check ?(tol = default_tolerance) ~target ~name ?(skipped = []) obs =
  let n = Array.length obs in
  if n = 0 then invalid_arg "Cost_check.check: no observations";
  let predicted_cpr =
    Array.map (fun o -> Cost_model.cycles_per_row o.predicted o.predicted_workload) obs
  in
  let measured_spr = Array.map (fun o -> o.measured_s_per_row) obs in
  let tau = Stats.kendall_tau predicted_cpr measured_spr in
  let champion = Stats.argmin predicted_cpr in
  let measured_best = Stats.argmin measured_spr in
  let best_t = measured_spr.(measured_best) in
  let regret =
    if best_t <= 0.0 then 0.0
    else (measured_spr.(champion) -. best_t) /. best_t
  in
  let findings = ref [] in
  let emit d = findings := d :: !findings in
  (* C001: rank agreement over the grid, and the champion's regret. *)
  if n >= 2 && tau < tol.min_tau then
    emit
      (D.warningf ~level:D.Cost ~code:"C001" ~path:[ name ]
         "cost-model ranking disagrees with measured time: Kendall-tau %.2f \
          < %.2f over %d schedules"
         tau tol.min_tau n);
  let champion_rank =
    Array.fold_left
      (fun acc t -> if t < measured_spr.(champion) then acc + 1 else acc)
      0 measured_spr
  in
  if n >= 2 && (regret > tol.max_regret || champion_rank >= tol.top_k) then
    emit
      (D.warningf ~level:D.Cost ~code:"C001"
         ~path:[ name; Schedule.to_string obs.(champion).schedule ]
         "predicted champion ranks #%d measured (top-%d required), %.0f%% \
          slower than the measured best [%s]"
         (champion_rank + 1) tol.top_k (100.0 *. regret)
         (Schedule.to_string obs.(measured_best).schedule));
  (* C002: extensive-count divergence, worst offender per event. *)
  let worst_events =
    List.map
      (fun ev ->
        let errs = Array.map (fun o -> event_error_of o ev) obs in
        let worst = ref errs.(0) in
        Array.iter (fun e -> if e.rel_err > !worst.rel_err then worst := e) errs;
        let offenders =
          Array.fold_left
            (fun acc e -> if e.rel_err > tol.event_rel_err then acc + 1 else acc)
            0 errs
        in
        (!worst, offenders))
      events
  in
  List.iter
    (fun (worst, offenders) ->
      if worst.rel_err > tol.event_rel_err then
        emit
          (D.warningf ~level:D.Cost ~code:"C002"
             ~path:[ name; Schedule.to_string worst.schedule; worst.event ]
             "extrapolated %s diverges from the instrumented run: %.1f vs \
              %.1f per row (%.0f%% > %.0f%%, %d/%d schedules affected)"
             worst.event worst.predicted_per_row worst.measured_per_row
             (100.0 *. worst.rel_err)
             (100.0 *. tol.event_rel_err)
             offenders (Array.length obs)))
    worst_events;
  (* Structural fields must agree exactly between the two workloads. *)
  Array.iter
    (fun o ->
      let p = o.predicted_workload and m = o.measured_workload in
      if
        p.Cost_model.tile_size <> m.Cost_model.tile_size
        || p.Cost_model.layout <> m.Cost_model.layout
        || p.Cost_model.code_bytes <> m.Cost_model.code_bytes
        || p.Cost_model.model_bytes <> m.Cost_model.model_bytes
      then
        emit
          (D.warningf ~level:D.Cost ~code:"C002"
             ~path:[ name; Schedule.to_string o.schedule ]
             "structural workload fields disagree between the \
              extrapolated and instrumented runs (tile %d/%d, code %d/%d \
              bytes, model %d/%d bytes)"
             p.Cost_model.tile_size m.Cost_model.tile_size
             p.Cost_model.code_bytes m.Cost_model.code_bytes
             p.Cost_model.model_bytes m.Cost_model.model_bytes))
    obs;
  (* C003: the supplied breakdown's stall attribution vs the breakdown
     this target's reference model derives from the measured counts. *)
  List.iter
    (fun (bucket, field) ->
      let worst = ref None in
      Array.iter
        (fun o ->
          let reference = Cost_model.estimate target o.measured_workload in
          let delta =
            Float.abs (share o.predicted (field o.predicted) -. share reference (field reference))
          in
          match !worst with
          | Some (_, d) when d >= delta -> ()
          | _ -> worst := Some (o, delta))
        obs;
      match !worst with
      | Some (o, delta) when delta > tol.stall_share_abs ->
        let reference = Cost_model.estimate target o.measured_workload in
        emit
          (D.warningf ~level:D.Cost ~code:"C003"
             ~path:[ name; Schedule.to_string o.schedule; bucket ]
             "stall attribution drift on %s: %.0f%% of cycles predicted vs \
              %.0f%% derived from measured events (|delta| %.0f%% > %.0f%%)"
             bucket
             (100.0 *. share o.predicted (field o.predicted))
             (100.0 *. share reference (field reference))
             (100.0 *. delta)
             (100.0 *. tol.stall_share_abs))
      | _ -> ())
    buckets;
  {
    name;
    target = target.Config.name;
    tol;
    observations = obs;
    skipped;
    tau;
    champion;
    measured_best;
    regret;
    worst_events = List.map fst worst_events;
    findings = List.sort D.compare (List.rev !findings);
  }

(* ------------------------------------------------------------------ *)
(* The full loop                                                       *)

let calibrate ~target ?tol ?sample ?min_time_s ?min_iters ~compile ~name ~grid
    rows =
  let obs = ref [] and skipped = ref [] in
  List.iter
    (fun schedule ->
      match compile schedule with
      | Error msg -> skipped := (schedule, msg) :: !skipped
      | exception Invalid_argument msg -> skipped := (schedule, msg) :: !skipped
      | Ok (lowered, predict) ->
        obs :=
          observe ~target ?sample ?min_time_s ?min_iters lowered predict rows
          :: !obs)
    grid;
  check ?tol ~target ~name ~skipped:(List.rev !skipped)
    (Array.of_list (List.rev !obs))

let reduced_grid =
  let d = Schedule.default in
  [
    Schedule.scalar_baseline;
    { Schedule.scalar_baseline with loop_order = Schedule.One_tree_at_a_time };
    { Schedule.scalar_baseline with peel = true };
    {
      d with
      tile_size = 2;
      interleave = 1;
      pad_and_unroll = false;
      peel = false;
      layout = Schedule.Array_layout;
    };
    { d with tile_size = 4; interleave = 1; pad_and_unroll = false; peel = false };
    { d with interleave = 1; pad_and_unroll = false; peel = false };
    { d with interleave = 1; pad_and_unroll = false; peel = true };
    { d with interleave = 1 };
    { d with interleave = 2 };
    d;
    { d with interleave = 8 };
    { d with layout = Schedule.Array_layout };
    { d with loop_order = Schedule.One_row_at_a_time };
    { d with tiling = Schedule.Probability_based };
    {
      d with
      tiling = Schedule.Probability_based;
      loop_order = Schedule.One_row_at_a_time;
      interleave = 1;
    };
    { d with tile_size = 4 };
  ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let report_to_json r =
  let sched_name (o : observation) = Json.Str (Schedule.to_string o.schedule) in
  let obs_json (o : observation) =
    Json.Obj
      [
        ("schedule", sched_name o);
        ( "predicted_cycles_per_row",
          Json.Num (Cost_model.cycles_per_row o.predicted o.predicted_workload) );
        ("measured_us_per_row", Json.Num (o.measured_s_per_row *. 1e6));
        ( "events",
          Json.Obj
            (List.map
               (fun (name, field) ->
                 ( name,
                   Json.Obj
                     [
                       ( "predicted_per_row",
                         Json.Num
                           (per_row o.predicted_workload
                              (field o.predicted_workload)) );
                       ( "measured_per_row",
                         Json.Num
                           (per_row o.measured_workload
                              (field o.measured_workload)) );
                     ] ))
               events) );
      ]
  in
  Json.Obj
    [
      ("model", Json.Str r.name);
      ("target", Json.Str r.target);
      ("schedules", Json.Num (float_of_int (Array.length r.observations)));
      ("kendall_tau", Json.Num r.tau);
      ("top_k", Json.Num (float_of_int r.tol.top_k));
      ("regret", Json.Num r.regret);
      ("champion", sched_name r.observations.(r.champion));
      ("measured_best", sched_name r.observations.(r.measured_best));
      ("findings", Json.List (List.map D.to_json r.findings));
      ( "skipped",
        Json.List
          (List.map
             (fun (s, msg) ->
               Json.Obj
                 [
                   ("schedule", Json.Str (Schedule.to_string s));
                   ("reason", Json.Str msg);
                 ])
             r.skipped) );
      ("observations", Json.List (Array.to_list (Array.map obs_json r.observations)));
    ]

let pp_report fmt r =
  Format.fprintf fmt "calibrate %s on %s: %d schedule(s), %d skipped@."
    r.name r.target (Array.length r.observations) (List.length r.skipped);
  Format.fprintf fmt "  kendall-tau %.3f (min %.2f)@." r.tau r.tol.min_tau;
  Format.fprintf fmt "  champion      %s@."
    (Schedule.to_string r.observations.(r.champion).schedule);
  Format.fprintf fmt "  measured best %s@."
    (Schedule.to_string r.observations.(r.measured_best).schedule);
  Format.fprintf fmt "  top-%d regret %.1f%% (max %.0f%%)@." r.tol.top_k
    (100.0 *. r.regret)
    (100.0 *. r.tol.max_regret);
  List.iter
    (fun e ->
      Format.fprintf fmt "  %-15s worst rel err %5.1f%% (%.1f vs %.1f /row)@."
        e.event (100.0 *. e.rel_err) e.predicted_per_row e.measured_per_row)
    r.worst_events;
  if r.findings = [] then Format.fprintf fmt "  calibration clean@."
  else
    List.iter (fun d -> Format.fprintf fmt "  %s@." (D.to_string d)) r.findings

let report_to_string r = Format.asprintf "%a" pp_report r
