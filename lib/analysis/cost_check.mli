(** Cost-model calibration: cross-validate {!Tb_cpu.Cost_model} against
    the dynamic event counts {!Tb_vm.Profiler} actually observes and the
    wall clock of the JIT backend, over a grid of schedules.

    The whole Table II search ({!Tb_core.Explore}) is only as good as the
    cost model's {e ranking} of candidate schedules, and the cost model is
    only as good as the workload counts it is fed — which, inside the
    autotuner, are extrapolated from a small row sample. This module
    measures both links of that chain for a (model, target, grid) triple:

    - {e event-count agreement}: per-event relative error between the
      sample-extrapolated workload the autotuner scores and a full-batch
      instrumented run ([C002] beyond tolerance);
    - {e stall-attribution agreement}: the supplied breakdown's top-down
      bucket shares (retiring / front-end / bad speculation / back-end
      memory / back-end core — the paper's §VI-E VTune buckets) against
      the breakdown recomputed from the measured counts ([C003]);
    - {e rank agreement}: Kendall-τ between predicted cycles-per-row and
      measured wall-clock time-per-row over the grid, plus top-k regret —
      how much slower the cost model's champion runs than the measured
      best ([C001]).

    Findings are structured {!Tb_diag.Diagnostic}s in the [C0xx] family at
    level [Cost], all [Warning] severity: a calibration miss is advisory
    (the compiler is still correct), but the [calibrate] CLI and the CI
    smoke job can fail on them with [--strict].

    Compilation is injected (the [compile] callback) so callers choose the
    pipeline: the CLI and {!Tb_core.Explore} pass the verified
    {!Tb_core.Passman} pipeline; tests may pass {!Tb_lir.Lower.lower}
    directly. (This module cannot name [Passman] itself — [tb_core]
    depends on [tb_analysis].) *)

type tolerance = {
  event_rel_err : float;
      (** max per-row relative error on extensive counts before [C002]
          (default 0.25) *)
  stall_share_abs : float;
      (** max absolute difference in a stall bucket's share of total
          cycles before [C003] (default 0.15) *)
  min_tau : float;  (** min Kendall-τ before [C001] (default 0.6) *)
  top_k : int;  (** champion must rank in the measured top-k (default 3) *)
  max_regret : float;
      (** max (measured champion time - measured best) / measured best
          before [C001] (default 0.2) *)
}

val default_tolerance : tolerance

type observation = {
  schedule : Tb_hir.Schedule.t;
  predicted : Tb_cpu.Cost_model.breakdown;
      (** what the autotuner scores: cost model over the
          sample-extrapolated workload *)
  predicted_workload : Tb_cpu.Cost_model.workload;
      (** sample run extrapolated to the full batch
          ({!Tb_vm.Profiler.profile_sample}) *)
  measured_workload : Tb_cpu.Cost_model.workload;
      (** instrumented run over the full batch — the event ground truth *)
  measured_s_per_row : float;
      (** JIT wall clock per row ({!Tb_util.Timer.measure}) *)
}

type event_error = {
  event : string;  (** e.g. ["l1_misses"] *)
  schedule : Tb_hir.Schedule.t;
  predicted_per_row : float;
  measured_per_row : float;
  rel_err : float;
}

type report = {
  name : string;  (** model name the grid was calibrated on *)
  target : string;
  tol : tolerance;
  observations : observation array;
  skipped : (Tb_hir.Schedule.t * string) list;
      (** grid points the compile callback rejected *)
  tau : float;
      (** Kendall-τ, predicted cycles/row vs measured s/row over the grid *)
  champion : int;  (** index of the predicted-best observation *)
  measured_best : int;  (** index of the measured-best observation *)
  regret : float;
      (** measured slowdown of the champion over the measured best *)
  worst_events : event_error list;
      (** per event name, the observation with the largest relative
          error *)
  findings : Tb_diag.Diagnostic.t list;  (** [C001]/[C002]/[C003] *)
}

val observe :
  target:Tb_cpu.Config.t ->
  ?sample:int ->
  ?min_time_s:float ->
  ?min_iters:int ->
  Tb_lir.Lower.t ->
  (float array array -> float array array) ->
  float array array ->
  observation
(** Profile a compiled program both ways (sample of [sample] rows, default
    48, scaled to the batch; and the full batch) and wall-clock its
    predictor on the batch. [min_time_s] (default 0.05) / [min_iters]
    (default 3) bound the timing loop so full-grid sweeps stay
    tractable. *)

val check :
  ?tol:tolerance ->
  target:Tb_cpu.Config.t ->
  name:string ->
  ?skipped:(Tb_hir.Schedule.t * string) list ->
  observation array ->
  report
(** Pure agreement statistics over already-collected observations (no
    compilation, no timing) — the piece negative tests drive with seeded
    cost-model mutations. @raise Invalid_argument on an empty array. *)

val calibrate :
  target:Tb_cpu.Config.t ->
  ?tol:tolerance ->
  ?sample:int ->
  ?min_time_s:float ->
  ?min_iters:int ->
  compile:
    (Tb_hir.Schedule.t ->
    (Tb_lir.Lower.t * (float array array -> float array array), string) result) ->
  name:string ->
  grid:Tb_hir.Schedule.t list ->
  float array array ->
  report
(** The full loop: compile every grid schedule through [compile], observe
    each (skipping schedules the callback rejects), and {!check}.
    @raise Invalid_argument if no grid schedule compiles. *)

val reduced_grid : Tb_hir.Schedule.t list
(** A ~16-point single-threaded slice of the Table II space covering every
    optimization axis (loop order, tile size, tiling kind, padding /
    peeling, interleaving, layout) — the default grid for the [calibrate]
    CLI and the CI smoke job, where the full 256-point grid is too slow. *)

val report_to_json : report -> Tb_util.Json.t

val pp_report : Format.formatter -> report -> unit
(** Human-readable summary: τ, champion vs measured best, regret, worst
    per-event errors and the findings list. *)

val report_to_string : report -> string
