(** Deterministic trace simulation: arrival processes → {!Runtime.run_fleet}
    → JSON report. One shard ([shards = 1], the default) is a fleet of
    one.

    Everything is derived from the PRNG seed and the configuration — in
    the default [Virtual] mode the report contains no wall-clock times, so
    the same seed produces a byte-identical report on any machine (the
    acceptance criterion for [treebeard serve-sim]). In [Wall]/[Dual]
    modes ({!Runtime.mode}) the report additionally carries measured wall
    metrics (and, for [Dual], a per-shard drift section); the virtual
    fields are still byte-identical across same-seed runs, and
    [fleet_report_to_json ~virtual_only:true] extracts exactly that
    deterministic half. *)

type arrival_kind =
  | Poisson  (** exponential inter-arrival gaps at [rate_rps] *)
  | Burst of int
      (** bursts of [n] back-to-back requests; burst starts are Poisson at
          [rate_rps / n], preserving the average rate *)
  | Ramp
      (** linearly increasing intensity over the trace: 0 at t=0 up to
          [2 × rate_rps] at the end, same average rate *)

val arrival_kind_to_string : arrival_kind -> string

val arrival_kind_of_string : string -> (arrival_kind, string) Stdlib.result
(** ["poisson"], ["burst"] / ["burst:<n>"] (default n = 8), ["ramp"]. *)

type popularity =
  | Uniform  (** weighted choice by the specs' [weight] fields *)
  | Zipf of float
      (** Zipfian skew over declaration order — the first model is the
          hottest, P(rank k) ∝ 1/(k+1)^θ; [weight]s are ignored. The
          shape serving fleets actually see, and the regime where
          affinity routing's cache locality pays. *)

val popularity_to_string : popularity -> string

val popularity_of_string : string -> (popularity, string) Stdlib.result
(** ["uniform"], ["zipf"] / ["zipf:<theta>"] (default θ = 1). *)

type model_spec = {
  name : string;
  forest : Tb_model.Forest.t;
  profiles : Tb_model.Model_stats.tree_profile array option;
  pool : float array array;
      (** rows sampled (with replacement) to build requests *)
  weight : int;
      (** relative request frequency (≥ 1); a skewed mix is how serving
          caches see hot and cold models *)
  slo_us : float option;
      (** per-model end-to-end latency budget (virtual µs): feeds EDF
          deadlines, SLO attainment scoring and the shed ladder *)
}

type config = {
  arrival : arrival_kind;
  rate_rps : float;  (** average request rate, requests/second *)
  num_requests : int;
  seed : int;
  popularity : popularity;  (** model-choice distribution *)
  schedule : Tb_hir.Schedule.t;
  runtime : Runtime.config;
  mode : Runtime.mode;  (** virtual / wall / dual execution *)
  shards : int;  (** fleet size (≥ 1) *)
  routing : Router.policy;  (** fleet admission routing *)
  cache_policy : Policy.kind;
  cache_capacity : int;
  cache_dir : string option;
      (** registry on-disk artifact store; [None] = memory tier only. In
          a fleet every shard shares it — the artifact-shipping channel *)
  cache_max_bytes : int option;
      (** artifact-store size cap ({!Registry.create}) *)
  target : Tb_cpu.Config.t;
}

val default_config : config
(** Poisson at 50k rps, 2000 requests, seed 42, uniform popularity,
    default schedule and runtime config, virtual mode, 1 shard with
    affinity routing, LRU cache of 8, Intel Rocket Lake target. *)

val gen_arrivals :
  Tb_util.Prng.t -> arrival_kind -> rate_rps:float -> n:int -> float array
(** [n] non-decreasing arrival times in virtual microseconds starting at
    0. Exposed for tests. *)

val gen_requests :
  Tb_util.Prng.t -> config -> model_spec list -> Runtime.request array
(** The full request trace: arrivals plus popularity-driven model and
    row choices, all from the one PRNG. Generated before any routing, so
    the trace depends only on the seed — resharding re-partitions the
    same requests. Exposed for tests. *)

type fleet_report = {
  fleet_config_json : Tb_util.Json.t;
  fleet : Runtime.fleet_result;
  fleet_per_model : (string * int) list;
      (** completed request count per model, fleet-wide *)
}

val run_fleet :
  ?calibration:Registry.calibration -> config -> model_spec list -> fleet_report
(** Build one {!Registry} per shard (every model registered on each —
    compilation stays lazy; all sharing [cache_dir]), generate the trace
    (model choice and row choice are drawn from the same seeded PRNG as
    the arrival times) and serve it across [config.shards] shards behind
    a [config.routing] router. [calibration] (typically fitted from a
    previous dual run's drift via {!Registry.calibration_of_drift}) is
    applied to every fresh registry before any compile, so the run's
    modeled costs are the corrected ones.
    @raise Invalid_argument on an empty model list, a model with an
    empty row pool, or [shards < 1]. *)

val fleet_report_to_json : ?virtual_only:bool -> fleet_report -> Tb_util.Json.t
(** The serve-sim report: config echo, the router, the merged fleet
    metrics (counts, latency percentiles, batch statistics, throughput),
    a per-shard breakdown (metrics, queue/cache stats, compiles /
    hydrations / {e foreign} hydrations, the shard's ["precision_tiers"]
    map of which tier — float/int8/int16 — served each model, and in
    dual mode its ["drift"] section), fleet totals, per-model completion
    counts and the equivalence flag. [~virtual_only:true] omits every
    wall sub-object and drift section, leaving exactly the deterministic
    virtual report (used for determinism diffs of wall and dual runs). *)
