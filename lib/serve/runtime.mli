(** The serving runtime: a fleet of shards behind routed admission. One
    shard is a fleet of one ([Router.create _ ~shards:1]).

    {!run_fleet} is the one serving entry point. A {!Router} partitions
    the trace by model, each live shard serves its slice with its own
    registry, metrics merge exactly across shards ({!Metrics.merge}),
    and shards sharing an artifact [cache_dir] ship compiled artifacts to
    each other through the disk tier — a model that moves after a
    rebalance hydrates on its new shard instead of recompiling
    ({!Registry.foreign_hydration_count}).

    Each shard runs admission queue → dynamic batcher → deadline-aware
    scheduler → worker pool around its registry, in two phases:

    + {e Virtual-time scheduling} (single-threaded, deterministic): walk
      the arrival trace in time order; admit each request through the
      graded shed ladder and the bounded {!Rqueue}; form batches per
      {!Batcher}'s size-or-deadline policy into the pending pool; hand
      each freed worker the pool's highest-priority batch (formation
      order under FIFO, earliest deadline first under EDF). Batch service time is charged
      from the {!Registry}'s deterministic model, so a fixed trace yields
      identical numbers on any host.
    + {e Execution} (parallel, real): the scheduled batches are executed
      on OCaml [Domain]s — one per worker — and outputs land in
      per-request slots. An equivalence check compares them bitwise
      against one direct whole-trace predictor call per model: batching,
      caching, scheduling and parallel dispatch must never change a
      result.

    The execution {!mode} decides whether execution also runs the
    {e wall clock}: in [Wall] and [Dual] modes each batch's real
    [predict] call is timed on its worker, a wall timeline is replayed
    from the virtual schedule's decisions (same batches, workers and
    formation times, measured service durations — cache misses charged
    their {e measured} compile time), and the wall latencies land in
    {!Metrics}'s parallel wall set. [Dual] additionally pairs the two
    clocks per batch into a per-model drift summary
    ({!Tb_analysis.Serve_check.model_drift}) — the input to V001/V002
    drift checking and {!Registry.calibrate}. The virtual phase never
    reads a wall measurement, so the virtual half of a dual run is
    byte-identical to a pure virtual run of the same trace — per shard
    and for the merged fleet view alike. *)

type request = {
  id : int;  (** dense 0..n-1; indexes the fleet's output slots *)
  model : string;
  row : float array;
  arrival_us : float;
}

type mode =
  | Virtual  (** deterministic simulation only (the default) *)
  | Wall  (** also time real execution and report wall metrics *)
  | Dual  (** wall metrics plus per-model wall/virtual drift *)

val mode_to_string : mode -> string

val mode_of_string : string -> (mode, string) Stdlib.result
(** ["virtual"], ["wall"], ["dual"]. *)

type config = {
  queue_capacity : int;
      (** max requests admitted but not yet dispatched to a worker *)
  batch_max : int;
  deadline_us : float;
  workers : int;
  dispatch_overhead_us : float;
      (** fixed virtual cost per batch: queue handoff + output scatter *)
  scheduling : Scheduler.policy;
      (** pending-batch dispatch order: FIFO (the default) or EDF.
          Under EDF a model with an SLO budget also stops batching at
          half its budget ({!Batcher.create}'s [deadline_us_for]). *)
  slo_us : (string * float) list;
      (** per-model end-to-end latency budgets, virtual µs; budgets feed
          EDF deadlines, per-model SLO attainment in {!Metrics} and the
          shed ladder's classes *)
  default_slo_us : float option;
      (** budget for models without an [slo_us] entry; [None] leaves
          them unscored (and last under EDF) *)
  shed_lo : float;
      (** admission-window occupancy (0..1) where graded shedding
          starts; the default 2.0 can never trigger — shedding off *)
  shed_hi : float;
      (** occupancy where every class but the tightest is shed; between
          [shed_lo] and [shed_hi] the loosest classes go first *)
  pending_cap : int;
      (** max formed-but-undispatched batches; overflow sheds the
          lowest-priority pending batch *)
  precision : Tb_core.Treebeard.precision;
      (** precision tier requested for every compile a shard
          dispatches (see {!Registry.compiled}): a quantized request
          serves the integer fast path for models that certify clean and
          falls back per model otherwise. Default [`Float]. *)
}
(** One shard's engine settings; every shard of a fleet uses the same. *)

val default_config : config
(** capacity 1024, batch 32, deadline 500µs, 2 workers, 20µs overhead,
    FIFO scheduling, no SLOs, shedding off, unbounded pending pool. *)

type batch_exec = {
  batch_id : int;
  worker : int;
  cause : Batcher.cause;
  compiled : Registry.compiled;
  tier : Registry.provenance;
      (** which registry tier answered this batch's lookup; decides the
          modeled acquire cost charged on the virtual clock ([`Hit] free,
          [`Disk] [hydrate_us], [`Compile] [compile_us]) and the measured
          cost on the wall replay *)
  requests : request array;
  formed_us : float;
  start_us : float;
  finish_us : float;
  mutable wall_predict_us : float;
      (** measured wall time of this batch's [predict] call; 0 in
          [Virtual] mode *)
}

type result = {
  outputs : float array option array;
      (** the fleet's shared output array: per request id the margin
          vector, [None] when rejected (or served by another shard) *)
  batches : batch_exec list;  (** dispatch order *)
  rejects : request list;  (** arrival order; includes shed requests *)
  metrics : Metrics.t;
  queue_stats : Rqueue.stats;
  cache_stats : Policy.stats;
  compile_count : int;
  hydration_count : int;
      (** registry disk-tier hydrations over the run (0 without a
          [cache_dir]) *)
  foreign_hydration_count : int;
      (** hydrations of artifacts this shard's registry never compiled —
          shipped in from another shard or a previous process *)
  equivalence_failures : int;
      (** requests whose served output differs bitwise from the direct
          single-call JIT prediction; 0 on a healthy run *)
  drift : Tb_analysis.Serve_check.model_drift list;
      (** per-model wall/virtual drift (registration order); empty unless
          the run was [Dual] *)
}
(** One shard's slice of a fleet run. Counters snapshot the shard
    registry's cumulative totals. *)

type fleet_result = {
  fleet_outputs : float array option array;
      (** per request id, whichever shard served it *)
  shard_results : (int * result) list;  (** ascending shard id *)
  fleet_metrics : Metrics.t;  (** {!Metrics.merge} over the shards *)
  fleet_rejects : request list;  (** arrival order across the fleet *)
  fleet_router : Router.t;
  fleet_compiles : int;
  fleet_hydrations : int;
  fleet_foreign_hydrations : int;
      (** hydrations of artifacts the hydrating shard never compiled —
          cross-shard (or cross-process) artifact shipping at work *)
  fleet_equivalence_failures : int;
}

val run_fleet :
  ?config:config ->
  ?mode:mode ->
  schedule:Tb_hir.Schedule.t ->
  router:Router.t ->
  (int * Registry.t) list ->
  request array ->
  fleet_result
(** Serve a trace across a fleet (default mode [Virtual]): the router
    partitions requests by model (preserving arrival order within a
    shard), each shard serves its slice in ascending shard-id order —
    sequentially, so a fixed trace and seed yield a byte-identical fleet
    result on any host — and the per-shard results are merged. Requests
    may arrive in any order (each shard sorts its slice by arrival time,
    stably); ids must be exactly 0..n-1. The registry list must carry
    exactly the router's live shard ids; point the registries at one
    shared [cache_dir] to let shards hydrate each other's artifacts.
    @raise Invalid_argument on malformed ids or config fields
    (non-positive knobs, [shed_hi < shed_lo], non-positive SLO budgets),
    or when the registries don't match the router's shards, and
    [Not_found] when a request names an unregistered model. *)
