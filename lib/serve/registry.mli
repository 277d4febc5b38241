(** Model registry + two-tier compiled-predictor cache.

    Serving hot-swaps models out of a zoo, and a Treebeard compile
    (tiling, reordering, lowering, layout) is far too slow to sit on the
    request path of every batch. The registry keeps the source forests and
    two cache tiers keyed by [(model, canonical schedule, target)]:

    - a bounded in-memory {!Policy} tier of instantiated predictors, so
      repeated dispatches of a hot model hit the cache;
    - optionally (when created with [?cache_dir]) an on-disk
      {!Artifact} store of packed artifacts ({!Tb_lir.Pack}), so a cold
      or evicted entry — and, crucially, a {e warm restart} of a fresh
      process — hydrates by decode + {!Tb_vm.Jit.instantiate} instead of
      recompiling. Every fresh compile writes its artifact back.

    {!compiled} reports which tier answered as a {!provenance}. Any disk
    failure (I/O, a structured [A00x] decode error, metadata mismatch) is
    a miss that falls back to a fresh compile — see {!artifact_errors}.

    Serving-level parallelism replaces the schedule's row-loop threads: a
    worker owns a whole core, so every schedule is normalized to
    [num_threads = 1] and instantiated with
    {!Tb_vm.Jit.instantiate_single_thread}. Each compiled entry also
    carries a deterministic service-time model ([us_per_row], from
    {!Tb_core.Perf.simulate} on the registered sample rows — persisted
    uncalibrated in the artifact's metadata so hydration never touches the
    simulator — and modeled [compile_us] / [hydrate_us]) that the
    virtual-clock simulator charges instead of wall time, keeping every
    run reproducible; plus the {e measured} wall-clock costs
    ([wall_compile_us], [wall_instantiate_us]), which the dual-clock mode
    compares against the model.

    {!calibrate} closes the loop: given the drift a dual-clock run
    measured ({!Tb_analysis.Serve_check.model_drift}), it refits the
    modeled costs — a per-model service scale and a global compile scale —
    rescaling both the cached entries (in place) and every future
    compile. *)

type provenance = [ `Hit | `Disk | `Compile ]
(** Which cache tier satisfied a {!compiled} request: the in-memory
    tier, the on-disk artifact store, or a fresh compile. *)

val provenance_string : provenance -> string

type compiled = {
  model : string;
  schedule : Tb_hir.Schedule.t;  (** normalized: [num_threads = 1] *)
  tier : Tb_core.Treebeard.tier;
      (** the precision tier this entry actually serves — [`Float] for a
          float compile or a quantized request whose certificate was
          refuted, [`Int8]/[`Int16] for the integer fast path *)
  artifact : Tb_lir.Pack.t;
      (** the packed form this entry was instantiated from (for [`Compile]
          entries, the pack just constructed and written back to disk) *)
  predict : float array array -> float array array;
      (** single-thread instantiated closure *)
  mutable us_per_row : float;
      (** deterministic per-row service time (simulated cycles at the
          target's nominal clock), times any calibrated service scale *)
  mutable compile_us : float;
      (** modeled full-compilation cost, charged to a batch that misses
          both tiers; times any calibrated compile scale *)
  hydrate_us : float;
      (** modeled disk-hydration (decode + instantiate) cost, charged to a
          batch answered by the disk tier — far below [compile_us] *)
  wall_compile_us : float;
      (** measured wall-clock cost of building this entry, microseconds:
          the sum of the {!Tb_core.Passman.run} stage times (lowering,
          the quantized stage pair, packing, instantiation) for a
          [`Compile] entry, read + decode + instantiation for a [`Disk]
          one. Excludes the service-time simulation (a serving-layer
          concern). *)
  wall_instantiate_us : float;
      (** measured wall-clock cost of closure instantiation alone — the
          part both tiers share; for a [`Compile] entry, the [instantiate]
          stage's time *)
}

type t

val create :
  ?target:Tb_cpu.Config.t ->
  ?policy:Policy.kind ->
  ?capacity:int ->
  ?cache_dir:string ->
  ?cache_max_bytes:int ->
  unit ->
  t
(** Defaults: Intel Rocket Lake, LRU, capacity 8 compiled entries, no
    disk tier. [cache_dir] enables the on-disk artifact store (created,
    parents included, if absent). [cache_max_bytes] caps the store's
    total size: after every artifact write the registry runs
    {!Artifact.gc}, evicting oldest-mtime files until under the cap.
    @raise Invalid_argument when [cache_max_bytes < 0]. *)

val register :
  t ->
  name:string ->
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  ?sample_rows:float array array ->
  Tb_model.Forest.t ->
  unit
(** Add (or replace) a model. [profiles] enable probability-based tiling;
    [sample_rows] feed the service-time model (default: 48 deterministic
    gaussian rows seeded from the model name). *)

val models : t -> string list
(** Registration order. *)

val forest : t -> string -> Tb_model.Forest.t
(** @raise Not_found for unregistered names. *)

val compiled :
  ?precision:Tb_core.Treebeard.precision ->
  t ->
  model:string ->
  schedule:Tb_hir.Schedule.t ->
  compiled * provenance
(** Get-or-hydrate-or-compile; the provenance names the tier that
    answered ([`Hit] in-memory, [`Disk] artifact store, [`Compile]
    fresh). [precision] (default [`Float]) requests the integer fast
    path: the model is certified once per (model, request) — the
    certificate is memoized — and every compile runs
    {!Tb_core.Passman.run}, which checks the quantized stage pair on that
    schedule's lowering. A refuted certificate or a refuted lowering
    degrades to the float tier, recorded in {!precision_fallbacks}. The
    {e resolved} tier is part of the cache key (and therefore of the
    artifact filename), so float and quantized entries never share a
    cache line or a file, and a fallback is stored under the plain float
    key.
    The schedule is normalized before keying — [num_threads]
    clamped to 1 (each worker owns its core) and
    {!Tb_hir.Schedule.canonicalize} applied with the model's tree count
    (so e.g. a row-major interleave factor beyond the forest shares the
    entry of the clamped factor) — so schedules differing only in fields
    the compiled artifact cannot depend on share one entry and one
    compile. On a memory miss the inserted entry may evict another per
    the policy; a fresh compile also writes its artifact to the disk
    store (when enabled), and any disk-tier failure falls back to a
    fresh compile.
    @raise Not_found for unregistered names. *)

(** {2 Calibration} *)

type calibration = {
  service_scale : (string * float) list;
      (** per-model multiplicative correction to [us_per_row] *)
  compile_scale : float option;
      (** global multiplicative correction to [compile_us] *)
}

val calibration_of_drift :
  Tb_analysis.Serve_check.model_drift list -> calibration
(** Fit a calibration from a dual-clock run's measured drift: each
    model's service scale is its Σwall/Σvirtual ratio, and the compile
    scale is the miss-count-weighted mean of the per-model compile
    ratios (absent when the run measured no compile). Scales of
    non-positive or non-finite ratios are dropped. *)

val calibrate : t -> calibration -> unit
(** Apply a calibration: fold the scales into the registry's correction
    state (so future compiles are scaled) and rescale the already-cached
    entries' [us_per_row] / [compile_us] in place ({!Policy.iter} — no
    eviction-policy or hit-statistic side effects). Calibrations compose
    multiplicatively; because a drift ratio is measured against the
    {e currently} modeled costs, repeated measure-calibrate rounds
    converge toward ratio 1. *)

val calibration_to_json : calibration -> Tb_util.Json.t

val cache_stats : t -> Policy.stats
val cache_policy : t -> Policy.kind

val cache_dir : t -> string option
(** The disk tier's directory, when one is enabled. *)

val compile_count : t -> int
(** Total fresh compiles performed (misses of both tiers). *)

val hydration_count : t -> int
(** Total disk-tier hydrations (memory misses answered by a stored
    artifact). *)

val foreign_hydration_count : t -> int
(** Hydrations of keys this registry instance never compiled itself — the
    artifact was produced by another shard sharing the store, or by a
    previous process (warm restart). Evidence that artifact shipping, not
    recompilation, satisfied the dispatch. *)

val gc_removed_count : t -> int
(** Artifacts evicted by the [cache_max_bytes] garbage collector. *)

val clamp_warnings : t -> (string * string) list
(** [(model, warning)] for every schedule whose [num_threads] the
    registry normalized away, newest first. *)

val artifact_errors : t -> (string * string) list
(** [(model, error)] for every disk-tier failure the registry fell back
    from — read errors, structured [A00x] decode rejections, metadata
    mismatches, failed writes — newest first. Absent files are normal
    cold misses, not errors. *)

val precision_fallbacks : t -> (string * string) list
(** [(model, findings)] for every quantized-precision request that
    resolved to the float tier — the certificate was refuted
    (N001/N003/N004) or the quantized stage pair found a divergence
    (T005) — newest first. One entry per refuted (model, request)
    certificate, matching the certificate memo, plus one per (model,
    request, schedule) whose lowering the stage pair refuted — that
    refutation is memoized too, so later requests for the schedule go
    straight to its float entry. *)
