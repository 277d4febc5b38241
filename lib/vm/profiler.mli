(** Instrumented execution: runs the lowered program over a row sample and
    produces the exact dynamic event counts ({!Tb_cpu.Cost_model.workload})
    the cost model consumes.

    The profiler mirrors the JIT's iteration structure — loop order,
    interleaving (jam sets), walk specialization — and feeds every memory
    access of the §V-A walk (threshold/feature vector loads, row gathers,
    shape-id/LUT/child-pointer loads, leaf fetches) through a simulated L1
    data cache with the target's geometry. A deliberately simple address
    map lays the model buffers and the input rows out in a flat address
    space. *)

val profile :
  target:Tb_cpu.Config.t ->
  ?warm_start:bool ->
  Tb_lir.Lower.t ->
  float array array ->
  Tb_cpu.Cost_model.workload
(** [profile ~target lowered rows] — [rows] is typically a modest sample
    (48–256 rows); use {!scale} to extrapolate to a full batch.

    [warm_start] (default [false]) primes the simulated L1 with one
    identical pass before counting, so the reported miss rate is the
    steady-state rate rather than cold-cache compulsory misses — set it
    whenever the result will be {!scale}d up to a larger batch, where
    compulsory misses would otherwise be extrapolated linearly. *)

val scale : Tb_cpu.Cost_model.workload -> float -> Tb_cpu.Cost_model.workload
(** Scale all extensive counts by a factor (event rates are linear in the
    number of rows once the cache is warm). *)

val extrapolate :
  Tb_cpu.Cost_model.workload ->
  Tb_cpu.Cost_model.workload ->
  rows:int ->
  Tb_cpu.Cost_model.workload
(** [extrapolate w1 w2 ~rows] — affine two-point extrapolation from two
    cold profiles of the same program over nested row prefixes
    ([w1.rows < w2.rows]).

    Event totals over a batch are affine in the row count, [a + b*n]: the
    fixed term [a] carries the per-batch costs (compulsory code/model
    misses, and under tree-major order the one streaming pass over a
    model larger than L1), while [b] is the steady per-row rate. Linear
    {!scale} folds [a] into the rate and overstates a small sample by the
    batch/sample ratio — the dominant source of Cost_check C002 l1_misses
    divergence. Fitting the line through two sample sizes recovers [a]
    and [b] separately, so the prediction matches an instrumented cold
    full-batch run. Counts are clamped non-negative and [hits] is derived
    as [accesses - misses]; structural fields are taken from [w2].

    Raises [Invalid_argument] unless [1 <= w1.rows < w2.rows]. *)

val profile_sample :
  target:Tb_cpu.Config.t ->
  sample:int ->
  batch:int ->
  Tb_lir.Lower.t ->
  float array array ->
  Tb_cpu.Cost_model.workload
(** The workload of a [batch]-row run, estimated from the first [sample]
    of [rows]: {!extrapolate} through cold profiles of the first
    [sample] and the first [2 * sample] rows (clamped to the rows
    given). A sample that is the whole batch is profiled as is; when
    [rows] hold no second point, a [warm_start] profile of the sample is
    {!scale}d instead. The one sampled estimate behind
    {!Tb_core.Perf.simulate} and {!Tb_analysis.Cost_check.observe}.
    @raise Invalid_argument on empty [rows]. *)
