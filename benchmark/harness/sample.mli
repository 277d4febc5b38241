(** Raw timing samples and the statistics the benchmark reports from
    them. Every percentile is computed from the raw samples
    ({!Tb_util.Stats.percentile}, linear interpolation): the serving
    runtime's [Stats.Histogram] buckets are ~15% wide, too coarse for a
    10% regression bound. *)

type t
(** A growable buffer of samples. *)

val create : unit -> t
val add : t -> float -> unit
val length : t -> int
val to_array : t -> float array

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)

val p99 : float array -> float
(** @raise Invalid_argument on an empty array. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank xs q]: the [max 1 (ceil (q n))]-th smallest sample —
    the rank rule of [Tb_util.Stats.Histogram.quantile].
    @raise Invalid_argument on an empty array. *)

val geomean : float list -> float
(** @raise Invalid_argument on an empty list or a non-positive value. *)

val tail_rank : int -> int
(** The 1-based ascending rank, among [n] samples, of the tail: p90 by
    nearest rank from 100 samples on; below that the highest percentile
    with ten samples beyond it (rank [n - 10]), and never below the
    median. *)

val cells_p50_tail : float array list -> float * float * float
(** The typical operation time of cells whose operations differ in size
    (one sample array per cell): [(p50, tail, q)]. [p50] is the
    geometric mean of the cells' medians. [tail] is [p50] times the
    {!tail_rank} sample of every sample divided by its own cell's
    median, pooled over the cells, so the tail has the samples of every
    cell behind it; [q] is that rank's quantile.
    @raise Invalid_argument on an empty list or an empty cell. *)

val affine_fit : (float * float) list -> float * float
(** [affine_fit [(n, y); ...]] fits [y = fixed + per_unit * n] by least
    squares on relative residuals (weights [1/y²]), so the small-batch
    points that pin [fixed] count as much as the large ones that pin
    [per_unit]. Returns [(fixed, per_unit)].
    @raise Invalid_argument with fewer than two distinct [n], or a
    non-positive [y]. *)

val same_histogram_bucket : exact:float -> reported:float -> bool
(** Whether [reported] — a quantile read from a default-shaped
    [Tb_util.Stats.Histogram] (0.1 .. 1e8, 16 buckets per decade) — lies in
    the bucket that holds the raw-sample quantile [exact]. The histogram
    reports its bucket's upper edge clamped to the observed extremes, so
    the check accepts anything inside the bucket's closed interval. *)
