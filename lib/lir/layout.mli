(** In-memory representations of tiled trees (paper §V-B).

    Both layouts store the model as struct-of-arrays over {e slots}; a slot
    holds one tile's [tile_size] thresholds and feature indices plus its
    shape id. They differ in how children are found:

    - {b Array layout} (§V-B1): per-tree slab of implicitly indexed slots;
      child [c] of local slot [s] lives at [s*(tile_size+1) + c + 1].
      Simple, but allocates every addressable slot of the (n_t+1)-ary tree
      — the memory bloat the paper measures. Leaves occupy full slots.
    - {b Sparse layout} (§V-B2): tiles store an explicit child pointer;
      all children of a tile are contiguous, and leaf values live in a
      separate dense array. Tiles whose children mix tiles and leaves get
      an extra "hop" tile inserted above each leaf child (paper Fig. 6) so
      every tile's children are homogeneous. *)

type kind = Array_kind | Sparse_kind

type qspec = {
  qbits : int;  (** quantized value width: 8 or 16 *)
  q_max : int;  (** [2^(qbits-1) - 1], the saturation cap *)
  feature_exp : int option array;
      (** per feature: [Some e] scales feature [f] and its thresholds by
          [2^e]; [None] for unused features *)
  leaf_exp : int;  (** leaves and the base score are scaled by [2^leaf_exp] *)
}
(** Layout-side mirror of [Tb_analysis.Numeric.plan] (the analysis
    library consumes this one, so the plan's fixed-point parameters are
    replicated here). A quantized layout stores the plan's integers in
    the existing float buffers: every certified value is far below
    [2^53], so float compares/adds on them are bit-identical to integer
    arithmetic and the float walk kernels execute the integer path
    unchanged. *)

type t = {
  kind : kind;
  tile_size : int;
  num_trees : int;
  tree_root : int array;
      (** Array layout: slab base, in slots. Sparse: root tile index, or
          [-1 - leaf_index] when the whole tree is a single leaf. *)
  thresholds : float array;  (** slot-major: [slot * tile_size + lane] *)
  features : int array;  (** same indexing *)
  shape_ids : int array;
      (** per slot: shape id; array layout also uses [leaf_marker] for leaf
          slots and [unused_marker] for never-allocated slots *)
  child_ptr : int array;
      (** sparse only, per slot: [>= 0] = first child tile slot (children
          contiguous); [< 0] = children are leaves starting at
          [leaf_values.(-child_ptr - 1)] *)
  leaf_values : float array;
      (** array layout: per-slot leaf value; sparse: dense leaf store *)
  lut : int array array;  (** LUT rows by shape id *)
  quant : qspec option;
      (** [Some q] when thresholds/leaves hold [q]'s fixed-point integers
          (as integer-valued floats); [None] for the float path *)
}

val leaf_marker : int
(** Shape-id value marking a leaf slot in the array layout (-1). *)

val unused_marker : int
(** Shape-id value marking an unallocated slot in the array layout (-2). *)

val max_array_slots : int
(** Safety cap on a single tree's slab (deep probability-tiled chains make
    the implicit-index slab exponential — the builder raises rather than
    allocating gigabytes; use the sparse layout for such schedules). *)

val build : Tb_hir.Program.t -> t
(** Build the layout selected by the program's schedule.
    @raise Invalid_argument when an array-layout slab would exceed
    {!max_array_slots}. *)

val build_kind : kind -> Tb_hir.Program.t -> t
(** Build a specific layout regardless of the schedule (used by the
    footprint experiment). *)

val comparison_bits : t -> int -> float array -> int
(** Evaluate all lane predicates of the tile in [slot] against a row and
    pack them into the LUT index (lane 0 = MSB). *)

val walk : t -> tree:int -> float array -> float
(** Reference traversal over the layout buffers — the semantics the JIT
    backend must reproduce. *)

val walk_with_trace : t -> tree:int -> float array -> on_slot:(int -> unit) -> float
(** Like {!walk}, reporting each visited slot index (absolute, in slot
    units) — drives the cache simulator. *)

type stride_facts = {
  lane_stride : int;
      (** Slot-major lane stride of [thresholds]/[features]: element
          [slot * lane_stride + lane]. Equals [tile_size]. *)
  tile_advance : (int * int) option;
      (** Sparse only: min/max of [child_ptr.(s) + c] over every slot [s]
          with [child_ptr.(s) >= 0] and every child [c] its LUT row can
          actually select — i.e. the exact range of tile-successor slot
          indices a walk can compute. [None] for array layouts or when no
          slot has tile children. *)
  leaf_advance : (int * int) option;
      (** Sparse only: min/max of [-child_ptr.(s) - 1 + c] over every slot
          with [child_ptr.(s) < 0] — the range of reachable [leaf_values]
          indices. [None] for array layouts or when no slot has leaf
          children. *)
}

val lut_children : t -> int list array
(** For each LUT row, the distinct entries within the child range
    [0, tile_size], in increasing order: the children a slot of that
    shape can select. One pass over the LUT; callers index the table by
    each slot's shape id. *)

val stride_facts : t -> stride_facts
(** Relational facts about the layout's index arithmetic, consumed by
    [Lir_check]'s congruence/interval product to discharge
    [child_ptr + lut_child] bounds obligations. Conservative on corrupt
    layouts (out-of-range shape ids fall back to the full child range). *)

val memory_bytes : t -> int
(** Model bytes under this layout, counting thresholds as float32, feature
    indices and shape ids as int16, child pointers as int32 and leaf values
    as float32 (excludes the LUT, which is shared across models). Quantized
    layouts count thresholds and leaf values at [qspec.qbits] instead. *)

val num_slots : t -> int

(** {2 Quantization — the integer fast path's layout half} *)

val quantize_scaled : q_max:int -> float -> int
(** Bit-for-bit replica of [Tb_analysis.Numeric]'s fixed-point rounding:
    round-half-away-from-zero, NaN to 0, saturation at [q_max] /
    [-q_max - 1]. *)

val quantize_threshold : qspec -> feature:int -> float -> float
(** One threshold under the plan, as an integer-valued float. Infinite
    thresholds (dummy-tile, hop-tile and padding-lane always/never-true
    markers) pass through untouched so their comparison bit stays
    constant even against saturated quantized rows. *)

val quantize_leaf : qspec -> float -> float
(** One leaf value (or the base score) scaled by [2^leaf_exp], as an
    integer-valued float. *)

val quantize_row : qspec -> float array -> float array
(** Per-feature fixed-point rounding of an input row (0 for unused
    features), as integer-valued floats — the row form the quantized
    layout's walks compare against. *)

val dequant_scale : qspec -> float
(** [2^(-leaf_exp)]: multiply an integer-valued accumulator by this to
    dequantize. Exact (a power of two). *)

val quantize_leaf_int : qspec -> float -> int
(** {!quantize_leaf} in the integer domain (used for the base score). *)

val row_quantizer : qspec -> float array -> int array
(** {!quantize_row} in the integer domain, staged: apply to the spec
    once to hoist the per-feature scales, then per row. Always produces
    an array of exactly [Array.length feature_exp] elements (the walk
    kernels index it by model feature, so extra row columns are dropped
    and a too-short row raises). The batch entry point of the integer
    fast path. *)

val quantize : qspec -> t -> t
(** Rewrite thresholds and leaf values to the plan's fixed-point
    integers (stored as integer-valued floats) and tag the layout with
    the spec. {!walk} on the result, fed {!quantize_row} rows, is
    bit-identical to [Tb_analysis.Numeric]'s integer evaluator on
    routing-stable rows. @raise Invalid_argument if already quantized or
    [qbits] is not 8/16. *)

type narrow16 = (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t

type narrow = { thr : narrow16; leaves : narrow16; always : int array }
(** Materialized narrow execution form of a quantized layout: thresholds
    and leaves in int16 lanes (same slot-major indexing as the float
    buffers) for both plan widths — an int8 plan's values and sentinel
    fit an int16 lane, so one kernel family walks either — plus a
    per-slot OR-mask of always-true lanes. The ±inf routing markers the
    narrow elements cannot carry are re-encoded exactly: -inf lanes
    store [-q_max - 1] (no quantized row is below it, so the comparison
    is constantly false, as with -inf), and +inf lanes store the same
    sentinel but set their bit in [always], which the narrow comparison
    ORs into the LUT index. *)

val narrow : t -> narrow
(** Materialize the narrow buffers of a quantized layout — what the
    JIT's integer kernels walk. Routing and results are bit-identical
    to {!walk} over the float-trick buffers.
    @raise Invalid_argument on a float layout. *)
