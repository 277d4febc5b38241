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
    the existing float buffers: every certified value, and every partial
    sum of leaves (below the plan's accumulator bound, [2^31 - 1] at
    int16), is an integer far below [2^53], so float compares and adds on
    them are exact. The float walk kernels, fed {!quantize_row} rows,
    therefore execute the integer path unchanged. *)

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

val check : num_features:int -> t -> Tb_diag.Diagnostic.t list
(** Well-formedness, the one definition shared by the verifier
    ([Tb_analysis.Lir_check.check_layout]) and the artifact decoder
    ({!Pack.decode}). A tree owns the slots from its root up to the next
    tree's root (array layout: its slab), so slot roots must ascend.
    [Error] findings at the [Lir] level:

    - [L020]: a tile size outside 1..8, slot-major buffers other than
      [slots x tile_size] long, a child-pointer array other than one
      entry per sparse slot (none on an array layout), a LUT-reachable
      tile successor outside its tree's slots or (array layout)
      unallocated, or a sparse child pointer not strictly past its own
      slot;
    - [L021]: a tile lane reading a feature outside [0, num_features),
      or, on a quantized layout, past the plan's [feature_exp] (the
      length of every quantized row);
    - [L022]: a root count other than [num_trees], a slot root outside
      the slots, not past the previous one or (array layout) never
      allocated, or a single-leaf root outside the leaf store;
    - [L023]: a leaf successor outside the leaf store, or an array
      layout carrying a leaf store;
    - [L024]: a LUT row not [2^tile_size] long or with an entry outside
      the child range 0..tile_size, or a shape id naming no LUT row (on
      an array layout, nor the leaf or unused marker).

    Without errors, every walk from a tree's root reads only its tree's
    slots and the leaf store, and ends within [slots] steps: every
    successor lies strictly past the slot it leaves. Total on any
    buffers; one pass per slot, with a child bitmask per LUT row. *)

val leaf_depths : t -> (int * int) array
(** Per tree, the depths of its shallowest and its deepest reachable
    leaf, in tile steps from the root (a single-leaf tree's is [(0, 0)]).
    A slot's children are those its LUT row selects on some finite row: a
    lane against [+inf] always sets its comparison bit and one against
    [-inf] never does, so a padding tile's dead exit is not counted.
    Requires a layout {!check} accepts: every successor lies strictly
    past its slot, so one forward pass over the slots is enough. *)

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

val stride_facts : t -> stride_facts
(** Relational facts about the layout's index arithmetic, consumed by
    [Lir_check]'s congruence/interval product to discharge
    [child_ptr + lut_child] bounds obligations. Conservative on corrupt
    layouts (out-of-range shape ids fall back to the full child range;
    {!check} reports the corruption). *)

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

val dequant_scale : qspec -> float
(** [2^(-leaf_exp)]: multiply an integer-valued accumulator by this to
    dequantize. Exact (a power of two). *)

val quantize_row : qspec -> float array -> float array
(** Per-feature fixed-point rounding of an input row (0 for unused
    features, NaN to 0, ±inf saturated), as integer-valued floats — the
    row form the quantized layout's walks compare against. Staged: apply
    it to the spec once to hoist the per-feature scales, then to each
    row; a row allocates its result and boxes nothing. The result has
    exactly [Array.length feature_exp] elements: the walks index it by
    model feature, so extra row columns are dropped, and a row too short
    for a used feature raises [Invalid_argument]. *)

val quantize : qspec -> t -> t
(** Rewrite thresholds and leaf values to the plan's fixed-point
    integers (stored as integer-valued floats) and tag the layout with
    the spec. {!walk} on the result, fed {!quantize_row} rows, is
    bit-identical to [Tb_analysis.Numeric]'s integer evaluator on
    routing-stable rows. @raise Invalid_argument if already quantized or
    [qbits] is not 8/16. *)
