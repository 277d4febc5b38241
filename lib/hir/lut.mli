(** The child-index lookup table (paper §V-A2).

    [LUT : (tile shape, comparison bitmask) -> child index]. Shape IDs are
    assigned on demand per registry, keyed by the shape's integer code
    ({!Shape.code}); the table rows are computed statically (at compile
    time) for every possible bitmask, so the generated walk needs one load
    per step. A row is filled in one walk over the indexed shape that
    writes each of its [2^tile_size] entries once ({!Shape.exit_row}). *)

type t

val create : tile_size:int -> t
(** An empty registry for tiles of up to [tile_size] nodes (1..8). *)

val tile_size : t -> int

val shape_id : t -> Shape.t -> int
(** Intern a shape by its {!Shape.code}, computing its LUT row on first
    sight. Ids are dense and follow first-sight order, so interning the
    same shapes in the same order gives the same table.
    @raise Invalid_argument if the shape exceeds the registry tile size. *)

val shape_id_of_code : t -> int -> int
(** [shape_id_of_code t (Shape.code s)] is [shape_id t s], but builds the
    {!Shape.t} only on a shape's first sight ({!Shape.of_code}); the tiler
    interns every tile this way.
    @raise Invalid_argument if the code is not a shape's or the shape
    exceeds the registry tile size. *)

val shape_of_id : t -> int -> Shape.t

val num_shapes : t -> int

val lookup : t -> shape_id:int -> bits:int -> int
(** Child index for a comparison outcome; O(1) array access. *)

val row : t -> shape_id:int -> int array
(** One shape's LUT row (entry per bitmask). The returned array is the
    registry's own storage — do not mutate. Rows are physically shared
    with {!table}'s rows, which lets consumers key per-row caches by
    physical identity ({!Tb_analysis.Validate} memoizes the child
    decision structure this way).
    @raise Invalid_argument on an unknown shape id. *)

val table : t -> int array array
(** The raw table (row per shape id, 2^tile_size entries) — handed to the
    lowered code as a global buffer. Do not mutate. *)

val memory_bytes : t -> int
(** Size of the table in bytes assuming 2-byte entries (int16 in the
    paper). *)
