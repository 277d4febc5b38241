(** Tiled trees: the HIR form of a decision tree after tiling.

    A tiled tree is an n-ary tree whose internal nodes are tiles (up to
    [tile_size] decision nodes plus a shape) and whose leaves carry
    prediction values. Under-full tiles are padded to [tile_size] lanes
    with dummy predicates ([feature 0 < +inf], always true); the LUT never
    consults dummy lanes' bits, so padding is semantics-preserving.

    The walk over a tiled tree (see {!walk}) is the reference semantics all
    lowered code must match: evaluate all lane predicates speculatively,
    pack them into a bitmask (node 0 = MSB), look up the child index in the
    LUT, move to that child. *)

type tile = {
  node_ids : int array;
      (** originating {!Itree.t} node ids in intra-tile level order; empty
          for dummy (padding) tiles *)
  features : int array;  (** length [tile_size]; dummy lanes use feature 0 *)
  thresholds : float array;
      (** length [tile_size]; dummy lanes hold [infinity] *)
  shape : Shape.t;
  shape_id : int;
  children : int array;
      (** indices into the tree's [nodes] array, length
          [Shape.num_exits shape], ordered left to right *)
}

type node =
  | Tile of tile
  | Leaf of float

type t = {
  tile_size : int;
  nodes : node array;  (** node 0 is the root *)
  lut : Lut.t;  (** shared shape registry for the whole compilation *)
  source_leaves : int;  (** leaf count of the source binary tree *)
}

val create : Lut.t -> Itree.t -> Tiling.t -> t
(** Build the tiled tree for a tiling of [itree], interning shapes in the
    given registry. Handles the degenerate single-leaf tree. *)

val walk : t -> float array -> float
(** Reference tiled traversal (must equal {!Tb_model.Tree.predict} on the
    source tree — tested). *)

val walk_leaf_node : t -> float array -> int
(** Index (into [nodes]) of the leaf reached — used by probability
    accounting. *)

val step : t -> int -> float array -> int
(** One tile step: index (into [nodes]) of the child the row selects at
    tile node [i]. Building block for walk-kind-faithful replay
    ({!Tb_mir.Mir.walk_tree}).
    @raise Invalid_argument when node [i] is a leaf. *)

val depth : t -> int
(** Tiled depth in tiles: number of tiles traversed to the deepest leaf. *)

val min_leaf_depth : t -> int
(** Number of tiles traversed to the shallowest leaf. *)

val depth_range : t -> int * int
(** [(min_leaf_depth t, depth t)] from one walk over the reachable leaves,
    allocating no list. *)

val num_tiles : t -> int
(** Number of internal (tile) nodes, including dummy padding tiles. *)

val num_leaves : t -> int

val leaf_depths : t -> (int * float) list
(** (depth in tiles, value) for every leaf. *)

val expected_depth : t -> leaf_node_probs:(int -> float) -> float
(** Σ p(leaf) · tiled-depth(leaf), the §III-C objective; [leaf_node_probs]
    maps a [nodes] index to its reach probability. *)

val structure_key : t -> string
(** Shape-and-topology key: two tiled trees with equal keys can share
    traversal code (used by tree reordering). *)

val is_uniform_depth : t -> bool
(** All reachable leaves at the same tiled depth (holds after padding). *)

val is_dummy : tile -> bool
(** Padding tiles (no originating nodes); their exit 0 is the only
    reachable child. *)

val static_children : tile -> int array
(** Children reachable by some input: all of them for real tiles, exit 0
    only for dummy tiles. Static analyses must use this instead of
    [children] to avoid counting padding's dead leaves. *)
