(** Tile shapes (paper §V-A1).

    For a tile size [n_t], each legal binary tree with at most [n_t]
    (indistinguishable) nodes is a {e tile shape}. The shape determines how
    a comparison-outcome bitmask maps to the child tile to visit next.

    Conventions (fixed across the whole compiler and encoded in the LUT):
    - nodes within a tile are numbered in {e level order} (BFS), the tile
      root being node 0;
    - in a comparison bitmask for tile size [n_t], node [i]'s predicate
      outcome occupies bit [n_t - 1 - i] (node 0 is the MSB, as in the
      paper's Figure 5);
    - a set bit means the predicate [x < threshold] held, i.e. the walk
      moves to the left child;
    - a tile with [k] nodes has [k + 1] exits ("children"), ordered left to
      right regardless of depth. *)

type t = Node of t option * t option
(** A present node with optional present children; [None] marks an exit
    edge. The shape containing just a root is [Node (None, None)]. *)

val size : t -> int
(** Number of nodes; at least 1. *)

val num_exits : t -> int
(** [size t + 1]. *)

val depth : t -> int
(** Longest node chain, counted in nodes (a singleton has depth 1). *)

type index
(** A shape's level-order numbering: for each node, its left and right
    child as a node id or an exit slot. *)

val index : t -> index
(** Number the nodes with one BFS and the exits with one DFS; linear in the
    shape's size. Build it once per shape and navigate every bitmask over
    it ({!Lut} builds each row this way). *)

val navigate_index : index -> tile_size:int -> bits:int -> int
(** [navigate_index idx ~tile_size ~bits] walks the indexed shape from node
    0 guided by the comparison bitmask and returns the index of the exit
    reached, in at most [size] steps. Bits of absent node positions are
    ignored (don't-care), so any value on dummy lanes is safe. *)

val navigate : t -> tile_size:int -> bits:int -> int
(** [navigate shape] is [navigate_index (index shape)]: one bitmask,
    indexing the shape anew. *)

val enumerate : max_size:int -> t list
(** All shapes with 1..max_size nodes (Catalan-many per size). Used by the
    exhaustive LUT tests. *)

val equal : t -> t -> bool
val to_string : t -> string
(** Compact parenthesized rendering, e.g. ["(•(•..)(..))"]. *)
