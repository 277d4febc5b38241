(** Tree tiling (paper §III-B/C/D).

    A tiling partitions a tree's {e internal} nodes into tiles of at most
    [tile_size] nodes; leaves always form implicit singleton leaf-tiles
    (the paper's leaf-separation constraint). Both paper algorithms are
    implemented as written:

    - {!basic} (Algorithm 2) builds each tile by a level-order traversal
      from the tile root, minimizing tile depth;
    - {!probability_based} (Algorithm 1) greedily grows each tile toward
      the most probable nodes, minimizing the expected number of tiles
      evaluated per inference for leaf-biased trees. *)

type t = {
  tile_size : int;
  tile_of_node : int array;
      (** internal node id -> tile id; -1 for leaves. Tile ids are dense,
          tile 0 contains the root. *)
  num_tiles : int;
}

val basic : Itree.t -> tile_size:int -> t

val probability_based : Itree.t -> node_probs:float array -> tile_size:int -> t
(** [node_probs] as computed by {!Itree.node_probs}. *)

val optimal_probability_based :
  Itree.t -> node_probs:float array -> tile_size:int -> t
(** The dynamic program the paper's §III-C mentions but leaves aside "in
    the interest of simplicity": minimizes the exact expected number of
    tiles evaluated per walk, Σ_l p_l · depth(l). The expected tiled depth
    equals the probability mass entering each chosen tile root, so the DP
    is [C(v) = p(v) + min over valid tiles T rooted at v of
    Σ C(u) over T's internal exits], with tile enumeration following the
    tree structure (so each rooted connected set is generated exactly
    once) and under-full tiles admitted only when maximal. Guaranteed no
    worse than either greedy algorithm under the §III-C objective
    (property-tested). *)

val min_max_depth :
  Itree.t -> tile_size:int -> t
(** The "minimize the maximum leaf depth" variant the paper suggests as
    future work (§III-B2): the same DP with objective
    [C(v) = 1 + min over tiles of max C(u)], breaking ties toward fewer
    tiles. Useful for latency-critical deployments where the worst-case
    walk matters more than the average. *)

val nodes_of_tile : t -> int -> int list
(** Node ids of a tile, ascending. *)

val tile_root : Itree.t -> t -> int -> int
(** The node of the tile closest to the tree root. *)
