(** Indexed (array) view of a binary decision tree.

    Tiling algorithms manipulate sets of nodes, which needs stable node
    identities; this module gives every node of a {!Tb_model.Tree.t} an
    integer id (preorder numbering, root = 0) and O(1) structural
    accessors. Leaf ids and leaf order match {!Tb_model.Tree.leaves}
    (left-to-right). *)

type t = {
  feature : int array;  (** meaningful for internal nodes *)
  threshold : float array;
  value : float array;  (** meaningful for leaves *)
  left : int array;  (** child id, or -1 for leaves *)
  right : int array;
  parent : int array;  (** -1 for the root *)
  num_nodes : int;  (** total, internal + leaves *)
}

val of_tree : Tb_model.Tree.t -> t
val to_tree : t -> Tb_model.Tree.t

val root : int
(** Always 0. *)

val is_leaf : t -> int -> bool
val leaf_rank : t -> int array
(** [(leaf_rank t).(id)] is the left-to-right index of leaf [id]
    (meaningless for internal nodes). *)

val node_probs : t -> leaf_probs:float array -> float array
(** Probability of the walk reaching each node: leaves get their profile
    probability (indexed by left-to-right rank), internal nodes the sum of
    their subtree's leaves — the input to probability-based tiling
    (footnote 6 of the paper). *)

val depth_of : t -> int -> int
(** Depth in edges from the root. *)
