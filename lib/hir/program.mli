(** The assembled HIR: a forest after tiling, padding and reordering,
    annotated with its schedule — the input to MIR lowering.

    Construction applies the HIR-level optimizations in paper order:
    + tile every tree (probability-based tiling for leaf-biased trees when
      the schedule asks for it and profiles are available, basic tiling
      otherwise);
    + pad almost-balanced trees to uniform tiled depth when the schedule
      enables padding + unrolling: the tiler emits the padded tree
      ({!Tiled_tree.create}'s [pad_limit] is the schedule's
      [pad_imbalance_limit]);
    + reorder trees into code-sharing groups. *)

type tree_entry = {
  tiled : Tiled_tree.t;
  original_index : int;
      (** index in the source forest — determines which output class this
          tree accumulates into *)
  used_probability_tiling : bool;
}

type t = {
  forest : Tb_model.Forest.t;
  schedule : Schedule.t;
  trees : tree_entry array;  (** in reordered execution order *)
  groups : Reorder.group list;  (** positions index into [trees] *)
  lut : Lut.t;
}

val build :
  ?profiles:Tb_model.Model_stats.tree_profile array ->
  Tb_model.Forest.t ->
  Schedule.t ->
  t
(** Compile the HIR. [profiles] (one per forest tree, from
    {!Tb_model.Model_stats.profile_forest}) enable probability-based
    tiling; without them the schedule's [Probability_based] degrades to
    basic tiling for every tree.
    @raise Invalid_argument if the schedule fails {!Schedule.validate} or
    the profile count mismatches. *)

val num_leaf_biased : t -> int
(** Trees that were tiled with Algorithm 1. *)
