(** LIR operation templates: the per-step instruction sequences of the
    vectorized tile walk (paper §V-A listing).

    A tile step always performs: vector-load thresholds, vector-load
    feature indices, gather the row's features, vector-compare, pack the
    mask into an integer, load the tile's shape id, index the LUT, and
    compute the child address (plus a child-pointer load in the sparse
    layout and a leaf check in non-unrolled walks). The cost model assigns
    per-target latencies/throughputs to each op; interleaving and unrolling
    change how many independent copies of the chain are in flight, not the
    ops themselves. *)

type op =
  | Vload_thresholds  (** vector load of [tile_size] thresholds *)
  | Vload_features  (** vector load of [tile_size] feature indices *)
  | Gather_row  (** gather features from the input row *)
  | Vcompare  (** vector [<] *)
  | Pack_mask  (** movemask: compare vector -> integer *)
  | Load_shape_id
  | Lut_lookup
  | Load_child_ptr  (** sparse layout only *)
  | Addr_arith  (** next-slot index computation *)
  | Leaf_check_branch  (** conditional branch testing walk termination *)
  | Loop_back_branch  (** loop back edge of the generic walk *)
  | Scalar_load_leaf  (** terminal leaf value load *)
  | Accumulate  (** add tree prediction into the output *)
  | Scalar_load_threshold  (** scalar walk (tile size 1, no SIMD) *)
  | Scalar_load_feature
  | Scalar_compare_branch  (** scalar predicate + branch on it *)

type step_kind =
  | Tile_step of { leaf_check : bool }
      (** one tile evaluation; [leaf_check] is false inside unrolled or
          peeled regions *)
  | Leaf_fetch  (** terminal value load + accumulate *)

val step_ops : layout:Layout.kind -> tile_size:int -> step_kind -> op list
(** The op sequence of one step. Tile size 1 uses the scalar template
    (vectorization degenerates; the paper's scalar baseline). *)

val dependency_chain : layout:Layout.kind -> tile_size:int -> step_kind -> op list
(** The subsequence of {!step_ops} on the serial critical path from one
    step to the next (what interleaving hides). *)

val op_name : op -> string

val pp_walk_listing :
  Format.formatter -> layout:Layout.kind -> tile_size:int -> unit -> unit
(** Render the full §V-A style WalkDecisionTree listing for documentation
    and [--dump-lir]. *)

val estimated_code_bytes :
  layout:Layout.kind -> tile_size:int -> Tb_mir.Mir.walk_kind -> int
(** Rough machine-code footprint of one walk body — drives the I-cache /
    front-end model (unrolled bodies are bigger; Treelite-style if-else
    expansion is modeled separately in the baselines). *)
