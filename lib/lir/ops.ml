type op =
  | Vload_thresholds
  | Vload_features
  | Gather_row
  | Vcompare
  | Pack_mask
  | Load_shape_id
  | Lut_lookup
  | Load_child_ptr
  | Addr_arith
  | Leaf_check_branch
  | Loop_back_branch
  | Scalar_load_leaf
  | Accumulate
  | Scalar_load_threshold
  | Scalar_load_feature
  | Scalar_compare_branch

type step_kind =
  | Tile_step of { leaf_check : bool }
  | Leaf_fetch

let scalar_step ~leaf_check =
  (* Tile size 1: a plain binary-tree step — loads, a compare-and-branch,
     index arithmetic. *)
  [ Scalar_load_feature; Scalar_load_threshold; Scalar_compare_branch; Addr_arith ]
  @ (if leaf_check then [ Leaf_check_branch ] else [])
  @ [ Loop_back_branch ]

let vector_step ~layout ~leaf_check =
  [ Vload_thresholds; Vload_features; Gather_row; Vcompare; Pack_mask;
    Load_shape_id; Lut_lookup ]
  @ (match layout with Layout.Sparse_kind -> [ Load_child_ptr ] | Layout.Array_kind -> [])
  @ [ Addr_arith ]
  @ (if leaf_check then [ Leaf_check_branch; Loop_back_branch ] else [])

let step_ops ~layout ~tile_size kind =
  match kind with
  | Leaf_fetch ->
    (* Includes the per-walk overhead: root/base setup, the accumulate,
       and the tree-loop bookkeeping. *)
    [ Scalar_load_leaf; Accumulate; Addr_arith; Addr_arith; Loop_back_branch ]
  | Tile_step { leaf_check } ->
    if tile_size = 1 then scalar_step ~leaf_check
    else vector_step ~layout ~leaf_check

let dependency_chain ~layout ~tile_size kind =
  match kind with
  | Leaf_fetch -> [ Scalar_load_leaf; Accumulate ]
  | Tile_step _ ->
    if tile_size = 1 then
      (* Scalar walks branch on the predicate: prediction supplies the next
         node's address speculatively, so the serial chain is only the
         index arithmetic (mispredictions are charged separately). *)
      [ Addr_arith ]
    else
      (* indices -> gather -> compare -> mask -> LUT -> next address; the
         threshold vector load runs in parallel with the index load. *)
      [ Vload_features; Gather_row; Vcompare; Pack_mask; Lut_lookup ]
      @ (match layout with
        | Layout.Sparse_kind -> [ Load_child_ptr ]
        | Layout.Array_kind -> [])
      @ [ Addr_arith ]

let op_name = function
  | Vload_thresholds -> "vload.thresholds"
  | Vload_features -> "vload.featureIndices"
  | Gather_row -> "gather.row"
  | Vcompare -> "vcmp.lt"
  | Pack_mask -> "movemask"
  | Load_shape_id -> "load.tileShape"
  | Lut_lookup -> "load.LUT"
  | Load_child_ptr -> "load.childPtr"
  | Addr_arith -> "lea.childTile"
  | Leaf_check_branch -> "br.isLeaf"
  | Loop_back_branch -> "br.loop"
  | Scalar_load_leaf -> "load.leafValue"
  | Accumulate -> "addf.prediction"
  | Scalar_load_threshold -> "load.threshold"
  | Scalar_load_feature -> "load.featureIndex"
  | Scalar_compare_branch -> "cmp-br.predicate"

let pp_walk_listing fmt ~layout ~tile_size () =
  Format.fprintf fmt "@[<v>WalkDecisionTree(tree, row):@,";
  Format.fprintf fmt "  tile = getRoot(tree)@,";
  Format.fprintf fmt "  while (!isLeaf(tree, tile)) {@,";
  List.iter
    (fun op -> Format.fprintf fmt "    %s@," (op_name op))
    (step_ops ~layout ~tile_size (Tile_step { leaf_check = true }));
  Format.fprintf fmt "  }@,";
  List.iter
    (fun op -> Format.fprintf fmt "  %s@," (op_name op))
    (step_ops ~layout ~tile_size Leaf_fetch);
  Format.fprintf fmt "@]"

let estimated_code_bytes ~layout ~tile_size walk =
  (* ~6 bytes per instruction, plus loop scaffolding. *)
  let step ops = 6 * List.length ops in
  let looped = step (step_ops ~layout ~tile_size (Tile_step { leaf_check = true })) in
  let unrolled = step (step_ops ~layout ~tile_size (Tile_step { leaf_check = false })) in
  let leaf = step (step_ops ~layout ~tile_size Leaf_fetch) in
  match walk with
  | Tb_mir.Mir.Loop_walk -> looped + leaf + 16
  | Tb_mir.Mir.Peeled_walk { peel } -> (unrolled * peel) + looped + leaf + 16
  | Tb_mir.Mir.Unrolled_walk { depth } -> (unrolled * depth) + leaf + 8
