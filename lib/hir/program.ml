module Forest = Tb_model.Forest
module Model_stats = Tb_model.Model_stats

type tree_entry = {
  tiled : Tiled_tree.t;
  original_index : int;
  used_probability_tiling : bool;
}

type t = {
  forest : Forest.t;
  schedule : Schedule.t;
  trees : tree_entry array;
  groups : Reorder.group list;
  lut : Lut.t;
}

let build ?profiles forest (schedule : Schedule.t) =
  (match Schedule.validate schedule with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Program.build: " ^ msg));
  (match profiles with
  | Some p when Array.length p <> Array.length forest.Forest.trees ->
    invalid_arg "Program.build: profile count mismatch"
  | Some _ | None -> ());
  let lut = Lut.create ~tile_size:schedule.tile_size in
  let tile_one index tree =
    let itree = Itree.of_tree tree in
    let use_probability =
      match (schedule.tiling, profiles) with
      | Schedule.Basic, _ | Schedule.Min_max_depth, _ | _, None -> false
      | (Schedule.Probability_based | Schedule.Optimal_probability_based), Some profiles
        ->
        Model_stats.is_leaf_biased profiles.(index) ~alpha:schedule.alpha
          ~beta:schedule.beta
    in
    let tiling =
      if use_probability then begin
        let profiles = Option.get profiles in
        let node_probs =
          Itree.node_probs itree ~leaf_probs:profiles.(index).Model_stats.leaf_probs
        in
        match schedule.tiling with
        | Schedule.Optimal_probability_based ->
          Tiling.optimal_probability_based itree ~node_probs
            ~tile_size:schedule.tile_size
        | Schedule.Probability_based | Schedule.Basic | Schedule.Min_max_depth ->
          Tiling.probability_based itree ~node_probs ~tile_size:schedule.tile_size
      end
      else
        match schedule.tiling with
        | Schedule.Min_max_depth ->
          Tiling.min_max_depth itree ~tile_size:schedule.tile_size
        | Schedule.Basic | Schedule.Probability_based
        | Schedule.Optimal_probability_based ->
          Tiling.basic itree ~tile_size:schedule.tile_size
    in
    let pad_limit =
      if schedule.pad_and_unroll then Some schedule.pad_imbalance_limit else None
    in
    let tiled = Tiled_tree.create ?pad_limit lut itree tiling in
    { tiled; original_index = index; used_probability_tiling = use_probability }
  in
  let entries = Array.mapi tile_one forest.Forest.trees in
  let groups = Reorder.reorder (Array.map (fun e -> e.tiled) entries) in
  (* Materialize the reordered execution order while keeping group position
     arrays valid: rebuild trees in group order and renumber. *)
  let order = List.concat_map (fun g -> Array.to_list g.Reorder.positions) groups in
  let trees = Array.of_list (List.map (fun i -> entries.(i)) order) in
  let groups =
    let next = ref 0 in
    List.map
      (fun g ->
        let n = Array.length g.Reorder.positions in
        let positions = Array.init n (fun i -> !next + i) in
        next := !next + n;
        { g with Reorder.positions })
      groups
  in
  { forest; schedule; trees; groups; lut }

let num_leaf_biased t =
  Array.fold_left
    (fun acc e -> if e.used_probability_tiling then acc + 1 else acc)
    0 t.trees
