type group = {
  positions : int array;
  walk_depth : int;
  uniform : bool;
  shared_structure : bool;
}

let reorder trees =
  let keyed =
    Array.mapi
      (fun i t ->
        let lo, hi = Tiled_tree.depth_range t in
        ((lo = hi, hi), i))
      trees
  in
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (key, i) ->
      let existing = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key (i :: existing))
    keyed;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  let keys = List.sort_uniq compare keys in
  List.map
    (fun ((uniform, walk_depth) as key) ->
      let positions = Array.of_list (List.rev (Hashtbl.find tbl key)) in
      let shared_structure =
        let key0 = Tiled_tree.structure_key trees.(positions.(0)) in
        Array.for_all
          (fun i -> String.equal (Tiled_tree.structure_key trees.(i)) key0)
          positions
      in
      { positions; walk_depth; uniform; shared_structure })
    keys

let num_code_variants groups =
  List.fold_left
    (fun acc g ->
      acc + if g.shared_structure || g.uniform then 1 else Array.length g.positions)
    0 groups
