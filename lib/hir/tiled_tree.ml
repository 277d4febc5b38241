type tile = {
  node_ids : int array;
  features : int array;
  thresholds : float array;
  shape : Shape.t;
  shape_id : int;
  children : int array;
}

type node =
  | Tile of tile
  | Leaf of float

type t = {
  tile_size : int;
  nodes : node array;
  lut : Lut.t;
  source_leaves : int;
}

let in_tile (it : Itree.t) (tiling : Tiling.t) tile_id n =
  (not (Itree.is_leaf it n)) && tiling.Tiling.tile_of_node.(n) = tile_id

(* Intra-tile level-order node ids, following only in-tile edges; the id
   array is the BFS queue. *)
let level_order_ids (it : Itree.t) (tiling : Tiling.t) tile_id root =
  let ids = Array.make tiling.Tiling.tile_size root in
  let count = ref 1 in
  let push c =
    if in_tile it tiling tile_id c then begin
      ids.(!count) <- c;
      incr count
    end
  in
  let i = ref 0 in
  while !i < !count do
    push it.Itree.left.(ids.(!i));
    push it.Itree.right.(ids.(!i));
    incr i
  done;
  Array.sub ids 0 !count

(* Shape of the tile plus its exits' tree nodes in left-to-right order. *)
let shape_and_exits (it : Itree.t) (tiling : Tiling.t) tile_id root =
  let exits = ref [] in
  let rec build n =
    let side c =
      if in_tile it tiling tile_id c then Some (build c)
      else begin
        exits := c :: !exits;
        None
      end
    in
    (* Left must be traversed before right so that the exit list matches the
       shape's left-to-right (DFS) exit numbering. *)
    let l = side it.Itree.left.(n) in
    let r = side it.Itree.right.(n) in
    Shape.Node (l, r)
  in
  let shape = build root in
  (shape, Array.of_list (List.rev !exits))

(* One pass over the ownership map finds every tile's root: its node whose
   parent lies in another tile (or the tree root). A tile with two roots is
   disconnected and rejected, as [Tiling.tile_root] would. Also counts the
   source leaves. *)
let tile_roots (it : Itree.t) (tiling : Tiling.t) =
  let roots = Array.make tiling.Tiling.num_tiles (-1) in
  let leaves = ref 0 in
  for n = 0 to it.Itree.num_nodes - 1 do
    if Itree.is_leaf it n then incr leaves
    else begin
      let tid = tiling.Tiling.tile_of_node.(n) in
      let p = it.Itree.parent.(n) in
      if p < 0 || tiling.Tiling.tile_of_node.(p) <> tid then begin
        if roots.(tid) >= 0 then
          invalid_arg "Tiled_tree.create: disconnected tile";
        roots.(tid) <- n
      end
    end
  done;
  (roots, !leaves)

let create lut (it : Itree.t) (tiling : Tiling.t) =
  let tile_size = tiling.Tiling.tile_size in
  if Lut.tile_size lut <> tile_size then
    invalid_arg "Tiled_tree.create: LUT tile size mismatch";
  if Itree.is_leaf it Itree.root then
    {
      tile_size;
      nodes = [| Leaf it.Itree.value.(Itree.root) |];
      lut;
      source_leaves = 1;
    }
  else begin
    let roots, source_leaves = tile_roots it tiling in
    (* Output order: BFS over tiles-and-leaves from the root tile, so the
       root is node 0 and siblings are contiguous (the sparse layout relies
       on sibling contiguity). [order] is the queue, holding each output
       node's source node: a leaf, or the root of its tile. Every tile being
       connected, a tile's exits are leaves and the roots of other tiles,
       each reached once, so an exit's output index is the queue slot it
       takes. Shapes are interned in this order. *)
    let order = Array.make it.Itree.num_nodes (-1) in
    order.(0) <- roots.(0);
    let queued = ref 1 in
    let enqueue e =
      order.(!queued) <- e;
      incr queued;
      !queued - 1
    in
    let tile_at root =
      let tid = tiling.Tiling.tile_of_node.(root) in
      let node_ids = level_order_ids it tiling tid root in
      let shape, exits = shape_and_exits it tiling tid root in
      let features = Array.make tile_size 0 in
      let thresholds = Array.make tile_size infinity in
      Array.iteri
        (fun lane n ->
          features.(lane) <- it.Itree.feature.(n);
          thresholds.(lane) <- it.Itree.threshold.(n))
        node_ids;
      let shape_id = Lut.shape_id lut shape in
      Tile
        {
          node_ids;
          features;
          thresholds;
          shape;
          shape_id;
          children = Array.map enqueue exits;
        }
    in
    let nodes = Array.make it.Itree.num_nodes (Leaf 0.0) in
    let i = ref 0 in
    while !i < !queued do
      let n = order.(!i) in
      nodes.(!i) <-
        (if Itree.is_leaf it n then Leaf it.Itree.value.(n) else tile_at n);
      incr i
    done;
    { tile_size; nodes = Array.sub nodes 0 !queued; lut; source_leaves }
  end

let comparison_bits t (tile : tile) row =
  let bits = ref 0 in
  for lane = 0 to t.tile_size - 1 do
    (* Dummy lanes compare against +inf, so their bit is always set; the
       LUT ignores those positions anyway. *)
    let b = if row.(tile.features.(lane)) < tile.thresholds.(lane) then 1 else 0 in
    bits := !bits lor (b lsl (t.tile_size - 1 - lane))
  done;
  !bits

let walk_leaf_node t row =
  let rec go i =
    match t.nodes.(i) with
    | Leaf _ -> i
    | Tile tile ->
      let bits = comparison_bits t tile row in
      let child = Lut.lookup t.lut ~shape_id:tile.shape_id ~bits in
      go tile.children.(child)
  in
  go 0

let walk t row =
  match t.nodes.(walk_leaf_node t row) with
  | Leaf v -> v
  | Tile _ -> assert false

let step t i row =
  match t.nodes.(i) with
  | Leaf _ -> invalid_arg "Tiled_tree.step: node is a leaf"
  | Tile tile ->
    let bits = comparison_bits t tile row in
    tile.children.(Lut.lookup t.lut ~shape_id:tile.shape_id ~bits)

let is_dummy (tile : tile) = Array.length tile.node_ids = 0

(* Children considered by static analyses: a dummy (padding) tile always
   routes the walk through exit 0; its other exit is a dead leaf that no
   input can reach and must not be counted. *)
let static_children (tile : tile) =
  if is_dummy tile then [| tile.children.(0) |] else tile.children

let leaf_depths t =
  let acc = ref [] in
  let rec go i d =
    match t.nodes.(i) with
    | Leaf v -> acc := (d, v) :: !acc
    | Tile tile -> Array.iter (fun c -> go c (d + 1)) (static_children tile)
  in
  go 0 0;
  !acc

let depth_range t =
  let lo = ref max_int and hi = ref 0 in
  let rec go i d =
    match t.nodes.(i) with
    | Leaf _ ->
      if d < !lo then lo := d;
      if d > !hi then hi := d
    | Tile tile ->
      (* [static_children] without the copy: a dummy tile's exit 0. *)
      let reachable = if is_dummy tile then 1 else Array.length tile.children in
      for k = 0 to reachable - 1 do
        go tile.children.(k) (d + 1)
      done
  in
  go 0 0;
  (!lo, !hi)

let depth t = snd (depth_range t)

let min_leaf_depth t = fst (depth_range t)

let num_tiles t =
  Array.fold_left
    (fun acc -> function Tile _ -> acc + 1 | Leaf _ -> acc)
    0 t.nodes

let num_leaves t =
  Array.fold_left
    (fun acc -> function Leaf _ -> acc + 1 | Tile _ -> acc)
    0 t.nodes

let expected_depth t ~leaf_node_probs =
  let acc = ref 0.0 in
  let rec go i d =
    match t.nodes.(i) with
    | Leaf _ -> acc := !acc +. (leaf_node_probs i *. float_of_int d)
    | Tile tile -> Array.iter (fun c -> go c (d + 1)) (static_children tile)
  in
  go 0 0;
  !acc

let structure_key t =
  let buf = Buffer.create 128 in
  let rec go i =
    match t.nodes.(i) with
    | Leaf _ -> Buffer.add_char buf 'L'
    | Tile tile ->
      Buffer.add_char buf '(';
      Buffer.add_string buf (string_of_int tile.shape_id);
      Array.iter go (static_children tile);
      Buffer.add_char buf ')'
  in
  go 0;
  Buffer.contents buf

let is_uniform_depth t =
  let lo, hi = depth_range t in
  lo = hi
