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

let dummy_code = Shape.code (Shape.Node (None, None))

let create ?pad_limit lut (it : Itree.t) (tiling : Tiling.t) =
  let tile_size = tiling.Tiling.tile_size in
  if Lut.tile_size lut <> tile_size then
    invalid_arg "Tiled_tree.create: LUT tile size mismatch";
  let n = it.Itree.num_nodes in
  let tile_of_node = tiling.Tiling.tile_of_node in
  (* Pre-pass over the ownership map, parents before children (Itree
     numbers nodes in preorder). A tile's root is its node whose parent
     lies in another tile (or the tree root); a tile with two roots is
     disconnected and rejected. [depth.(v)] counts the tiles a walk enters
     down to [v]: for an internal node, its own tile included; for a leaf,
     its tiled depth. *)
  let depth = Array.make n 0 in
  let has_root = Array.make tiling.Tiling.num_tiles false in
  let tiles = ref 0 and leaves = ref 0 in
  let lo = ref max_int and hi = ref 0 and depth_sum = ref 0 in
  for v = 0 to n - 1 do
    let p = it.Itree.parent.(v) in
    let above = if p < 0 then 0 else depth.(p) in
    if Itree.is_leaf it v then begin
      depth.(v) <- above;
      incr leaves;
      depth_sum := !depth_sum + above;
      if above < !lo then lo := above;
      if above > !hi then hi := above
    end
    else if p >= 0 && tile_of_node.(p) = tile_of_node.(v) then depth.(v) <- above
    else begin
      if has_root.(tile_of_node.(v)) then
        invalid_arg "Tiled_tree.create: disconnected tile";
      has_root.(tile_of_node.(v)) <- true;
      incr tiles;
      depth.(v) <- above + 1
    end
  done;
  (* §III-F: an almost-balanced tree (imbalance within the limit) gets a
     dummy tile per missing level above each short leaf, so every leaf
     sits at the deepest leaf's depth. A dummy tile and its dead leaf add
     two nodes. *)
  let target =
    match pad_limit with
    | Some limit when !lo < !hi && !hi - !lo <= limit -> !hi
    | Some _ | None -> 0
  in
  let num_dummies = if target = 0 then 0 else (target * !leaves) - !depth_sum in
  let size = !tiles + !leaves + (2 * num_dummies) in
  (* Output order: BFS over tiles and leaves from the root, so the root is
     node 0 and siblings are contiguous (the sparse layout relies on
     sibling contiguity). The queue is the output itself: slot [i] holds
     source node [src.(i)] (a tile root or a leaf, -1 for a dummy tile's
     dead leaf) behind [chain.(i)] more dummy tiles. A short leaf's first
     dummy takes the leaf's place; each dummy's exit 0 is the rest of the
     chain and its exit 1 the dead leaf. Real shapes are interned in this
     order. *)
  let src = Array.make size (-1) and chain = Array.make size 0 in
  let queued = ref 1 in
  src.(0) <- Itree.root;
  let push v dummies =
    let i = !queued in
    src.(i) <- v;
    chain.(i) <- dummies;
    queued := i + 1;
    i
  in
  (* One tile's nodes in intra-tile level order, its exits left to right
     and its shape code, in buffers reused from tile to tile. *)
  let level = Array.make tile_size 0 and count = ref 0 in
  let exits = Array.make (tile_size + 1) 0 and num_exits = ref 0 in
  let code = ref 1 in
  let in_tile tid c = (not (Itree.is_leaf it c)) && tile_of_node.(c) = tid in
  let add_level tid c =
    if in_tile tid c then begin
      level.(!count) <- c;
      incr count
    end
  in
  let rec preorder tid v =
    let l = it.Itree.left.(v) and r = it.Itree.right.(v) in
    let l_in = in_tile tid l and r_in = in_tile tid r in
    code := (!code lsl 2) lor (if l_in then 2 else 0) lor (if r_in then 1 else 0);
    if l_in then preorder tid l else exit_at l;
    if r_in then preorder tid r else exit_at r
  and exit_at c =
    exits.(!num_exits) <- c;
    incr num_exits
  in
  let tile_at root =
    let tid = tile_of_node.(root) in
    level.(0) <- root;
    count := 1;
    let i = ref 0 in
    while !i < !count do
      add_level tid it.Itree.left.(level.(!i));
      add_level tid it.Itree.right.(level.(!i));
      incr i
    done;
    num_exits := 0;
    code := 1;
    preorder tid root;
    let features = Array.make tile_size 0 in
    let thresholds = Array.make tile_size infinity in
    for lane = 0 to !count - 1 do
      features.(lane) <- it.Itree.feature.(level.(lane));
      thresholds.(lane) <- it.Itree.threshold.(level.(lane))
    done;
    let shape_id = Lut.shape_id_of_code lut !code in
    let children = Array.make !num_exits 0 in
    for k = 0 to !num_exits - 1 do
      let e = exits.(k) in
      children.(k) <- push e (if target > 0 && Itree.is_leaf it e then target - depth.(e) else 0)
    done;
    let shape = Lut.shape_of_id lut shape_id in
    Tile { node_ids = Array.sub level 0 !count; features; thresholds; shape; shape_id; children }
  in
  let nodes = Array.make size (Leaf 0.0) in
  for i = 0 to size - 1 do
    let v = src.(i) in
    if chain.(i) > 0 then begin
      (* A dummy tile; its slot keeps exit 0's index until it is made. *)
      src.(i) <- push v (chain.(i) - 1);
      ignore (push (-1) 0 : int)
    end
    else if v >= 0 then
      nodes.(i) <- (if Itree.is_leaf it v then Leaf it.Itree.value.(v) else tile_at v)
  done;
  (* Dummy tiles are made once the tree's real shapes are interned, so the
     dummy shape takes its id after them. They share one pair of lane
     arrays. *)
  if num_dummies > 0 then begin
    let shape_id = Lut.shape_id_of_code lut dummy_code in
    let shape = Lut.shape_of_id lut shape_id in
    let features = Array.make tile_size 0 in
    let thresholds = Array.make tile_size infinity in
    for i = 0 to size - 1 do
      if chain.(i) > 0 then
        nodes.(i) <-
          Tile
            { node_ids = [||]; features; thresholds; shape; shape_id;
              children = [| src.(i); src.(i) + 1 |] }
    done
  end;
  { tile_size; nodes; lut; source_leaves = !leaves }

let comparison_bits t (tile : tile) row =
  let bits = ref 0 in
  for lane = 0 to t.tile_size - 1 do
    (* Dummy lanes compare against +inf, so their bit is always set; the
       LUT ignores those positions anyway. *)
    let b = if row.(tile.features.(lane)) < tile.thresholds.(lane) then 1 else 0 in
    bits := !bits lor (b lsl (t.tile_size - 1 - lane))
  done;
  !bits

let step t i row =
  match t.nodes.(i) with
  | Leaf _ -> invalid_arg "Tiled_tree.step: node is a leaf"
  | Tile tile ->
    let bits = comparison_bits t tile row in
    tile.children.(Lut.lookup t.lut ~shape_id:tile.shape_id ~bits)

let walk t row =
  let rec go i =
    match t.nodes.(i) with Leaf v -> v | Tile _ -> go (step t i row)
  in
  go 0

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
