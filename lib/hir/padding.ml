module T = Tiled_tree

(* Recursive intermediate form, flattened back to BFS order at the end. *)
type rnode =
  | RLeaf of float
  | RTile of tile_info * rnode array

and tile_info = {
  node_ids : int array;
  features : int array;
  thresholds : float array;
  shape : Shape.t;
  shape_id : int;
}

let to_rnode (t : T.t) =
  let rec go i =
    match t.T.nodes.(i) with
    | T.Leaf v -> RLeaf v
    | T.Tile tile ->
      RTile
        ( {
            node_ids = tile.T.node_ids;
            features = tile.T.features;
            thresholds = tile.T.thresholds;
            shape = tile.T.shape;
            shape_id = tile.T.shape_id;
          },
          Array.map go tile.T.children )
  in
  go 0

let of_rnode (t : T.t) root =
  (* Flatten in BFS order (root first, siblings contiguous). *)
  let count = ref 0 in
  let queue = Queue.create () in
  let enqueue r =
    let id = !count in
    incr count;
    Queue.add (id, r) queue;
    id
  in
  let (_ : int) = enqueue root in
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let id, r = Queue.pop queue in
    match r with
    | RLeaf v -> out := (id, T.Leaf v) :: !out
    | RTile (info, children) ->
      let child_ids = Array.map enqueue children in
      out :=
        ( id,
          T.Tile
            {
              T.node_ids = info.node_ids;
              features = info.features;
              thresholds = info.thresholds;
              shape = info.shape;
              shape_id = info.shape_id;
              children = child_ids;
            } )
        :: !out
  done;
  let arr = Array.make !count (T.Leaf 0.0) in
  List.iter (fun (id, n) -> arr.(id) <- n) !out;
  { t with T.nodes = arr }

let dummy_tile (t : T.t) inner =
  let shape = Shape.Node (None, None) in
  let info =
    {
      node_ids = [||];
      features = Array.make t.T.tile_size 0;
      thresholds = Array.make t.T.tile_size infinity;
      shape;
      shape_id = Lut.shape_id t.T.lut shape;
    }
  in
  (* Exit 0 continues to the real subtree; exit 1 is a dead leaf. *)
  RTile (info, [| inner; RLeaf 0.0 |])

let static_rchildren info children =
  if Array.length info.node_ids = 0 then [| children.(0) |] else children

(* Pad every reachable leaf down to [target], which is at least the
   tree's depth. *)
let pad_leaves (t : T.t) ~target =
  let rec pad r d =
    match r with
    | RLeaf v ->
      if d >= target then RLeaf v
      else dummy_tile t (pad (RLeaf v) (d + 1))
    | RTile (info, children) ->
      (* Only reachable children are padded; the dead leaf of an existing
         dummy tile stays where it is. *)
      let reachable = static_rchildren info children in
      let padded = Array.map (fun c -> pad c (d + 1)) reachable in
      let children' =
        if Array.length reachable = Array.length children then padded
        else Array.append padded (Array.sub children 1 (Array.length children - 1))
      in
      RTile (info, children')
  in
  of_rnode t (pad (to_rnode t) 0)

let pad_to_depth t ~depth =
  if depth < T.depth t then invalid_arg "Padding.pad_to_depth: target too small";
  pad_leaves t ~target:depth

let imbalance t =
  let lo, hi = T.depth_range t in
  hi - lo

let pad_to_uniform_depth t =
  let lo, hi = T.depth_range t in
  if lo = hi then t else pad_leaves t ~target:hi
