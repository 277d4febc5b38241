type t = {
  tile_size : int;
  tile_of_node : int array;
  num_tiles : int;
}

(* Shared skeleton: [make_tile root members] writes the tile rooted at
   [root] (internal nodes only) into [members] and returns its size.
   Tiles are numbered depth first, a tile before the subtrees below its
   exits, which are taken in member order, left before right (the paper's
   [Out(Tile)] recursion). *)
let tile_with ~make_tile (it : Itree.t) ~tile_size =
  let tile_of_node = Array.make it.Itree.num_nodes (-1) in
  let members = Array.make tile_size 0 and num_tiles = ref 0 in
  let rec tile_tree root =
    if not (Itree.is_leaf it root || tile_of_node.(root) >= 0) then begin
      let id = !num_tiles in
      incr num_tiles;
      let tile = Array.sub members 0 (make_tile root members) in
      Array.iter (fun n -> tile_of_node.(n) <- id) tile;
      Array.iter
        (fun n ->
          tile_tree it.Itree.left.(n);
          tile_tree it.Itree.right.(n))
        tile
    end
  in
  tile_tree Itree.root;
  { tile_size; tile_of_node; num_tiles = !num_tiles }

let basic (it : Itree.t) ~tile_size =
  (* LevelOrderTraversal of Algorithm 2: BFS from the tile root over one
     reused array queue, skipping leaves, until the tile is full. *)
  let queue = Array.make ((2 * tile_size) + 1) 0 in
  let make_tile root members =
    queue.(0) <- root;
    let head = ref 0 and tail = ref 1 and count = ref 0 in
    while !head < !tail && !count < tile_size do
      let n = queue.(!head) in
      incr head;
      if not (Itree.is_leaf it n) then begin
        members.(!count) <- n;
        incr count;
        queue.(!tail) <- it.Itree.left.(n);
        queue.(!tail + 1) <- it.Itree.right.(n);
        tail := !tail + 2
      end
    done;
    !count
  in
  tile_with ~make_tile it ~tile_size

let probability_based (it : Itree.t) ~node_probs ~tile_size =
  let make_tile root members =
    (* Algorithm 1: greedily add the most probable internal out-node. *)
    let tile = ref [ root ] in
    let count = ref 1 in
    let continue = ref true in
    while !continue && !count < tile_size do
      let candidates =
        List.concat_map
          (fun n ->
            List.filter
              (fun c -> (not (Itree.is_leaf it c)) && not (List.mem c !tile))
              [ it.Itree.left.(n); it.Itree.right.(n) ])
          !tile
      in
      match candidates with
      | [] -> continue := false
      | c0 :: rest ->
        let best =
          List.fold_left
            (fun best c -> if node_probs.(c) > node_probs.(best) then c else best)
            c0 rest
        in
        tile := best :: !tile;
        incr count
    done;
    List.iteri (fun k n -> members.(k) <- n) (List.rev !tile);
    !count
  in
  tile_with ~make_tile it ~tile_size

(* ------------------------------------------------------------------ *)
(* Dynamic-programming tilings                                          *)
(* ------------------------------------------------------------------ *)

(* Enumerate every connected set of internal nodes rooted at [v] with at
   most [budget] nodes. Because candidates are assembled from disjoint
   left/right sub-choices, each rooted set is generated exactly once. A
   choice is a node list plus its internal exits (out-edges to internal
   nodes); leaf exits never constrain the DP. *)
let rooted_tiles (it : Itree.t) v budget =
  (* side v b: choices for the subtree hanging off child [v]: either cut
     here (v becomes an exit) or, if internal, include a rooted tile. *)
  let rec tiles v budget =
    (* v is internal; budget >= 1. *)
    let l = it.Itree.left.(v) and r = it.Itree.right.(v) in
    let acc = ref [] in
    for left_size = 0 to budget - 1 do
      let left_choices = side l left_size in
      if left_choices <> [] then begin
        let right_choices = side r (budget - 1 - left_size) in
        List.iter
          (fun (ln, le, lsz) ->
            List.iter
              (fun (rn, re, rsz) ->
                if lsz = left_size then
                  acc := ((v :: ln) @ rn, le @ re, 1 + lsz + rsz) :: !acc)
              right_choices)
          left_choices
      end
    done;
    !acc
  and side v budget =
    if Itree.is_leaf it v then
      (* A leaf exit: contributes no nodes and no internal exits, and only
         exists as the single size-0 choice. *)
      if budget = 0 then [ ([], [], 0) ] else []
    else begin
      (* Either cut the edge (internal exit), using size 0... *)
      let cut = if budget = 0 then [ ([], [ v ], 0) ] else [] in
      (* ...or include a rooted tile of exactly [budget] nodes. *)
      let inc =
        if budget >= 1 then
          List.filter (fun (_, _, sz) -> sz = budget) (tiles v budget)
        else []
      in
      cut @ inc
    end
  in
  (* Collect choices of every size 1..budget rooted at v. *)
  List.concat_map
    (fun b -> List.filter (fun (_, _, sz) -> sz = b) (tiles v b))
    (List.init budget (fun i -> i + 1))

(* Maximal-tiling rule: an under-full tile may not have internal exits. *)
let admissible tile_size (nodes, internal_exits, size) =
  ignore nodes;
  size = tile_size || internal_exits = []

(* Generic DP over rooted tiles: [combine] folds the exit costs, [seed] is
   the per-tile base cost. Returns the per-root cost and chosen tile. *)
let dp_tiling (it : Itree.t) ~tile_size ~cost_of_root ~combine_exits =
  let n = it.Itree.num_nodes in
  let memo_cost = Array.make n Float.nan in
  let memo_tile : (int list * int list) array = Array.make n ([], []) in
  let rec solve v =
    if not (Float.is_nan memo_cost.(v)) then memo_cost.(v)
    else begin
      let candidates =
        List.filter (admissible tile_size) (rooted_tiles it v tile_size)
      in
      let best = ref Float.infinity and best_tile = ref ([ v ], []) in
      List.iter
        (fun (nodes, exits, _) ->
          let c = cost_of_root v +. combine_exits (List.map solve exits) in
          if c < !best then begin
            best := c;
            best_tile := (nodes, exits)
          end)
        candidates;
      memo_cost.(v) <- !best;
      memo_tile.(v) <- !best_tile;
      !best
    end
  in
  let tile_of_node = Array.make n (-1) in
  let num_tiles = ref 0 in
  let rec emit v =
    let (_ : float) = solve v in
    let nodes, exits = memo_tile.(v) in
    let id = !num_tiles in
    incr num_tiles;
    List.iter (fun u -> tile_of_node.(u) <- id) nodes;
    List.iter emit exits
  in
  if not (Itree.is_leaf it Itree.root) then emit Itree.root;
  { tile_size; tile_of_node; num_tiles = !num_tiles }

let optimal_probability_based (it : Itree.t) ~node_probs ~tile_size =
  dp_tiling it ~tile_size
    ~cost_of_root:(fun v -> node_probs.(v))
    ~combine_exits:(List.fold_left ( +. ) 0.0)

let min_max_depth (it : Itree.t) ~tile_size =
  dp_tiling it ~tile_size
    ~cost_of_root:(fun _ -> 1.0)
    ~combine_exits:(fun costs ->
      (* max leaf depth below this tile, with a tiny tile-count tiebreak so
         equal-depth solutions prefer fewer tiles. *)
      List.fold_left Float.max 0.0 costs
      +. (1e-6 *. List.fold_left ( +. ) 0.0 costs))

let nodes_of_tile t tile_id =
  let acc = ref [] in
  for n = Array.length t.tile_of_node - 1 downto 0 do
    if t.tile_of_node.(n) = tile_id then acc := n :: !acc
  done;
  !acc

let tile_root (it : Itree.t) t tile_id =
  let nodes = nodes_of_tile t tile_id in
  match
    List.filter
      (fun n ->
        let p = it.Itree.parent.(n) in
        p < 0 || t.tile_of_node.(p) <> tile_id)
      nodes
  with
  | [ r ] -> r
  | [] -> invalid_arg "Tiling.tile_root: empty or rootless tile"
  | _ -> invalid_arg "Tiling.tile_root: disconnected tile"
