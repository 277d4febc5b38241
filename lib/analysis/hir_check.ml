module D = Tb_diag.Diagnostic
module Schedule = Tb_hir.Schedule
module Itree = Tb_hir.Itree
module Shape = Tb_hir.Shape
module Lut = Tb_hir.Lut
module Tiled_tree = Tb_hir.Tiled_tree
module Reorder = Tb_hir.Reorder
module Program = Tb_hir.Program
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest

let err ~code ~path fmt = D.errorf ~level:D.Hir ~code ~path fmt

let prefix seg ds = List.map (fun d -> { d with D.path = seg :: d.D.path }) ds

(* ------------------------------------------------------------------ *)
(* Schedule legality                                                   *)
(* ------------------------------------------------------------------ *)

let check_schedule ?batch_size ?cores (s : Schedule.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let serr code fmt = D.errorf ~level:D.Schedule ~code ~path:[] fmt in
  let swarn code fmt = D.warningf ~level:D.Schedule ~code ~path:[] fmt in
  if s.Schedule.tile_size < 1 || s.Schedule.tile_size > 8 then
    add (serr "S001" "tile_size %d outside 1..8" s.Schedule.tile_size);
  if s.Schedule.interleave < 1 then
    add (serr "S002" "interleave %d < 1 (1 disables jamming)" s.Schedule.interleave);
  if s.Schedule.num_threads < 1 then
    add (serr "S003" "num_threads %d < 1" s.Schedule.num_threads);
  if not (s.Schedule.alpha > 0.0 && s.Schedule.alpha <= 1.0) then
    add (serr "S004" "alpha %g outside (0, 1]" s.Schedule.alpha);
  if not (s.Schedule.beta > 0.0 && s.Schedule.beta <= 1.0) then
    add (serr "S005" "beta %g outside (0, 1]" s.Schedule.beta);
  if s.Schedule.pad_imbalance_limit < 0 then
    add (serr "S006" "pad_imbalance_limit %d < 0" s.Schedule.pad_imbalance_limit);
  (match batch_size with
  | Some b when b >= 1 ->
    if s.Schedule.num_threads > b then
      add
        (swarn "S010"
           "num_threads %d exceeds batch size %d: trailing domains receive \
            empty row ranges"
           s.Schedule.num_threads b);
    if s.Schedule.interleave > b then
      add
        (swarn "S011"
           "interleave %d exceeds batch size %d: the jam never fills"
           s.Schedule.interleave b)
  | _ -> ());
  (match cores with
  | Some c when c >= 1 && s.Schedule.num_threads > c ->
    add
      (swarn "S013"
         "num_threads %d exceeds the target's %d cores: oversubscribed \
          domains serialize on the row loop (clamp with \
          Schedule.clamp_threads)"
         s.Schedule.num_threads c)
  | _ -> ());
  if s.Schedule.layout = Schedule.Array_layout && s.Schedule.tile_size >= 4 then
    add
      (swarn "S012"
         "array layout with tile size %d: slab size grows as \
          (tile_size+1)^depth; prefer the sparse layout for large tiles"
         s.Schedule.tile_size);
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Tiling validity (the four §III-B1 constraints)                      *)
(* ------------------------------------------------------------------ *)

(* Core shared by [check_tiling] (over a [Tiling.t]) and
   [check_tree_against_source] (over an ownership map reconstructed from a
   tiled tree). Reports every violation instead of stopping at the first. *)
let tiling_core (it : Itree.t) ~tile_size ~(tile_of_node : int array) ~num_tiles
    =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (* Partitioning (H001) + leaf separation (H003). *)
  for n = 0 to it.Itree.num_nodes - 1 do
    let path = [ Printf.sprintf "node %d" n ] in
    if Itree.is_leaf it n then begin
      if tile_of_node.(n) <> -1 then
        add
          (err ~code:"H003" ~path "leaf node %d assigned to tile %d" n
             tile_of_node.(n))
    end
    else if tile_of_node.(n) < 0 || tile_of_node.(n) >= num_tiles then
      add
        (err ~code:"H001" ~path "internal node %d not in any tile (owner %d)"
           n tile_of_node.(n))
  done;
  (* Group internal nodes per tile. *)
  let members = Array.make (max num_tiles 1) [] in
  for n = it.Itree.num_nodes - 1 downto 0 do
    if (not (Itree.is_leaf it n)) && tile_of_node.(n) >= 0
       && tile_of_node.(n) < num_tiles
    then members.(tile_of_node.(n)) <- n :: members.(tile_of_node.(n))
  done;
  for tid = 0 to num_tiles - 1 do
    let path = [ Printf.sprintf "tile %d" tid ] in
    let nodes = members.(tid) in
    let size = List.length nodes in
    if nodes = [] then add (err ~code:"H001" ~path "tile %d is empty" tid)
    else begin
      if size > tile_size then
        add
          (err ~code:"H001" ~path "tile %d has %d nodes, exceeding tile size %d"
             tid size tile_size);
      (* Connectedness (H002): exactly one member's parent lies outside. *)
      let roots =
        List.filter
          (fun n ->
            let p = it.Itree.parent.(n) in
            p < 0 || tile_of_node.(p) <> tid)
          nodes
      in
      (match roots with
      | [ _ ] -> ()
      | rs ->
        add
          (err ~code:"H002" ~path
             "tile %d is not a connected subtree (%d external-parent nodes)"
             tid (List.length rs)));
      (* Maximal tiling (H004): an under-full tile may not have an internal
         out-neighbour. *)
      if size < tile_size then begin
        let offender =
          List.find_opt
            (fun n ->
              List.exists
                (fun c -> (not (Itree.is_leaf it c)) && tile_of_node.(c) <> tid)
                [ it.Itree.left.(n); it.Itree.right.(n) ])
            nodes
        in
        match offender with
        | Some n ->
          add
            (err ~code:"H004" ~path
               "tile %d is under-full (%d < %d) but node %d has an internal \
                out-edge"
               tid size tile_size n)
        | None -> ()
      end
    end
  done;
  List.rev !ds

let check_tiling it (t : Tb_hir.Tiling.t) =
  tiling_core it ~tile_size:t.Tb_hir.Tiling.tile_size
    ~tile_of_node:t.Tb_hir.Tiling.tile_of_node
    ~num_tiles:t.Tb_hir.Tiling.num_tiles

(* ------------------------------------------------------------------ *)
(* LUT totality (H010)                                                 *)
(* ------------------------------------------------------------------ *)

let check_lut lut =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let nt = Lut.tile_size lut in
  let width = 1 lsl nt in
  let rows = Lut.table lut in
  for id = 0 to Lut.num_shapes lut - 1 do
    let path = [ Printf.sprintf "shape %d" id ] in
    let shape = Lut.shape_of_id lut id in
    let exits = Shape.num_exits shape in
    let row = rows.(id) in
    if Array.length row <> width then
      add
        (err ~code:"H010" ~path "LUT row has %d entries, expected 2^%d = %d"
           (Array.length row) nt width)
    else
      let idx = Shape.index shape in
      for bits = 0 to width - 1 do
        let c = row.(bits) in
        if c < 0 || c >= exits then
          add
            (err ~code:"H010" ~path
               "entry for bits %#x is %d, outside the shape's %d exits" bits c
               exits)
        else begin
          let expect = Shape.navigate_index idx ~tile_size:nt ~bits in
          if c <> expect then
            add
              (err ~code:"H010" ~path
                 "entry for bits %#x is %d but navigating the shape reaches \
                  exit %d"
                 bits c expect)
        end
      done
  done;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Tiled-tree structure (H020/H030/H031)                               *)
(* ------------------------------------------------------------------ *)

let check_tiled_tree ?num_features (t : Tiled_tree.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let n = Array.length t.Tiled_tree.nodes in
  if n = 0 then [ err ~code:"H030" ~path:[] "tiled tree has no nodes" ]
  else begin
    let nt = t.Tiled_tree.tile_size in
    let refs = Array.make n 0 in
    Array.iteri
      (fun i node ->
        match node with
        | Tiled_tree.Leaf _ -> ()
        | Tiled_tree.Tile tile ->
          let path = [ Printf.sprintf "tile node %d" i ] in
          if
            Array.length tile.Tiled_tree.features <> nt
            || Array.length tile.Tiled_tree.thresholds <> nt
          then
            add
              (err ~code:"H030" ~path
                 "lane arrays have %d/%d entries, expected tile size %d"
                 (Array.length tile.Tiled_tree.features)
                 (Array.length tile.Tiled_tree.thresholds)
                 nt);
          let shape_size = Shape.size tile.Tiled_tree.shape in
          if shape_size > nt then
            add
              (err ~code:"H030" ~path "shape has %d nodes, exceeding tile size %d"
                 shape_size nt);
          let exits = Shape.num_exits tile.Tiled_tree.shape in
          if Array.length tile.Tiled_tree.children <> exits then
            add
              (err ~code:"H030" ~path
                 "tile has %d children but its shape has %d exits"
                 (Array.length tile.Tiled_tree.children)
                 exits);
          if
            tile.Tiled_tree.shape_id < 0
            || tile.Tiled_tree.shape_id >= Lut.num_shapes t.Tiled_tree.lut
          then
            add
              (err ~code:"H030" ~path
                 "shape id %d outside the LUT registry (%d shapes)"
                 tile.Tiled_tree.shape_id
                 (Lut.num_shapes t.Tiled_tree.lut))
          else if
            not
              (Shape.equal
                 (Lut.shape_of_id t.Tiled_tree.lut tile.Tiled_tree.shape_id)
                 tile.Tiled_tree.shape)
          then
            add
              (err ~code:"H030" ~path
                 "shape id %d does not resolve to the tile's shape in the LUT"
                 tile.Tiled_tree.shape_id);
          Array.iter
            (fun c ->
              if c < 0 || c >= n then
                add
                  (err ~code:"H030" ~path "child index %d outside nodes array" c)
              else if c = i then
                add (err ~code:"H030" ~path "tile is its own child")
              else refs.(c) <- refs.(c) + 1)
            tile.Tiled_tree.children;
          let k = Array.length tile.Tiled_tree.node_ids in
          if k > shape_size then
            add
              (err ~code:"H030" ~path
                 "tile carries %d source nodes but its shape has only %d" k
                 shape_size);
          (* Padding well-formedness (H020): lanes past the real nodes must
             be always-true dummies; a dummy tile routes only through exit
             0, so its other exits must be dead leaves. *)
          for lane = k to min nt (Array.length tile.Tiled_tree.features) - 1 do
            if
              tile.Tiled_tree.features.(lane) <> 0
              || tile.Tiled_tree.thresholds.(lane) <> infinity
            then
              add
                (err ~code:"H020" ~path
                   "padding lane %d is not the dummy predicate \
                    (feature 0 < +inf): feature %d < %g"
                   lane
                   tile.Tiled_tree.features.(lane)
                   tile.Tiled_tree.thresholds.(lane))
          done;
          if Tiled_tree.is_dummy tile then
            Array.iteri
              (fun j c ->
                if j > 0 && c >= 0 && c < n then
                  match t.Tiled_tree.nodes.(c) with
                  | Tiled_tree.Leaf _ -> ()
                  | Tiled_tree.Tile _ ->
                    add
                      (err ~code:"H020" ~path
                         "dummy tile exit %d leads to a tile; only exit 0 \
                          may continue the walk"
                         j))
              tile.Tiled_tree.children
          else begin
            match num_features with
            | None -> ()
            | Some nf ->
              for lane = 0 to k - 1 do
                let f = tile.Tiled_tree.features.(lane) in
                if f < 0 || f >= nf then
                  add
                    (err ~code:"H031" ~path
                       "lane %d reads feature %d outside the model's %d \
                        features"
                       lane f nf)
              done
          end)
      t.Tiled_tree.nodes;
    (* Tree-ness (H030): node 0 is the root; every other node has exactly
       one parent edge. *)
    if refs.(0) > 0 then
      add (err ~code:"H030" ~path:[] "root node is referenced as a child");
    for i = 1 to n - 1 do
      if refs.(i) <> 1 then
        add
          (err ~code:"H030"
             ~path:[ Printf.sprintf "node %d" i ]
             "node has %d parent edges, expected exactly 1" refs.(i))
    done;
    List.rev !ds
  end

(* ------------------------------------------------------------------ *)
(* Deep model/IR consistency (H032 + reconstructed tiling)             *)
(* ------------------------------------------------------------------ *)

(* Replicas of Tiled_tree's construction helpers, driven by the ownership
   map reconstructed from [node_ids] — so a corrupted tiled tree is checked
   against the source model, not against itself. *)
let reconstructed_shape_and_exits (it : Itree.t) ~tile_of_node ~tid root =
  let in_tile c = (not (Itree.is_leaf it c)) && tile_of_node.(c) = tid in
  let exits = ref [] in
  let rec build n =
    let side c =
      if in_tile c then Some (build c)
      else begin
        exits := c :: !exits;
        None
      end
    in
    let l = side it.Itree.left.(n) in
    let r = side it.Itree.right.(n) in
    Shape.Node (l, r)
  in
  let shape = build root in
  (shape, Array.of_list (List.rev !exits))

let reconstructed_level_order (it : Itree.t) ~tile_of_node ~tid root =
  let queue = Queue.create () in
  Queue.add root queue;
  let acc = ref [] in
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    acc := n :: !acc;
    let push c =
      if (not (Itree.is_leaf it c)) && tile_of_node.(c) = tid then
        Queue.add c queue
    in
    push it.Itree.left.(n);
    push it.Itree.right.(n)
  done;
  Array.of_list (List.rev !acc)

(* Follow a padding chain: dummy tiles forward the walk through exit 0. *)
let rec resolve_padding (t : Tiled_tree.t) i =
  if i < 0 || i >= Array.length t.Tiled_tree.nodes then None
  else
    match t.Tiled_tree.nodes.(i) with
    | Tiled_tree.Leaf v -> Some (`Leaf v)
    | Tiled_tree.Tile tile ->
      if Tiled_tree.is_dummy tile then
        if Array.length tile.Tiled_tree.children > 0 then
          resolve_padding t tile.Tiled_tree.children.(0)
        else None
      else Some (`Tile tile)

let check_tree_against_source (source : Tree.t) (t : Tiled_tree.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let it = Itree.of_tree source in
  let nt = t.Tiled_tree.tile_size in
  (* Reconstruct the ownership map from the tiles' node_ids. *)
  let tile_of_node = Array.make it.Itree.num_nodes (-1) in
  let num_real = ref 0 in
  let tids = Hashtbl.create 16 (* tiled node index -> reconstructed tid *) in
  Array.iteri
    (fun i node ->
      match node with
      | Tiled_tree.Leaf _ -> ()
      | Tiled_tree.Tile tile ->
        if not (Tiled_tree.is_dummy tile) then begin
          let tid = !num_real in
          incr num_real;
          Hashtbl.add tids i tid;
          Array.iter
            (fun nid ->
              let path = [ Printf.sprintf "tile node %d" i ] in
              if nid < 0 || nid >= it.Itree.num_nodes then
                add
                  (err ~code:"H032" ~path
                     "tile references source node %d, outside the tree's %d \
                      nodes"
                     nid it.Itree.num_nodes)
              else if tile_of_node.(nid) <> -1 then
                add
                  (err ~code:"H001" ~path
                     "source node %d claimed by two tiles" nid)
              else tile_of_node.(nid) <- tid)
            tile.Tiled_tree.node_ids
        end)
    t.Tiled_tree.nodes;
  (* Degenerate single-leaf tree: the tiled form must be that leaf. *)
  if Itree.is_leaf it Itree.root then begin
    match t.Tiled_tree.nodes with
    | [| Tiled_tree.Leaf v |] when v = it.Itree.value.(Itree.root) -> ()
    | _ ->
      add
        (err ~code:"H032" ~path:[]
           "single-leaf source tree not tiled as a lone leaf")
  end
  else begin
    (* The four tiling constraints over the reconstructed map. *)
    List.iter add
      (tiling_core it ~tile_size:nt ~tile_of_node ~num_tiles:!num_real);
    (* Per-tile deep checks: lanes, shape and exits against the source. *)
    Array.iteri
      (fun i node ->
        match node with
        | Tiled_tree.Leaf _ -> ()
        | Tiled_tree.Tile tile ->
          if not (Tiled_tree.is_dummy tile) then begin
            let path = [ Printf.sprintf "tile node %d" i ] in
            let tid = Hashtbl.find tids i in
            let ok_ids =
              Array.for_all
                (fun nid -> nid >= 0 && nid < it.Itree.num_nodes)
                tile.Tiled_tree.node_ids
            in
            if ok_ids && Array.length tile.Tiled_tree.node_ids > 0 then begin
              let root = tile.Tiled_tree.node_ids.(0) in
              (* Lane order must be the intra-tile level order. *)
              let lo = reconstructed_level_order it ~tile_of_node ~tid root in
              if lo <> tile.Tiled_tree.node_ids then
                add
                  (err ~code:"H032" ~path
                     "lane order does not match the intra-tile level order \
                      of the source nodes")
              else begin
                (* Lane predicates must reproduce the source nodes. *)
                Array.iteri
                  (fun lane nid ->
                    if
                      lane < Array.length tile.Tiled_tree.features
                      && (tile.Tiled_tree.features.(lane)
                            <> it.Itree.feature.(nid)
                         || tile.Tiled_tree.thresholds.(lane)
                            <> it.Itree.threshold.(nid))
                    then
                      add
                        (err ~code:"H032" ~path
                           "lane %d is (feature %d < %g) but source node %d \
                            is (feature %d < %g)"
                           lane
                           tile.Tiled_tree.features.(lane)
                           tile.Tiled_tree.thresholds.(lane)
                           nid
                           it.Itree.feature.(nid)
                           it.Itree.threshold.(nid)))
                  tile.Tiled_tree.node_ids;
                (* Shape and exit wiring must match a reconstruction from
                   the source tree. *)
                let shape, exits =
                  reconstructed_shape_and_exits it ~tile_of_node ~tid root
                in
                if not (Shape.equal shape tile.Tiled_tree.shape) then
                  add
                    (err ~code:"H032" ~path
                       "tile shape %s does not match the source structure %s"
                       (Shape.to_string tile.Tiled_tree.shape)
                       (Shape.to_string shape))
                else if
                  Array.length exits = Array.length tile.Tiled_tree.children
                then
                  Array.iteri
                    (fun j e ->
                      let expected =
                        if Itree.is_leaf it e then `Leaf it.Itree.value.(e)
                        else `Root e
                      in
                      match
                        (resolve_padding t tile.Tiled_tree.children.(j),
                         expected)
                      with
                      | Some (`Leaf v), `Leaf v' when v = v' -> ()
                      | Some (`Tile child), `Root e'
                        when Array.length child.Tiled_tree.node_ids > 0
                             && child.Tiled_tree.node_ids.(0) = e' -> ()
                      | _ ->
                        add
                          (err ~code:"H032" ~path
                             "exit %d does not lead to source node %d's \
                              subtree"
                             j e))
                    exits
              end
            end
          end)
      t.Tiled_tree.nodes
  end;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Whole-program checks (H040/H041)                                    *)
(* ------------------------------------------------------------------ *)

let check_program (p : Program.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let addl l = List.iter add l in
  addl (check_schedule p.Program.schedule);
  addl (check_lut p.Program.lut);
  let nf = p.Program.forest.Forest.num_features in
  let num_trees = Array.length p.Program.trees in
  let src_trees = Array.length p.Program.forest.Forest.trees in
  if num_trees <> src_trees then
    add
      (err ~code:"H040" ~path:[] "HIR has %d trees but the forest has %d"
         num_trees src_trees);
  (* original_index must be a permutation of the source trees (H040). *)
  let seen = Array.make (max src_trees 1) false in
  Array.iteri
    (fun i (e : Program.tree_entry) ->
      let path = [ Printf.sprintf "tree %d" i ] in
      let oi = e.Program.original_index in
      if oi < 0 || oi >= src_trees then
        add
          (err ~code:"H040" ~path
             "original_index %d outside the forest's %d trees" oi src_trees)
      else if seen.(oi) then
        add
          (err ~code:"H040" ~path "original_index %d appears more than once" oi)
      else seen.(oi) <- true)
    p.Program.trees;
  (* Per-tree structural and model-consistency checks. *)
  Array.iteri
    (fun i (e : Program.tree_entry) ->
      let seg = Printf.sprintf "tree %d" i in
      let tt = e.Program.tiled in
      if tt.Tiled_tree.tile_size <> p.Program.schedule.Schedule.tile_size then
        add
          (err ~code:"H030" ~path:[ seg ]
             "tiled with tile size %d but the schedule says %d"
             tt.Tiled_tree.tile_size p.Program.schedule.Schedule.tile_size);
      addl (prefix seg (check_tiled_tree ~num_features:nf tt));
      let oi = e.Program.original_index in
      if oi >= 0 && oi < src_trees then
        addl
          (prefix seg
             (check_tree_against_source p.Program.forest.Forest.trees.(oi) tt)))
    p.Program.trees;
  (* Groups: exact cover of tree positions (H040) + honest claims (H041). *)
  let covered = Array.make (max num_trees 1) 0 in
  List.iteri
    (fun gi (g : Reorder.group) ->
      let path = [ Printf.sprintf "group %d" gi ] in
      Array.iter
        (fun pos ->
          if pos < 0 || pos >= num_trees then
            add
              (err ~code:"H040" ~path "position %d outside the %d trees" pos
                 num_trees)
          else covered.(pos) <- covered.(pos) + 1)
        g.Reorder.positions;
      let depths =
        Array.to_list g.Reorder.positions
        |> List.filter_map (fun pos ->
               if pos >= 0 && pos < num_trees then
                 Some (Tiled_tree.depth p.Program.trees.(pos).Program.tiled)
               else None)
      in
      let max_depth = List.fold_left max 0 depths in
      if g.Reorder.uniform then begin
        Array.iter
          (fun pos ->
            if pos >= 0 && pos < num_trees then begin
              let tt = p.Program.trees.(pos).Program.tiled in
              if not (Tiled_tree.is_uniform_depth tt) then
                add
                  (err ~code:"H041" ~path
                     "claimed uniform but tree at position %d has leaves at \
                      different depths"
                     pos)
              else if Tiled_tree.depth tt <> g.Reorder.walk_depth then
                add
                  (err ~code:"H041" ~path
                     "claimed uniform depth %d but tree at position %d has \
                      depth %d"
                     g.Reorder.walk_depth pos (Tiled_tree.depth tt))
            end)
          g.Reorder.positions
      end
      else if depths <> [] && g.Reorder.walk_depth <> max_depth then
        add
          (err ~code:"H041" ~path
             "walk_depth %d differs from the group's max tiled depth %d"
             g.Reorder.walk_depth max_depth);
      if g.Reorder.shared_structure then begin
        let keys =
          Array.to_list g.Reorder.positions
          |> List.filter_map (fun pos ->
                 if pos >= 0 && pos < num_trees then
                   Some
                     (Tiled_tree.structure_key
                        p.Program.trees.(pos).Program.tiled)
                 else None)
        in
        match keys with
        | [] -> ()
        | k0 :: rest ->
          if not (List.for_all (String.equal k0) rest) then
            add
              (err ~code:"H041" ~path
                 "claimed shared structure but structure keys differ")
      end)
    p.Program.groups;
  for pos = 0 to num_trees - 1 do
    if covered.(pos) <> 1 then
      add
        (err ~code:"H040"
           ~path:[ Printf.sprintf "tree %d" pos ]
           "tree position covered by %d groups, expected exactly 1"
           covered.(pos))
  done;
  List.rev !ds
