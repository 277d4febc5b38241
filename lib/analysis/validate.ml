(* Translation validation: symbolic path-summary equivalence across the
   lowering pipeline, with concrete counterexample witnesses.

   Each compiled form of a tree is symbolically executed into the set of
   (feature box, leaf contribution) pairs it can produce. A box is a
   conjunction of half-open interval constraints, refined one predicate
   at a time: the node test [x_f < t] splits an interval [lo, hi) into a
   true part [lo, min(hi, t)) and a false part [max(lo, t), hi), either
   of which may be empty. Padding lanes and hop tiles compare against
   +inf, whose false part is always empty — so they add no paths and
   correct lowerings produce structurally identical summaries.

   The key cost control is the LUT-row decision structure: rather than
   enumerating all 2^tile_size comparison bitmasks at every tile, each
   LUT row is compiled once (memoized by physical row identity, which
   {!Tb_hir.Lut} shares across HIR and LIR) into a reduced binary
   decision tree over lanes, collapsing branches the table does not
   distinguish. For a well-formed tile the reduced tree tests exactly
   the lanes on the navigation path, so the number of summary paths
   equals the source tree's leaf count; corrupt tables merely cause
   more (still sound) splits. *)

module D = Tb_diag.Diagnostic
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module T = Tb_hir.Tiled_tree
module Lut = Tb_hir.Lut
module Program = Tb_hir.Program
module Reorder = Tb_hir.Reorder
module M = Tb_mir.Mir
module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Reg_ir = Tb_lir.Reg_ir
module Reg_codegen = Tb_lir.Reg_codegen
module Interp = Tb_vm.Interp

(* ------------------------------------------------------------------ *)
(* Boxes                                                               *)
(* ------------------------------------------------------------------ *)

type interval = { feature : int; lo : float; hi : float }
type box = interval list

(* Conjoin [x_feature < threshold] (lt = true) or [>=] (lt = false) onto
   a box. Returns None when the refined region is empty. Keeps the box
   canonical: sorted by feature, tightest interval, fully unconstrained
   features omitted — so a redundant refinement is the identity. *)
let refine box ~feature ~threshold ~lt =
  let finish acc lo hi rest =
    let lo, hi =
      if lt then (lo, Float.min hi threshold)
      else (Float.max lo threshold, hi)
    in
    if not (lo < hi) then None
    else
      let rest =
        if lo = neg_infinity && hi = infinity then rest
        else { feature; lo; hi } :: rest
      in
      Some (List.rev_append acc rest)
  in
  let rec go acc = function
    | iv :: rest when iv.feature < feature -> go (iv :: acc) rest
    | iv :: rest when iv.feature = feature -> finish acc iv.lo iv.hi rest
    | rest -> finish acc neg_infinity infinity rest
  in
  go [] box

let compare_interval a b =
  match Int.compare a.feature b.feature with
  | 0 -> (
    match Float.compare a.lo b.lo with
    | 0 -> Float.compare a.hi b.hi
    | c -> c)
  | c -> c

let rec compare_box (a : box) (b : box) =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys -> (
    match compare_interval x y with 0 -> compare_box xs ys | c -> c)

let interval_of (b : box) feature =
  match List.find_opt (fun iv -> iv.feature = feature) b with
  | Some iv -> (iv.lo, iv.hi)
  | None -> (neg_infinity, infinity)

(* Replace/insert feature's interval; requires lo < hi. *)
let set_interval (b : box) feature lo hi =
  let rec go acc = function
    | iv :: rest when iv.feature < feature -> go (iv :: acc) rest
    | iv :: rest when iv.feature = feature -> finish acc rest
    | rest -> finish acc rest
  and finish acc rest =
    let rest =
      if lo = neg_infinity && hi = infinity then rest
      else { feature; lo; hi } :: rest
    in
    List.rev_append acc rest
  in
  go [] b

let intersect (a : box) (b : box) : box option =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> Some (List.rev_append acc rest)
    | x :: xs, y :: _ when x.feature < y.feature -> go (x :: acc) xs b
    | x :: _, y :: ys when x.feature > y.feature -> go (y :: acc) a ys
    | x :: xs, y :: ys ->
      let lo = Float.max x.lo y.lo and hi = Float.min x.hi y.hi in
      if not (lo < hi) then None
      else go ({ feature = x.feature; lo; hi } :: acc) xs ys
  in
  (go [] a b : box option)

(* Disjoint pieces of [region] not covered by [cover]. *)
let subtract (region : box) (cover : box) : box list =
  match intersect region cover with
  | None -> [ region ]
  | Some _ ->
    let pieces = ref [] in
    let current = ref region in
    List.iter
      (fun civ ->
        let rlo, rhi = interval_of !current civ.feature in
        if civ.lo > rlo then begin
          pieces := set_interval !current civ.feature rlo civ.lo :: !pieces;
          current := set_interval !current civ.feature civ.lo rhi
        end;
        let rlo, rhi = interval_of !current civ.feature in
        if civ.hi < rhi then begin
          pieces := set_interval !current civ.feature civ.hi rhi :: !pieces;
          current := set_interval !current civ.feature rlo civ.hi
        end)
      cover;
    !pieces

let subtract_all (region : box) (covers : box list) : box list =
  List.fold_left
    (fun regions cover -> List.concat_map (fun r -> subtract r cover) regions)
    [ region ] covers

(* A concrete row inside the box: midpoints, nudged off infinite ends;
   unconstrained features sit at 0. *)
let witness_row ~num_features (b : box) =
  let row = Array.make (max num_features 1) 0.0 in
  List.iter
    (fun iv ->
      if iv.feature >= 0 && iv.feature < Array.length row then
        row.(iv.feature) <-
          (if iv.lo = neg_infinity && iv.hi = infinity then 0.0
           else if iv.lo = neg_infinity then
             if iv.hi -. 1.0 < iv.hi then iv.hi -. 1.0 else Float.pred iv.hi
           else if iv.hi = infinity then
             if iv.lo +. 1.0 >= iv.lo then iv.lo +. 1.0 else iv.lo
           else
             let m = (iv.lo +. iv.hi) /. 2.0 in
             if m >= iv.lo && m < iv.hi then m else iv.lo))
    b;
  row

let interval_to_string iv =
  Printf.sprintf "x%d in [%g, %g)" iv.feature iv.lo iv.hi

let box_to_string = function
  | [] -> "(all rows)"
  | b -> String.concat " & " (List.map interval_to_string b)

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

type summary = {
  paths : (box * float) list;
  stuck : (box * string) list;
}

let compare_path (b1, v1) (b2, v2) =
  match compare_box b1 b2 with 0 -> Float.compare v1 v2 | c -> c

let compare_stuck (b1, m1) (b2, m2) =
  match compare_box b1 b2 with 0 -> String.compare m1 m2 | c -> c

let normalize s =
  {
    paths = List.sort compare_path s.paths;
    stuck = List.sort compare_stuck s.stuck;
  }

let num_paths s = List.length s.paths

let equal_summaries a b =
  List.equal (fun x y -> compare_path x y = 0) a.paths b.paths
  && List.equal (fun x y -> compare_stuck x y = 0) a.stuck b.stuck

(* Merge two same-value boxes that agree on every feature but one, where
   they abut. Boxes are canonical (sorted, tightest), so feature lists
   must align. *)
let merge_boxes (b1 : box) (b2 : box) : box option =
  let rec go acc merged l1 l2 =
    match (l1, l2) with
    | [], [] -> if merged then Some (List.rev acc) else None
    | iv1 :: r1, iv2 :: r2 when iv1.feature = iv2.feature ->
      if iv1.lo = iv2.lo && iv1.hi = iv2.hi then go (iv1 :: acc) merged r1 r2
      else if merged then None
      else
        let joined =
          if iv1.hi = iv2.lo then Some (iv1.lo, iv2.hi)
          else if iv2.hi = iv1.lo then Some (iv2.lo, iv1.hi)
          else None
        in
        (match joined with
        | None -> None
        | Some (lo, hi) ->
          let acc =
            if lo = neg_infinity && hi = infinity then acc
            else { feature = iv1.feature; lo; hi } :: acc
          in
          go acc true r1 r2)
    | _ -> None
  in
  go [] false b1 b2

let coalesce s =
  let merge_step paths =
    let rec scan acc = function
      | [] -> None
      | (b1, v1) :: rest ->
        let rec pair seen = function
          | [] -> None
          | (b2, v2) :: more ->
            if Float.compare v1 v2 = 0 then
              match merge_boxes b1 b2 with
              | Some b -> Some ((b, v1) :: List.rev_append seen more)
              | None -> pair ((b2, v2) :: seen) more
            else pair ((b2, v2) :: seen) more
        in
        (match pair [] rest with
        | Some rest' -> Some (List.rev_append acc rest')
        | None -> scan ((b1, v1) :: acc) rest)
    in
    scan [] paths
  in
  let rec fix paths =
    match merge_step paths with None -> paths | Some paths' -> fix paths'
  in
  normalize { s with paths = fix s.paths }

let exact_partition s =
  let boxes = List.map fst s.paths @ List.map fst s.stuck in
  let covers_everything = subtract_all [] boxes = [] in
  let rec disjoint = function
    | [] -> true
    | b :: rest ->
      List.for_all (fun b' -> intersect b b' = None) rest && disjoint rest
  in
  covers_everything && disjoint boxes

(* ------------------------------------------------------------------ *)
(* LUT-row decision structures                                         *)
(* ------------------------------------------------------------------ *)

type dtree = Child of int | Test of int * dtree * dtree
(* [Test (lane, yes, no)]: split on lane's predicate; [yes] when the
   comparison bit is set (x < t held). *)

(* BDD-style reduction with the lane order as variable order: branches
   the row does not distinguish collapse, so dummy lanes vanish and only
   lanes the table consults remain. *)
let build_dtree (row : int array) nt =
  let rec build lane bits =
    if lane = nt then Child row.(bits)
    else
      let bit = 1 lsl (nt - 1 - lane) in
      let yes = build (lane + 1) (bits lor bit) in
      let no = build (lane + 1) bits in
      if yes = no then yes else Test (lane, yes, no)
  in
  build 0 0

(* Memoized by physical row identity: HIR and LIR share row storage
   ({!Lut.table} keeps the registry's arrays), while a mutated copy is a
   distinct key — essential for the seeded-miscompile tests. *)
type dcache = (int array * dtree) list ref

let new_cache () : dcache = ref []

let dtree_for (cache : dcache) row nt =
  match List.find_opt (fun (r, _) -> r == row) !cache with
  | Some (_, dt) -> dt
  | None ->
    let dt = build_dtree row nt in
    cache := (row, dt) :: !cache;
    dt

(* Walk a decision structure, refining the box at each tested lane. *)
let split_dtree dt box ~lane_feature ~lane_threshold ~emit =
  let rec go box = function
    | Child c -> emit box c
    | Test (lane, yes, no) ->
      let feature = lane_feature lane and threshold = lane_threshold lane in
      (match refine box ~feature ~threshold ~lt:true with
      | Some b -> go b yes
      | None -> ());
      (match refine box ~feature ~threshold ~lt:false with
      | Some b -> go b no
      | None -> ())
  in
  go box dt

(* ------------------------------------------------------------------ *)
(* Summarizers                                                         *)
(* ------------------------------------------------------------------ *)

let summarize_source tree =
  let paths = ref [] in
  let rec go box = function
    | Tree.Leaf v -> paths := (box, v) :: !paths
    | Tree.Node { feature; threshold; left; right } ->
      (match refine box ~feature ~threshold ~lt:true with
      | Some b -> go b left
      | None -> ());
      (match refine box ~feature ~threshold ~lt:false with
      | Some b -> go b right
      | None -> ())
  in
  go [] tree;
  normalize { paths = !paths; stuck = [] }

(* HIR and MIR share the tiled-tree walker; MIR adds the walk kind's
   step contract on top. *)
let summarize_tiled (cache : dcache) (walk : M.walk_kind) (t : T.t) =
  let nt = t.T.tile_size in
  let n = Array.length t.T.nodes in
  let paths = ref [] and stuck = ref [] in
  let push_stuck box msg = stuck := (box, msg) :: !stuck in
  let rec go box i depth =
    if i < 0 || i >= n then push_stuck box "tile child index out of range"
    else if depth > n then push_stuck box "tiled walk deeper than the node count"
    else
      match t.T.nodes.(i) with
      | T.Leaf v -> (
        match walk with
        | M.Loop_walk -> paths := (box, v) :: !paths
        | M.Peeled_walk { peel } ->
          if depth < peel then
            push_stuck box
              (Printf.sprintf "leaf at depth %d < peel %d (check-free step on a leaf)"
                 depth peel)
          else paths := (box, v) :: !paths
        | M.Unrolled_walk { depth = d } ->
          if depth < d then
            push_stuck box
              (Printf.sprintf "leaf at depth %d < unroll depth %d" depth d)
          else paths := (box, v) :: !paths)
      | T.Tile tile -> (
        match walk with
        | M.Unrolled_walk { depth = d } when depth >= d ->
          push_stuck box
            (Printf.sprintf "still on a tile after %d unrolled steps" d)
        | _ ->
          (match Lut.row t.T.lut ~shape_id:tile.T.shape_id with
          | row when Array.length row = 1 lsl nt ->
            split_dtree (dtree_for cache row nt) box
              ~lane_feature:(fun l -> tile.T.features.(l))
              ~lane_threshold:(fun l -> tile.T.thresholds.(l))
              ~emit:(fun box c ->
                if c < 0 || c >= Array.length tile.T.children then
                  push_stuck box "LUT exit outside the tile's child list"
                else go box tile.T.children.(c) (depth + 1))
          | _ -> push_stuck box "malformed LUT row"
          | exception Invalid_argument _ -> push_stuck box "bad shape id"))
  in
  go [] 0 0;
  normalize { paths = !paths; stuck = !stuck }

let summarize_hir t = summarize_tiled (new_cache ()) M.Loop_walk t
let summarize_mir walk t = summarize_tiled (new_cache ()) walk t

let summarize_layout_c (cache : dcache) (lay : Layout.t) ~tree =
  let nt = lay.Layout.tile_size in
  let nslots = Array.length lay.Layout.shape_ids in
  let paths = ref [] and stuck = ref [] in
  let push_stuck box msg = stuck := (box, msg) :: !stuck in
  let tile box s emit =
    let sid = lay.Layout.shape_ids.(s) in
    if sid < 0 || sid >= Array.length lay.Layout.lut then
      push_stuck box (Printf.sprintf "slot %d has shape id %d" s sid)
    else
      let row = lay.Layout.lut.(sid) in
      if Array.length row <> 1 lsl nt then
        push_stuck box (Printf.sprintf "malformed LUT row %d" sid)
      else
        split_dtree (dtree_for cache row nt) box
          ~lane_feature:(fun l -> lay.Layout.features.((s * nt) + l))
          ~lane_threshold:(fun l -> lay.Layout.thresholds.((s * nt) + l))
          ~emit
  in
  if tree < 0 || tree >= Array.length lay.Layout.tree_root then
    push_stuck [] (Printf.sprintf "tree %d outside the layout" tree)
  else begin
    match lay.Layout.kind with
    | Layout.Array_kind ->
      let base = lay.Layout.tree_root.(tree) in
      let fanout = nt + 1 in
      let rec go box local depth =
        let s = base + local in
        if s < 0 || s >= nslots then
          push_stuck box (Printf.sprintf "array slot %d out of bounds" s)
        else if depth > nslots then
          push_stuck box "array walk deeper than the slot count"
        else if lay.Layout.shape_ids.(s) = Layout.leaf_marker then
          paths := (box, lay.Layout.thresholds.(s * nt)) :: !paths
        else
          tile box s (fun box c -> go box ((local * fanout) + c + 1) (depth + 1))
      in
      go [] 0 0
    | Layout.Sparse_kind ->
      let nleaves = Array.length lay.Layout.leaf_values in
      let leaf box idx =
        if idx < 0 || idx >= nleaves then
          push_stuck box (Printf.sprintf "leaf index %d out of bounds" idx)
        else paths := (box, lay.Layout.leaf_values.(idx)) :: !paths
      in
      let rec go box s depth =
        if s < 0 then leaf box (-s - 1)
        else if s >= nslots then
          push_stuck box (Printf.sprintf "sparse slot %d out of bounds" s)
        else if depth > nslots then
          push_stuck box "sparse walk exceeded the slot count (cycle?)"
        else
          tile box s (fun box c ->
              let p = lay.Layout.child_ptr.(s) in
              if p >= 0 then go box (p + c) (depth + 1)
              else leaf box (-p - 1 + c))
      in
      go [] lay.Layout.tree_root.(tree) 0
  end;
  normalize { paths = !paths; stuck = !stuck }

let summarize_layout lay ~tree = summarize_layout_c (new_cache ()) lay ~tree

(* ------------------------------------------------------------------ *)
(* Symbolic register-IR execution                                      *)
(* ------------------------------------------------------------------ *)

(* Register values stay concrete along any single path — index
   arithmetic only ever mixes constants, buffer loads and the one
   symbolic quantity, the comparison bitmask, which is resolved by
   forking at the LUT load. *)
type sval =
  | Sint of int
  | Sbits of { base : int; lanes : (int * float) array }
      (* base + movemask of per-lane [row.(feature) < threshold] bits *)

type vval =
  | Vnone
  | Vfloats of float array
  | Vints of int array
  | Vrow of int array  (* row values gathered at these feature ids *)
  | Vmask of (int * float) array  (* per-lane comparison predicates *)

type sstate = {
  iregs : sval array;
  fregs : float array;
  vregs : vval array;
  mutable sbox : box;
  mutable fuel : int;
}

exception Stuck of string

let stuck_f fmt = Printf.ksprintf (fun m -> raise (Stuck m)) fmt

let summarize_reg_c (cache : dcache) ?num_features (p : Reg_ir.walk_program)
    (lay : Layout.t) ~tree =
  if p.Reg_ir.lanes <> 1 then
    invalid_arg "Validate.summarize_reg: jammed program (project a lane first)";
  let nt = p.Reg_ir.tile_size in
  let w = 1 lsl nt in
  let nslots = Array.length lay.Layout.shape_ids in
  let paths = ref [] and stuck = ref [] in
  let arr_get name a i =
    if i < 0 || i >= Array.length a then
      stuck_f "%s load out of bounds (%d)" name i
    else a.(i)
  in
  let iload buffer idx =
    match buffer with
    | Reg_ir.Shape_ids -> arr_get "shapeIds" lay.Layout.shape_ids idx
    | Reg_ir.Child_ptrs -> arr_get "childPtrs" lay.Layout.child_ptr idx
    | Reg_ir.Feature_ids -> arr_get "featureIds" lay.Layout.features idx
    | Reg_ir.Tree_roots -> arr_get "treeRoots" lay.Layout.tree_root idx
    | Reg_ir.Lut ->
      if idx < 0 then stuck_f "lut load out of bounds (%d)" idx
      else
        let row = arr_get "lut" lay.Layout.lut (idx / w) in
        arr_get "lut row" row (idx mod w)
    | Reg_ir.Thresholds | Reg_ir.Leaf_values | Reg_ir.Row ->
      stuck_f "integer load from a float buffer"
  in
  let fload buffer idx =
    match buffer with
    | Reg_ir.Thresholds -> arr_get "thresholds" lay.Layout.thresholds idx
    | Reg_ir.Leaf_values -> arr_get "leafValues" lay.Layout.leaf_values idx
    | Reg_ir.Row -> stuck_f "scalar row load has no symbolic semantics"
    | _ -> stuck_f "float load from an integer buffer"
  in
  let as_int = function
    | Sint v -> v
    | Sbits _ -> stuck_f "symbolic bitmask used as a plain integer"
  in
  let clone st =
    {
      st with
      iregs = Array.copy st.iregs;
      fregs = Array.copy st.fregs;
      vregs = Array.copy st.vregs;
    }
  in
  let protect st f = try f () with Stuck msg -> stuck := (st.sbox, msg) :: !stuck in
  let eval_cond st = function
    | Reg_ir.Ige (r, c) -> as_int st.iregs.(r) >= c
    | Reg_ir.Ieq_load (b, r, c) -> iload b (as_int st.iregs.(r)) = c
  in
  let eval_v st = function
    | Reg_ir.Vload_f (b, a) ->
      let base = as_int st.iregs.(a) in
      Vfloats (Array.init nt (fun l -> fload b (base + l)))
    | Reg_ir.Vload_i (b, a) ->
      let base = as_int st.iregs.(a) in
      Vints (Array.init nt (fun l -> iload b (base + l)))
    | Reg_ir.Gather (Reg_ir.Row, v) -> (
      match st.vregs.(v) with
      | Vints feats ->
        (match num_features with
        | Some nf ->
          Array.iter
            (fun f ->
              if f < 0 || f >= nf then
                stuck_f "gathered feature id %d out of range" f)
            feats
        | None -> ());
        Vrow feats
      | _ -> stuck_f "gather over a non-index vector")
    | Reg_ir.Gather (_, _) -> stuck_f "gather from a non-row buffer"
    | Reg_ir.Vcmp_lt (a, b) -> (
      match (st.vregs.(a), st.vregs.(b)) with
      | Vrow feats, Vfloats thrs when Array.length feats = Array.length thrs ->
        Vmask (Array.init (Array.length feats) (fun l -> (feats.(l), thrs.(l))))
      | _ -> stuck_f "vector compare over unexpected operands")
  in
  let rec exec st stmts k =
    match stmts with
    | [] -> k st
    | s :: rest -> (
      let continue st = exec st rest k in
      match s with
      | Reg_ir.Iset (r, e) ->
        eval_i st e (fun st v ->
            st.iregs.(r) <- v;
            continue st)
      | Reg_ir.Fset (r, Reg_ir.Fload (b, a)) ->
        st.fregs.(r) <- fload b (as_int st.iregs.(a));
        continue st
      | Reg_ir.Vset (r, e) ->
        st.vregs.(r) <- eval_v st e;
        continue st
      | Reg_ir.While (c, body) ->
        let rec loop st =
          if st.fuel <= 0 then stuck_f "loop fuel exhausted (cycle?)"
          else begin
            st.fuel <- st.fuel - 1;
            if eval_cond st c then exec st body loop else continue st
          end
        in
        loop st
      | Reg_ir.If (c, then_, else_) ->
        exec st (if eval_cond st c then then_ else else_) continue
      | Reg_ir.Repeat (n, body) ->
        if n < 0 then stuck_f "negative repeat count"
        else
          let rec rep i st = if i = 0 then continue st else exec st body (rep (i - 1)) in
          rep n st)
  and eval_i st e k =
    match e with
    | Reg_ir.Iconst c -> k st (Sint c)
    | Reg_ir.Imov a -> k st st.iregs.(a)
    | Reg_ir.Iadd (a, b) -> (
      match (st.iregs.(a), st.iregs.(b)) with
      | Sint x, Sint y -> k st (Sint (x + y))
      | Sint x, Sbits s | Sbits s, Sint x ->
        k st (Sbits { s with base = s.base + x })
      | Sbits _, Sbits _ -> stuck_f "sum of two symbolic bitmasks")
    | Reg_ir.Isub (a, b) -> (
      match (st.iregs.(a), st.iregs.(b)) with
      | Sint x, Sint y -> k st (Sint (x - y))
      | _ -> stuck_f "subtraction over a symbolic bitmask")
    | Reg_ir.Imul_const (a, c) -> (
      match st.iregs.(a) with
      | Sint x -> k st (Sint (x * c))
      | Sbits _ -> stuck_f "scaling a symbolic bitmask")
    | Reg_ir.Iadd_const (a, c) -> (
      match st.iregs.(a) with
      | Sint x -> k st (Sint (x + c))
      | Sbits s -> k st (Sbits { s with base = s.base + c }))
    | Reg_ir.Movemask v -> (
      match st.vregs.(v) with
      | Vmask lanes -> k st (Sbits { base = 0; lanes })
      | _ -> stuck_f "movemask of a non-comparison vector")
    | Reg_ir.Iload (Reg_ir.Lut, a) -> (
      match st.iregs.(a) with
      | Sint idx -> k st (Sint (iload Reg_ir.Lut idx))
      | Sbits { base; lanes } ->
        if base < 0 || base mod w <> 0 then
          stuck_f "LUT index base %d is not row-aligned" base
        else if Array.length lanes <> nt then
          stuck_f "movemask width %d does not match the tile size"
            (Array.length lanes)
        else
          let sid = base / w in
          if sid >= Array.length lay.Layout.lut then
            stuck_f "LUT row %d out of range" sid
          else
            let row = lay.Layout.lut.(sid) in
            if Array.length row <> w then stuck_f "malformed LUT row %d" sid
            else
              (* The fork: each distinct child the row can select becomes
                 its own execution path with the correspondingly refined
                 box. *)
              split_dtree (dtree_for cache row nt) st.sbox
                ~lane_feature:(fun l -> fst lanes.(l))
                ~lane_threshold:(fun l -> snd lanes.(l))
                ~emit:(fun box c ->
                  let st' = clone st in
                  st'.sbox <- box;
                  protect st' (fun () -> k st' (Sint c))))
    | Reg_ir.Iload (b, a) -> k st (Sint (iload b (as_int st.iregs.(a))))
  in
  if tree < 0 || tree >= Array.length lay.Layout.tree_root then
    stuck := ([], Printf.sprintf "tree %d outside the layout" tree) :: !stuck
  else begin
    let st =
      {
        iregs = Array.make p.Reg_ir.num_iregs (Sint 0);
        fregs = Array.make p.Reg_ir.num_fregs 0.0;
        vregs = Array.make p.Reg_ir.num_vregs Vnone;
        sbox = [];
        fuel = (4 * nslots) + 64;
      }
    in
    (* Mirror Interp.run_walk_machine's prologue. *)
    st.iregs.(Reg_ir.base_reg) <- Sint lay.Layout.tree_root.(tree);
    st.iregs.(Reg_ir.state_reg) <-
      (match lay.Layout.kind with
      | Layout.Array_kind -> Sint 0
      | Layout.Sparse_kind -> Sint lay.Layout.tree_root.(tree));
    protect st (fun () ->
        exec st p.Reg_ir.body (fun st ->
            paths := (st.sbox, st.fregs.(Reg_ir.result_reg)) :: !paths))
  end;
  normalize { paths = !paths; stuck = !stuck }

let summarize_reg ?num_features p lay ~tree =
  summarize_reg_c (new_cache ()) ?num_features p lay ~tree

(* ------------------------------------------------------------------ *)
(* Cross-stage comparison                                              *)
(* ------------------------------------------------------------------ *)

type stage = Source | Hir | Mir | Lir | Reg | Quant

let stage_name = function
  | Source -> "source"
  | Hir -> "hir"
  | Mir -> "mir"
  | Lir -> "lir"
  | Reg -> "reg"
  | Quant -> "quant"

type finding = {
  code : string;
  severity : D.severity;
  tree : int;
  pair : stage * stage;
  region : box;
  witness : float array option;
  message : string;
}

let pair_string (a, b) = Printf.sprintf "%s<->%s" (stage_name a) (stage_name b)

(* Findings reported per tree and stage pair; the rest of a divergence is
   the same bug seen again. *)
let max_findings = 4

let compare_summaries ~num_features ~pair ~tree ~replay a b =
  if equal_summaries a b then []
  else
    let a = coalesce a and b = coalesce b in
    if equal_summaries a b then []
    else begin
      let findings = ref [] and count = ref 0 in
      let add f =
        if !count < max_findings then begin
          findings := f :: !findings;
          incr count
        end
      in
      let sa, sb = pair in
      let run stage row =
        match replay stage row with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e)
      in
      let diverged = function
        | Ok x, Ok y -> Float.compare x y <> 0
        | Ok _, Error _ | Error _, Ok _ -> true
        | Error _, Error _ -> false
      in
      let show = function
        | Ok v -> Printf.sprintf "%.17g" v
        | Error m -> "raise: " ^ m
      in
      let witnessed code severity region fmt =
        Printf.ksprintf
          (fun msg ->
            let wit = witness_row ~num_features region in
            let ra = run sa wit and rb = run sb wit in
            let confirmed = diverged (ra, rb) in
            let code = if confirmed then "T004" else code in
            let severity = if confirmed then D.Error else severity in
            let message =
              Printf.sprintf
                "%s on %s: %s; witness [%s] replays %s=%s vs %s=%s (%s)" msg
                (box_to_string region)
                (if confirmed then "confirmed miscompile" else "not confirmed by replay")
                (String.concat ", "
                   (Array.to_list (Array.map (Printf.sprintf "%g") wit)))
                (stage_name sa) (show ra) (stage_name sb) (show rb) code
            in
            add { code; severity; tree; pair; region; witness = Some wit; message })
          fmt
      in
      (* Leaf-value disagreements on overlapping boxes. *)
      List.iter
        (fun (ba, va) ->
          List.iter
            (fun (bb, vb) ->
              if Float.compare va vb <> 0 then
                match intersect ba bb with
                | Some region ->
                  witnessed "T002" D.Warning region
                    "leaf contribution differs (%.17g vs %.17g)" va vb
                | None -> ())
            b.paths)
        a.paths;
      (* Regions one side reaches that the other covers nowhere. *)
      let boxes s = List.map fst s.paths @ List.map fst s.stuck in
      let cover_b = boxes b and cover_a = boxes a in
      List.iter
        (fun (ba, va) ->
          List.iter
            (fun region ->
              witnessed "T001" D.Warning region
                "partition mismatch: %s maps this region to leaf %.17g but %s \
                 has no path here"
                (stage_name sa) va (stage_name sb))
            (subtract_all ba cover_b))
        a.paths;
      List.iter
        (fun (bb, vb) ->
          List.iter
            (fun region ->
              witnessed "T003" D.Warning region
                "unreachable region introduced: %s maps it to leaf %.17g but \
                 %s has no path here"
                (stage_name sb) vb (stage_name sa))
            (subtract_all bb cover_a))
        b.paths;
      (* Stuck regions facing a live path on the other side. *)
      List.iter
        (fun (bs, msg) ->
          List.iter
            (fun (ba, _) ->
              match intersect bs ba with
              | Some region ->
                witnessed "T003" D.Warning region "%s gets stuck (%s)"
                  (stage_name sb) msg
              | None -> ())
            a.paths)
        b.stuck;
      List.iter
        (fun (bs, msg) ->
          List.iter
            (fun (bb, _) ->
              match intersect bs bb with
              | Some region ->
                witnessed "T001" D.Warning region "%s gets stuck (%s)"
                  (stage_name sa) msg
              | None -> ())
            b.paths)
        a.stuck;
      (* The summaries differ but every slice agrees pointwise: pure
         partition drift with no semantic divergence. *)
      if !findings = [] then
        add
          {
            code = "T001";
            severity = D.Info;
            tree;
            pair;
            region = [];
            witness = None;
            message =
              Printf.sprintf
                "summaries of %s and %s differ structurally but agree on every \
                 overlap (benign partition drift)"
                (stage_name sa) (stage_name sb);
          };
      List.rev !findings
    end

let to_diagnostics fs =
  List.map
    (fun f ->
      let path =
        [ pair_string f.pair;
          (if f.tree >= 0 then Printf.sprintf "tree %d" f.tree else "jam") ]
      in
      let mk =
        match f.severity with
        | D.Error -> D.errorf
        | D.Warning -> D.warningf
        | D.Info -> D.infof
      in
      mk ~level:D.Validate ~code:f.code ~path "%s" f.message)
    fs

(* ------------------------------------------------------------------ *)
(* Pipeline checks                                                     *)
(* ------------------------------------------------------------------ *)

let walks_by_tree (mir : M.t) n =
  let walks = Array.make n M.Loop_walk in
  Array.iter
    (fun (plan : M.group_plan) ->
      Array.iter
        (fun pos -> walks.(pos) <- plan.M.walk)
        plan.M.group.Reorder.positions)
    mir.M.group_plans;
  walks

let check_hir (hir : Program.t) =
  let cache = new_cache () in
  let nf = hir.Program.forest.Forest.num_features in
  let out = ref [] in
  Array.iteri
    (fun i (entry : Program.tree_entry) ->
      let src = hir.Program.forest.Forest.trees.(entry.Program.original_index) in
      let tiled = entry.Program.tiled in
      let fs =
        compare_summaries ~num_features:nf ~pair:(Source, Hir) ~tree:i
          ~replay:(fun stage row ->
            match stage with
            | Source -> Tree.predict src row
            | _ -> T.walk tiled row)
          (summarize_source src)
          (summarize_tiled cache M.Loop_walk tiled)
      in
      out := List.rev_append fs !out)
    hir.Program.trees;
  List.rev !out

let check_mir (hir : Program.t) (mir : M.t) =
  let cache = new_cache () in
  let nf = hir.Program.forest.Forest.num_features in
  let walks = walks_by_tree mir (Array.length hir.Program.trees) in
  let out = ref [] in
  Array.iteri
    (fun i (entry : Program.tree_entry) ->
      match walks.(i) with
      | M.Loop_walk -> ()  (* the generic walk is the HIR semantics *)
      | walk ->
        let tiled = entry.Program.tiled in
        let fs =
          compare_summaries ~num_features:nf ~pair:(Hir, Mir) ~tree:i
            ~replay:(fun stage row ->
              match stage with
              | Mir -> M.walk_tree walk tiled row
              | _ -> T.walk tiled row)
            (summarize_tiled cache M.Loop_walk tiled)
            (summarize_tiled cache walk tiled)
        in
        out := List.rev_append fs !out)
    hir.Program.trees;
  List.rev !out

let check_lir (hir : Program.t) (mir : M.t) (lay : Layout.t) =
  let cache = new_cache () in
  let nf = hir.Program.forest.Forest.num_features in
  let walks = walks_by_tree mir (Array.length hir.Program.trees) in
  let out = ref [] in
  Array.iteri
    (fun i (entry : Program.tree_entry) ->
      let tiled = entry.Program.tiled in
      let walk = walks.(i) in
      let fs =
        compare_summaries ~num_features:nf ~pair:(Mir, Lir) ~tree:i
          ~replay:(fun stage row ->
            match stage with
            | Lir -> Layout.walk lay ~tree:i row
            | _ -> M.walk_tree walk tiled row)
          (summarize_tiled cache walk tiled)
          (summarize_layout_c cache lay ~tree:i)
      in
      out := List.rev_append fs !out)
    hir.Program.trees;
  List.rev !out

let check_reg (hir : Program.t) (mir : M.t) (lay : Layout.t) =
  let cache = new_cache () in
  let nf = hir.Program.forest.Forest.num_features in
  let lp = lazy (Lower.assemble hir mir lay) in
  let variants = Reg_codegen.all_variants lay mir in
  let out = ref [] in
  Array.iteri
    (fun gi (plan : M.group_plan) ->
      match List.assoc_opt gi variants with
      | None -> ()
      | Some prog ->
        Array.iter
          (fun tree ->
            let fs =
              compare_summaries ~num_features:nf ~pair:(Lir, Reg) ~tree
                ~replay:(fun stage row ->
                  match stage with
                  | Reg -> Interp.run_walk prog (Lazy.force lp) ~tree ~row
                  | _ -> Layout.walk lay ~tree row)
                (summarize_layout_c cache lay ~tree)
                (summarize_reg_c cache ~num_features:nf prog lay ~tree)
            in
            out := List.rev_append fs !out)
          plan.M.group.Reorder.positions)
    mir.M.group_plans;
  (* Unroll-and-jam: each lane of a jammed variant must be a pure window
     renaming of the group's single-lane program — then validating the
     base program (above) validates every lane. *)
  List.iter
    (fun (gi, (p : Reg_ir.walk_program)) ->
      if p.Reg_ir.lanes > 1 then
        match List.assoc_opt gi variants with
        | None -> ()
        | Some expected ->
          let collision = (Alias.check p).Alias.diags in
          for lane = 0 to p.Reg_ir.lanes - 1 do
            let problem =
              match collision with
              | d :: _ -> Some d.D.message
              | [] ->
                if Alias.project p ~lane = expected then None
                else Some "lane projection is not the group walk program"
            in
            match problem with
            | None -> ()
            | Some msg ->
              out :=
                {
                  code = "T001";
                  severity = D.Warning;
                  tree = -1;
                  pair = (Lir, Reg);
                  region = [];
                  witness = None;
                  message =
                    Printf.sprintf
                      "group %d lane %d of the jammed walk is not a window \
                       renaming of the group program: %s"
                      gi lane msg;
                }
                :: !out
          done)
    (Reg_codegen.jammed_variants lay mir);
  List.rev !out

let check_all hir mir lay =
  check_hir hir @ check_mir hir mir @ check_lir hir mir lay
  @ check_reg hir mir lay

(* The quantized stage pair is concrete, not symbolic: both sides
   quantize rows and thresholds with the same saturating rounding, so
   the quantized layout must agree with the certified integer evaluator
   {e bit for bit on every probe row} — including threshold ties and
   dead-zone rows (those may only diverge from the {e float} path). *)
let check_quant ?(rows = 48) (forest : Forest.t) (plan : Numeric.plan)
    (lp : Lower.t) =
  match lp.Lower.layout.Layout.quant with
  | None ->
    [
      {
        code = "T005";
        severity = D.Error;
        tree = -1;
        pair = (Lir, Quant);
        region = [];
        witness = None;
        message = "quantized stage pair requested on a float lowering";
      };
    ]
  | Some _ ->
    let qm = Numeric.quantize plan forest in
    let nf = forest.Forest.num_features in
    let rng = Tb_util.Prng.create 0x51ab in
    let gaussian_row () =
      Array.init nf (fun _ -> 2.0 *. Tb_util.Prng.gaussian rng)
    in
    (* Tie probes: pin one feature to an exact source threshold so the
       quantized compare sits on the rounding boundary. *)
    let thresholds =
      Array.to_list forest.Forest.trees
      |> List.concat_map (fun tree ->
             Tree.fold
               ~leaf:(fun _ -> [])
               ~node:(fun f t l r -> ((f, t) :: l) @ r)
               tree)
    in
    let tie_rows =
      List.filteri (fun i _ -> i < 32) thresholds
      |> List.map (fun (f, t) ->
             let row = gaussian_row () in
             row.(f) <- t;
             row)
    in
    let probes = List.init rows (fun _ -> gaussian_row ()) @ tie_rows in
    let out = ref [] in
    List.iter
      (fun row ->
        let a = Lower.reference_qpredict lp row in
        let b = Numeric.qpredict_raw qm row in
        let agree =
          Array.length a = Array.length b
          && Array.for_all2
               (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
               a b
        in
        if not agree then
          out :=
            {
              code = "T005";
              severity = D.Error;
              tree = -1;
              pair = (Lir, Quant);
              region = [];
              witness = Some row;
              message =
                Printf.sprintf
                  "quantized layout evaluation diverges from the certified \
                   integer evaluator: layout %s, qpredict %s"
                  (String.concat ","
                     (Array.to_list (Array.map (Printf.sprintf "%h") a)))
                  (String.concat ","
                     (Array.to_list (Array.map (Printf.sprintf "%h") b)));
            }
            :: !out)
      probes;
    List.rev !out
