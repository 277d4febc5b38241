(* Translation validation: every compiled form of a tree against its
   source tree, decided by a lockstep walk, explained by symbolic path
   summaries, with concrete counterexample witnesses.

   Each form has one walker, which runs with one of two carriers. The
   lockstep carries the source subtree: a form follows its source when
   every lane it tests is the source node's test (same feature, bitwise
   threshold) or an infinity, and every leaf it reaches is the source
   leaf bit for bit. A form that follows gets no finding and no summary.
   Only a form that does not is symbolically executed into the set of
   (feature box, leaf contribution) pairs it can produce. A box is a
   conjunction of half-open interval constraints, refined one predicate
   at a time: the node test [x_f < t] splits an interval [lo, hi) into a
   true part [lo, min(hi, t)) and a false part [max(lo, t), hi), either
   of which may be empty. Padding lanes and hop tiles compare against
   +inf, whose false part is always empty, so they add no paths.

   The key cost control is the LUT-row decision structure: rather than
   enumerating all 2^tile_size comparison bitmasks at every tile, each
   LUT row is compiled once (memoized under its shape id and checked by
   physical row identity, which {!Tb_hir.Lut} shares across HIR and
   LIR) into a reduced binary decision tree over lanes, collapsing
   branches the table does not distinguish. For a well-formed tile the
   reduced tree tests exactly the lanes on the navigation path, so the
   lockstep meets each source node once and a summary has as many paths
   as the source tree has leaves; corrupt tables merely cause more
   (still sound) splits. *)

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
   lanes the table consults remain. Lane 0 is the most significant bit,
   so the two branches at [lane] read the row's adjacent blocks
   [bits, bits + bit) and [bits + bit, bits + 2 bit); a reduced tree is
   canonical for the entries it reads, so the branches collapse exactly
   when those blocks are equal. *)
let build_dtree (row : int array) nt =
  let rec same_blocks a b n i =
    i = n || (row.(a + i) = row.(b + i) && same_blocks a b n (i + 1))
  in
  let rec build lane bits =
    if lane = nt then Child row.(bits)
    else
      let bit = 1 lsl (nt - 1 - lane) in
      if same_blocks bits (bits lor bit) bit 0 then build (lane + 1) bits
      else Test (lane, build (lane + 1) (bits lor bit), build (lane + 1) bits)
  in
  build 0 0

(* Indexed by shape id, so a lookup is one array access, and checked by
   physical row identity inside the slot: HIR and LIR share row storage
   ({!Lut.table} keeps the registry's arrays), while a mutated copy under
   the same shape id is a distinct entry — essential for the
   seeded-miscompile tests. Callers pass a bounds-checked [sid >= 0]. *)
type dcache = { mutable slots : (int array * dtree) list array }

let new_cache () = { slots = [||] }

let dtree_for cache ~sid row nt =
  let n = Array.length cache.slots in
  if sid >= n then begin
    let grown = Array.make (max (sid + 1) (2 * n)) [] in
    Array.blit cache.slots 0 grown 0 n;
    cache.slots <- grown
  end;
  let entries = cache.slots.(sid) in
  match List.find_opt (fun (r, _) -> r == row) entries with
  | Some (_, dt) -> dt
  | None ->
    let dt = build_dtree row nt in
    cache.slots.(sid) <- (row, dt) :: entries;
    dt

(* ------------------------------------------------------------------ *)
(* What a path carries                                                 *)
(* ------------------------------------------------------------------ *)

(* Each form has one walker, and a walker runs with one of two carriers.
   The summary carries a box, refines it at every lane the form tests
   and collects paths and stuck regions. The lockstep carries the source
   subtree the form is still following. At each lane it needs one of
   two things. The lane may test the source node's feature against a
   bitwise-equal threshold; then each branch moves to that child. Or the
   lane may compare against an infinity; then it takes the one branch
   [refine] keeps, and the source stays put. Every leaf must be the
   source leaf bit for bit. Any other lane, leaf or stuck condition
   diverges. *)
type 'p carrier = {
  branch : 'p -> feature:int -> threshold:float -> lt:bool -> 'p option;
  leaf : 'p -> float -> unit;
  stuck : 'p -> string -> unit;
}

(* One form of one tree, ready to run with either carrier from its
   starting point: the empty box, or the source tree. *)
type walker = { walk : 'p. 'p carrier -> 'p -> unit }

let summarize w =
  let paths = ref [] and stuck = ref [] in
  w.walk
    {
      branch = refine;
      leaf = (fun box v -> paths := (box, v) :: !paths);
      stuck = (fun box msg -> stuck := (box, msg) :: !stuck);
    }
    [];
  normalize { paths = !paths; stuck = !stuck }

exception Diverges

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* The lockstep takes every branch the summary would take from any box,
   and both branches of a matching finite test, so the boxes along a
   followed path are the source's own: a form that follows its source
   has the source's summary, path for path, and gets no finding. *)
let follower =
  {
    branch =
      (fun src ~feature ~threshold ~lt ->
        match src with
        | Tree.Node { feature = f; threshold = t; left; right }
          when f = feature && same_bits t threshold ->
          if lt then if neg_infinity < threshold then Some left else None
          else if threshold < infinity then Some right
          else None
        | _ ->
          if threshold = infinity then if lt then Some src else None
          else if threshold = neg_infinity then if lt then None else Some src
          else raise Diverges);
    leaf =
      (fun src v ->
        match src with
        | Tree.Leaf s when same_bits s v -> ()
        | _ -> raise Diverges);
    stuck = (fun _ _ -> raise Diverges);
  }

let follows w src =
  match w.walk follower src with () -> true | exception Diverges -> false

(* Walk a decision structure, branching the carrier at each tested lane. *)
let split_dtree c dt p ~lane_feature ~lane_threshold ~emit =
  let rec go p = function
    | Child k -> emit p k
    | Test (lane, yes, no) ->
      let feature = lane_feature lane and threshold = lane_threshold lane in
      (match c.branch p ~feature ~threshold ~lt:true with
      | Some p -> go p yes
      | None -> ());
      (match c.branch p ~feature ~threshold ~lt:false with
      | Some p -> go p no
      | None -> ())
  in
  go p dt

(* ------------------------------------------------------------------ *)
(* Walkers                                                             *)
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
let walk_tiled (cache : dcache) (walk : M.walk_kind) (t : T.t) c p =
  let nt = t.T.tile_size in
  let n = Array.length t.T.nodes in
  let rec go p i depth =
    if i < 0 || i >= n then c.stuck p "tile child index out of range"
    else if depth > n then c.stuck p "tiled walk deeper than the node count"
    else
      match t.T.nodes.(i) with
      | T.Leaf v -> (
        match walk with
        | M.Loop_walk -> c.leaf p v
        | M.Peeled_walk { peel } ->
          if depth < peel then
            c.stuck p
              (Printf.sprintf "leaf at depth %d < peel %d (check-free step on a leaf)"
                 depth peel)
          else c.leaf p v
        | M.Unrolled_walk { depth = d } ->
          if depth < d then
            c.stuck p
              (Printf.sprintf "leaf at depth %d < unroll depth %d" depth d)
          else c.leaf p v)
      | T.Tile tile -> (
        match walk with
        | M.Unrolled_walk { depth = d } when depth >= d ->
          c.stuck p
            (Printf.sprintf "still on a tile after %d unrolled steps" d)
        | _ ->
          (match Lut.row t.T.lut ~shape_id:tile.T.shape_id with
          | row when Array.length row = 1 lsl nt ->
            split_dtree c (dtree_for cache ~sid:tile.T.shape_id row nt) p
              ~lane_feature:(fun l -> tile.T.features.(l))
              ~lane_threshold:(fun l -> tile.T.thresholds.(l))
              ~emit:(fun p k ->
                if k < 0 || k >= Array.length tile.T.children then
                  c.stuck p "LUT exit outside the tile's child list"
                else go p tile.T.children.(k) (depth + 1))
          | _ -> c.stuck p "malformed LUT row"
          | exception Invalid_argument _ -> c.stuck p "bad shape id"))
  in
  go p 0 0

let summarize_hir t =
  summarize { walk = (fun c p -> walk_tiled (new_cache ()) M.Loop_walk t c p) }

let walk_layout (cache : dcache) (lay : Layout.t) ~tree c p =
  let nt = lay.Layout.tile_size in
  let nslots = Array.length lay.Layout.shape_ids in
  let tile p s emit =
    let sid = lay.Layout.shape_ids.(s) in
    if sid < 0 || sid >= Array.length lay.Layout.lut then
      c.stuck p (Printf.sprintf "slot %d has shape id %d" s sid)
    else
      let row = lay.Layout.lut.(sid) in
      if Array.length row <> 1 lsl nt then
        c.stuck p (Printf.sprintf "malformed LUT row %d" sid)
      else
        split_dtree c (dtree_for cache ~sid row nt) p
          ~lane_feature:(fun l -> lay.Layout.features.((s * nt) + l))
          ~lane_threshold:(fun l -> lay.Layout.thresholds.((s * nt) + l))
          ~emit
  in
  if tree < 0 || tree >= Array.length lay.Layout.tree_root then
    c.stuck p (Printf.sprintf "tree %d outside the layout" tree)
  else begin
    match lay.Layout.kind with
    | Layout.Array_kind ->
      let base = lay.Layout.tree_root.(tree) in
      let fanout = nt + 1 in
      let rec go p local depth =
        let s = base + local in
        if s < 0 || s >= nslots then
          c.stuck p (Printf.sprintf "array slot %d out of bounds" s)
        else if depth > nslots then
          c.stuck p "array walk deeper than the slot count"
        else if lay.Layout.shape_ids.(s) = Layout.leaf_marker then
          c.leaf p lay.Layout.thresholds.(s * nt)
        else
          tile p s (fun p k -> go p ((local * fanout) + k + 1) (depth + 1))
      in
      go p 0 0
    | Layout.Sparse_kind ->
      let nleaves = Array.length lay.Layout.leaf_values in
      let leaf p idx =
        if idx < 0 || idx >= nleaves then
          c.stuck p (Printf.sprintf "leaf index %d out of bounds" idx)
        else c.leaf p lay.Layout.leaf_values.(idx)
      in
      let rec go p s depth =
        if s < 0 then leaf p (-s - 1)
        else if s >= nslots then
          c.stuck p (Printf.sprintf "sparse slot %d out of bounds" s)
        else if depth > nslots then
          c.stuck p "sparse walk exceeded the slot count (cycle?)"
        else
          tile p s (fun p k ->
              let ptr = lay.Layout.child_ptr.(s) in
              if ptr >= 0 then go p (ptr + k) (depth + 1)
              else leaf p (-ptr - 1 + k))
      in
      go p lay.Layout.tree_root.(tree) 0
  end

let summarize_layout lay ~tree =
  summarize { walk = (fun c p -> walk_layout (new_cache ()) lay ~tree c p) }

(* ------------------------------------------------------------------ *)
(* Symbolic register-IR execution                                      *)
(* ------------------------------------------------------------------ *)

(* Register values stay concrete along any single path — index
   arithmetic only ever mixes constants, buffer loads and the one
   symbolic quantity, the comparison bitmask, which is resolved by
   forking at the LUT load. *)
type sval =
  | Sint of int
  | Sbits of { base : int; feats : int array; thrs : float array }
      (* base + movemask of per-lane [row.(feats.(l)) < thrs.(l)] bits *)

type vval =
  | Vnone
  | Vfloats of float array
  | Vints of int array
  | Vrow of int array  (* row values gathered at these feature ids *)
  | Vmask of int array * float array
      (* per-lane comparison predicates: feature ids and thresholds *)

type 'p sstate = {
  iregs : sval array;
  fregs : float array;
  vregs : vval array;
  mutable carried : 'p;
  mutable fuel : int;
}

exception Stuck of string

let stuck_f fmt = Printf.ksprintf (fun m -> raise (Stuck m)) fmt

let walk_reg (cache : dcache) ~num_features (p : Reg_ir.walk_program)
    (lay : Layout.t) ~tree c start =
  if p.Reg_ir.lanes <> 1 then
    invalid_arg "Validate.walk_reg: jammed program (project a lane first)";
  let nt = p.Reg_ir.tile_size in
  let w = 1 lsl nt in
  let nslots = Array.length lay.Layout.shape_ids in
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
  let protect st f = try f () with Stuck msg -> c.stuck st.carried msg in
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
        Array.iter
          (fun f ->
            if f < 0 || f >= num_features then
              stuck_f "gathered feature id %d out of range" f)
          feats;
        Vrow feats
      | _ -> stuck_f "gather over a non-index vector")
    | Reg_ir.Gather (_, _) -> stuck_f "gather from a non-row buffer"
    | Reg_ir.Vcmp_lt (a, b) -> (
      match (st.vregs.(a), st.vregs.(b)) with
      | Vrow feats, Vfloats thrs when Array.length feats = Array.length thrs ->
        Vmask (feats, thrs)
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
      | Vmask (feats, thrs) -> k st (Sbits { base = 0; feats; thrs })
      | _ -> stuck_f "movemask of a non-comparison vector")
    | Reg_ir.Iload (Reg_ir.Lut, a) -> (
      match st.iregs.(a) with
      | Sint idx -> k st (Sint (iload Reg_ir.Lut idx))
      | Sbits { base; feats; thrs } ->
        if base < 0 || base mod w <> 0 then
          stuck_f "LUT index base %d is not row-aligned" base
        else if Array.length feats <> nt then
          stuck_f "movemask width %d does not match the tile size"
            (Array.length feats)
        else
          let sid = base / w in
          if sid >= Array.length lay.Layout.lut then
            stuck_f "LUT row %d out of range" sid
          else
            let row = lay.Layout.lut.(sid) in
            if Array.length row <> w then stuck_f "malformed LUT row %d" sid
            else
              (* The fork: each distinct child the row can select becomes
                 its own execution path with the correspondingly branched
                 carrier. *)
              split_dtree c (dtree_for cache ~sid row nt) st.carried
                ~lane_feature:(fun l -> feats.(l))
                ~lane_threshold:(fun l -> thrs.(l))
                ~emit:(fun carried child ->
                  let st' = clone st in
                  st'.carried <- carried;
                  protect st' (fun () -> k st' (Sint child))))
    | Reg_ir.Iload (b, a) -> k st (Sint (iload b (as_int st.iregs.(a))))
  in
  if tree < 0 || tree >= Array.length lay.Layout.tree_root then
    c.stuck start (Printf.sprintf "tree %d outside the layout" tree)
  else begin
    let st =
      {
        iregs = Array.make p.Reg_ir.num_iregs (Sint 0);
        fregs = Array.make p.Reg_ir.num_fregs 0.0;
        vregs = Array.make p.Reg_ir.num_vregs Vnone;
        carried = start;
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
            c.leaf st.carried st.fregs.(Reg_ir.result_reg)))
  end

(* ------------------------------------------------------------------ *)
(* Comparison with the source                                          *)
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

(* Findings reported per tree and form; the rest of a divergence is the
   same bug seen again. *)
let max_findings = 4

(* Compare one form's summary of a tree with its source tree's. The
   source summary tiles feature space exactly and never gets stuck, so
   only three disagreements remain: leaf values that differ where boxes
   overlap (T002), source regions the form does not cover (T001) and
   form regions that get stuck (T003). Each is replayed on a witness row
   — [Tree.predict] on the source, [replay] on the form — and a
   confirmed divergence becomes T004. A form that partitions space
   differently but computes the same function yields nothing. *)
let compare_with_source ~num_features ~stage ~tree ~src ~replay source form =
  if equal_summaries source form then []
  else begin
    let findings = ref [] and count = ref 0 in
    let run f row =
      match f row with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    let show = function
      | Ok v -> Printf.sprintf "%.17g" v
      | Error m -> "raise: " ^ m
    in
    let witnessed code region fmt =
      Printf.ksprintf
        (fun msg ->
          if !count < max_findings then begin
            incr count;
            let wit = witness_row ~num_features region in
            let rs = run (Tree.predict src) wit and rf = run replay wit in
            let confirmed =
              match (rs, rf) with
              | Ok x, Ok y -> Float.compare x y <> 0
              | Ok _, Error _ | Error _, Ok _ -> true
              | Error _, Error _ -> false
            in
            let code = if confirmed then "T004" else code in
            let message =
              Printf.sprintf
                "%s on %s: %s; witness [%s] replays source=%s vs %s=%s (%s)"
                msg
                (box_to_string region)
                (if confirmed then "confirmed miscompile" else "not confirmed by replay")
                (String.concat ", "
                   (Array.to_list (Array.map (Printf.sprintf "%g") wit)))
                (show rs) (stage_name stage) (show rf) code
            in
            findings :=
              {
                code;
                severity = (if confirmed then D.Error else D.Warning);
                tree;
                pair = (Source, stage);
                region;
                witness = Some wit;
                message;
              }
              :: !findings
          end)
        fmt
    in
    List.iter
      (fun (bs, vs) ->
        List.iter
          (fun (bf, vf) ->
            if Float.compare vs vf <> 0 then
              match intersect bs bf with
              | Some region ->
                witnessed "T002" region
                  "leaf contribution differs (%.17g vs %.17g)" vs vf
              | None -> ())
          form.paths)
      source.paths;
    let cover = List.map fst form.paths @ List.map fst form.stuck in
    List.iter
      (fun (bs, vs) ->
        List.iter
          (fun region ->
            witnessed "T001" region
              "partition mismatch: source maps this region to leaf %.17g but \
               %s has no path here"
              vs (stage_name stage))
          (subtract_all bs cover))
      source.paths;
    List.iter
      (fun (bf, msg) ->
        List.iter
          (fun (bs, _) ->
            match intersect bf bs with
            | Some region ->
              witnessed "T003" region "%s gets stuck (%s)" (stage_name stage)
                msg
            | None -> ())
          source.paths)
      form.stuck;
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

(* A compiled form: for execution-order tree [i], its walker and its
   concrete evaluator, or [None] when there is nothing to check (a tree
   on the generic walk at MIR, whose meaning is the HIR form's). *)
type form = {
  stage : stage;
  at : int -> (walker * (float array -> float)) option;
}

let hir_form cache (hir : Program.t) =
  let at i =
    let tiled = hir.Program.trees.(i).Program.tiled in
    Some
      ( { walk = (fun c p -> walk_tiled cache M.Loop_walk tiled c p) },
        T.walk tiled )
  in
  { stage = Hir; at }

let mir_form cache (hir : Program.t) (mir : M.t) =
  let walks = Array.make (Array.length hir.Program.trees) M.Loop_walk in
  Array.iter
    (fun (plan : M.group_plan) ->
      Array.iter
        (fun pos -> walks.(pos) <- plan.M.walk)
        plan.M.group.Reorder.positions)
    mir.M.group_plans;
  let at i =
    match walks.(i) with
    | M.Loop_walk -> None
    | walk ->
      let tiled = hir.Program.trees.(i).Program.tiled in
      Some
        ( { walk = (fun c p -> walk_tiled cache walk tiled c p) },
          M.walk_tree walk tiled )
  in
  { stage = Mir; at }

let lir_form cache (lay : Layout.t) =
  let at i =
    Some
      ( { walk = (fun c p -> walk_layout cache lay ~tree:i c p) },
        Layout.walk lay ~tree:i )
  in
  { stage = Lir; at }

(* Every tree runs its group's single-lane program; [variants] are
   {!Reg_codegen.all_variants}. *)
let reg_form cache (hir : Program.t) (mir : M.t) (lay : Layout.t) variants =
  let num_features = hir.Program.forest.Forest.num_features in
  let lp = lazy (Lower.assemble hir mir lay) in
  let progs = Array.make (Array.length hir.Program.trees) None in
  List.iter
    (fun (gi, prog) ->
      Array.iter
        (fun pos -> progs.(pos) <- Some prog)
        mir.M.group_plans.(gi).M.group.Reorder.positions)
    variants;
  let at tree =
    Option.map
      (fun prog ->
        ( { walk = (fun c p -> walk_reg cache ~num_features prog lay ~tree c p) },
          fun row -> Interp.run_walk prog (Lazy.force lp) ~tree ~row ))
      progs.(tree)
  in
  { stage = Reg; at }

(* One pass over the trees, against one decision-structure memo. Each
   form of a tree first walks in lockstep with its source tree; only a
   form that does not follow its source is summarized and compared,
   with the source summarized at most once per tree. Findings come out
   form by form, in the order [forms] lists them. *)
let check_forms (hir : Program.t) forms =
  let cache = new_cache () in
  let forms = Array.of_list (forms cache) in
  let out = Array.make (Array.length forms) [] in
  let forest = hir.Program.forest in
  let num_features = forest.Forest.num_features in
  Array.iteri
    (fun tree (entry : Program.tree_entry) ->
      let src = forest.Forest.trees.(entry.Program.original_index) in
      let source = lazy (summarize_source src) in
      Array.iteri
        (fun k form ->
          match form.at tree with
          | Some (w, replay) when not (follows w src) ->
            let fs =
              compare_with_source ~num_features ~stage:form.stage ~tree ~src
                ~replay (Lazy.force source) (summarize w)
            in
            out.(k) <- List.rev_append fs out.(k)
          | Some _ | None -> ())
        forms)
    hir.Program.trees;
  List.concat_map List.rev (Array.to_list out)

(* Unroll-and-jam: each lane of a jammed variant must be a pure window
   renaming of the group's single-lane program — then validating the
   base program validates every lane. *)
let check_jam (lay : Layout.t) (mir : M.t) variants =
  List.concat_map
    (fun (gi, (p : Reg_ir.walk_program)) ->
      match List.assoc_opt gi variants with
      | Some expected when p.Reg_ir.lanes > 1 ->
        let collision = (Alias.check p).Alias.diags in
        List.filter_map
          (fun lane ->
            let problem =
              match collision with
              | d :: _ -> Some d.D.message
              | [] ->
                if Alias.project p ~lane = expected then None
                else Some "lane projection is not the group walk program"
            in
            Option.map
              (fun msg ->
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
                })
              problem)
          (List.init p.Reg_ir.lanes Fun.id)
      | _ -> [])
    (Reg_codegen.jammed_variants lay mir)

let check_hir hir = check_forms hir (fun c -> [ hir_form c hir ])
let check_mir hir mir = check_forms hir (fun c -> [ mir_form c hir mir ])
let check_lir hir _mir lay = check_forms hir (fun c -> [ lir_form c lay ])

let check_reg hir mir lay =
  let variants = Reg_codegen.all_variants lay mir in
  check_forms hir (fun c -> [ reg_form c hir mir lay variants ])
  @ check_jam lay mir variants

let check_all hir mir lay =
  let variants = Reg_codegen.all_variants lay mir in
  check_forms hir (fun c ->
      [ hir_form c hir; mir_form c hir mir; lir_form c lay;
        reg_form c hir mir lay variants ])
  @ check_jam lay mir variants

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
  | Some q ->
    let qm = Numeric.quantize plan forest in
    let lay = lp.Lower.layout in
    let qbase = Layout.quantize_leaf q lp.Lower.base_score in
    let scale = Layout.dequant_scale q in
    (* The quantized layout's own evaluation: quantize the row, add the
       integer-valued walk results to the quantized base, dequantize. *)
    let layout_qpredict row =
      let qrow = Layout.quantize_row q row in
      let out = Array.make lp.Lower.num_outputs qbase in
      for tree = 0 to lay.Layout.num_trees - 1 do
        let c = lp.Lower.tree_class.(tree) in
        out.(c) <- out.(c) +. Layout.walk lay ~tree qrow
      done;
      Array.map (fun acc -> acc *. scale) out
    in
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
        let a = layout_qpredict row in
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
