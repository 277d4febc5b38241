module T = Tb_hir.Tiled_tree
module Program = Tb_hir.Program
module Schedule = Tb_hir.Schedule
module Lut = Tb_hir.Lut

type kind = Array_kind | Sparse_kind

(* Mirror of [Tb_analysis.Numeric.plan]'s layout-relevant fields (the
   dependency points the other way — Tb_analysis consumes Tb_lir — so the
   plan is replicated here and the differential tests pin the two
   quantizers bit for bit). *)
type qspec = {
  qbits : int;  (* 8 or 16 *)
  q_max : int;  (* 2^(qbits-1) - 1 *)
  feature_exp : int option array;
  leaf_exp : int;
}

type t = {
  kind : kind;
  tile_size : int;
  num_trees : int;
  tree_root : int array;
  thresholds : float array;
  features : int array;
  shape_ids : int array;
  child_ptr : int array;
  leaf_values : float array;
  lut : int array array;
  quant : qspec option;
}

let leaf_marker = -1
let unused_marker = -2
let max_array_slots = 1 lsl 22

(* ------------------------------------------------------------------ *)
(* Array layout                                                        *)
(* ------------------------------------------------------------------ *)

(* Local slot assignment for one tiled tree: node 0 -> slot 0, child c of
   slot s -> s*(nt+1) + c + 1. Returns (slots per node array, slab size). *)
let array_slots (tree : T.t) =
  let fanout = tree.T.tile_size + 1 in
  let slot = Array.make (Array.length tree.T.nodes) (-1) in
  let max_slot = ref 0 in
  let rec assign node s =
    if s > max_array_slots then
      invalid_arg
        "Layout: array-layout slab exceeds max_array_slots (use the sparse \
         layout for deep tilings)";
    slot.(node) <- s;
    max_slot := max !max_slot s;
    match tree.T.nodes.(node) with
    | T.Leaf _ -> ()
    | T.Tile tile ->
      Array.iteri (fun c child -> assign child ((s * fanout) + c + 1)) tile.T.children
  in
  assign 0 0;
  (slot, !max_slot + 1)

let build_array (p : Program.t) =
  let trees = Array.map (fun e -> e.Program.tiled) p.Program.trees in
  let nt = p.Program.schedule.Schedule.tile_size in
  let per_tree = Array.map array_slots trees in
  let offsets = Array.make (Array.length trees) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i (_, slab) ->
      offsets.(i) <- !total;
      total := !total + slab)
    per_tree;
  let slots = !total in
  let thresholds = Array.make (slots * nt) 0.0 in
  let features = Array.make (slots * nt) 0 in
  let shape_ids = Array.make slots unused_marker in
  Array.iteri
    (fun ti tree ->
      let slot_of, _ = per_tree.(ti) in
      let base = offsets.(ti) in
      Array.iteri
        (fun node_idx node ->
          let s = base + slot_of.(node_idx) in
          match node with
          | T.Leaf v ->
            shape_ids.(s) <- leaf_marker;
            (* Leaves are stored as full tiles (the paper's bloat): the
               value sits in lane 0 of the threshold vector. *)
            thresholds.(s * nt) <- v
          | T.Tile tile ->
            shape_ids.(s) <- tile.T.shape_id;
            for lane = 0 to nt - 1 do
              thresholds.((s * nt) + lane) <- tile.T.thresholds.(lane);
              features.((s * nt) + lane) <- tile.T.features.(lane)
            done)
        tree.T.nodes)
    trees;
  {
    kind = Array_kind;
    tile_size = nt;
    num_trees = Array.length trees;
    tree_root = offsets;
    thresholds;
    features;
    shape_ids;
    child_ptr = [||];
    leaf_values = [||];
    lut = Lut.table p.Program.lut;
    quant = None;
  }

(* ------------------------------------------------------------------ *)
(* Sparse layout                                                       *)
(* ------------------------------------------------------------------ *)

(* Worklist entries: a real tiled node sitting in a preassigned slot, or a
   synthesized hop tile carrying a leaf value. *)
type sparse_item =
  | Real of int  (* tiled node index (always a Tile) *)
  | Hop of float

let build_sparse (p : Program.t) =
  let trees = Array.map (fun e -> e.Program.tiled) p.Program.trees in
  let nt = p.Program.schedule.Schedule.tile_size in
  let dummy_shape = Tb_hir.Shape.Node (None, None) in
  let dummy_shape_id = Lut.shape_id p.Program.lut dummy_shape in
  (* Growable buffers. *)
  let num_slots = ref 0 in
  let leaves = ref [] and num_leaves = ref 0 in
  let push_leaf v =
    leaves := v :: !leaves;
    let i = !num_leaves in
    incr num_leaves;
    i
  in
  (* Reserve a contiguous block of [n] slots; contents are set later via the
     returned setter list. *)
  let reserved = Hashtbl.create 1024 in
  let reserve n =
    let start = !num_slots in
    num_slots := !num_slots + n;
    for i = start to start + n - 1 do
      Hashtbl.replace reserved i None
    done;
    start
  in
  let tree_root = Array.make (Array.length trees) 0 in
  Array.iteri
    (fun ti (tree : T.t) ->
      match tree.T.nodes.(0) with
      | T.Leaf v -> tree_root.(ti) <- -1 - push_leaf v
      | T.Tile _ ->
        let root_slot = reserve 1 in
        tree_root.(ti) <- root_slot;
        let queue = Queue.create () in
        Queue.add (root_slot, Real 0) queue;
        while not (Queue.is_empty queue) do
          let slot, item = Queue.pop queue in
          let fill ~shape_id ~thresholds ~features ~child_ptr =
            Hashtbl.replace reserved slot
              (Some (shape_id, thresholds, features, child_ptr))
          in
          match item with
          | Hop v ->
            (* A hop tile: single always-true dummy predicate, both exits
               lead to leaves holding the original leaf's value. *)
            let l0 = push_leaf v in
            let _l1 = push_leaf v in
            fill ~shape_id:dummy_shape_id
              ~thresholds:(Array.make nt infinity)
              ~features:(Array.make nt 0)
              ~child_ptr:(-l0 - 1)
          | Real node_idx ->
            let tile =
              match tree.T.nodes.(node_idx) with
              | T.Tile tile -> tile
              | T.Leaf _ -> assert false
            in
            let children = tile.T.children in
            let all_leaves =
              Array.for_all
                (fun c -> match tree.T.nodes.(c) with T.Leaf _ -> true | T.Tile _ -> false)
                children
            in
            let child_ptr =
              if all_leaves then begin
                let first = ref None in
                Array.iter
                  (fun c ->
                    match tree.T.nodes.(c) with
                    | T.Leaf v ->
                      let idx = push_leaf v in
                      if !first = None then first := Some idx
                    | T.Tile _ -> assert false)
                  children;
                -Option.get !first - 1
              end
              else begin
                (* Mixed or all-tile children: leaf children become hop
                   tiles so the block is homogeneous. *)
                let start = reserve (Array.length children) in
                Array.iteri
                  (fun c child ->
                    let item =
                      match tree.T.nodes.(child) with
                      | T.Leaf v -> Hop v
                      | T.Tile _ -> Real child
                    in
                    Queue.add (start + c, item) queue)
                  children;
                start
              end
            in
            fill ~shape_id:tile.T.shape_id ~thresholds:tile.T.thresholds
              ~features:tile.T.features ~child_ptr
        done)
    trees;
  let n = !num_slots in
  let thresholds = Array.make (n * nt) 0.0 in
  let features = Array.make (n * nt) 0 in
  let shape_ids = Array.make n unused_marker in
  let child_ptr = Array.make n 0 in
  for s = 0 to n - 1 do
    match Hashtbl.find reserved s with
    | Some (sid, thr, fts, cp) ->
      shape_ids.(s) <- sid;
      child_ptr.(s) <- cp;
      for lane = 0 to nt - 1 do
        thresholds.((s * nt) + lane) <- thr.(lane);
        features.((s * nt) + lane) <- fts.(lane)
      done
    | None -> invalid_arg "Layout.build_sparse: unfilled slot"
  done;
  let leaf_values = Array.make !num_leaves 0.0 in
  List.iteri
    (fun i v -> leaf_values.(!num_leaves - 1 - i) <- v)
    !leaves;
  {
    kind = Sparse_kind;
    tile_size = nt;
    num_trees = Array.length trees;
    tree_root;
    thresholds;
    features;
    shape_ids;
    child_ptr;
    leaf_values;
    lut = Lut.table p.Program.lut;
    quant = None;
  }

let build_kind kind p =
  match kind with
  | Array_kind -> build_array p
  | Sparse_kind -> build_sparse p

let build (p : Program.t) =
  match p.Program.schedule.Schedule.layout with
  | Schedule.Array_layout -> build_array p
  | Schedule.Sparse_layout -> build_sparse p

(* ------------------------------------------------------------------ *)
(* Walking                                                             *)
(* ------------------------------------------------------------------ *)

let comparison_bits t slot row =
  let nt = t.tile_size in
  let bits = ref 0 in
  for lane = 0 to nt - 1 do
    let b = if row.(t.features.((slot * nt) + lane)) < t.thresholds.((slot * nt) + lane) then 1 else 0 in
    bits := !bits lor (b lsl (nt - 1 - lane))
  done;
  !bits

let walk_with_trace t ~tree row ~on_slot =
  match t.kind with
  | Array_kind ->
    let fanout = t.tile_size + 1 in
    let base = t.tree_root.(tree) in
    let rec go local =
      let s = base + local in
      on_slot s;
      let sid = t.shape_ids.(s) in
      if sid = leaf_marker then t.thresholds.(s * t.tile_size)
      else begin
        let bits = comparison_bits t s row in
        let c = t.lut.(sid).(bits) in
        go ((local * fanout) + c + 1)
      end
    in
    go 0
  | Sparse_kind ->
    let r = t.tree_root.(tree) in
    if r < 0 then t.leaf_values.(-r - 1)
    else begin
      let rec go s =
        on_slot s;
        let bits = comparison_bits t s row in
        let c = t.lut.(t.shape_ids.(s)).(bits) in
        let p = t.child_ptr.(s) in
        if p >= 0 then go (p + c) else t.leaf_values.(-p - 1 + c)
      in
      go r
    end

let walk t ~tree row = walk_with_trace t ~tree row ~on_slot:ignore

(* ------------------------------------------------------------------ *)
(* Stride facts                                                        *)
(* ------------------------------------------------------------------ *)

type stride_facts = {
  lane_stride : int;
  tile_advance : (int * int) option;
  leaf_advance : (int * int) option;
}

let lut_children t =
  let nt = t.tile_size in
  let all = List.init (nt + 1) Fun.id in
  Array.map
    (fun row ->
      let hit = Array.make (nt + 1) false in
      Array.iter (fun c -> if c >= 0 && c <= nt then hit.(c) <- true) row;
      List.filter (fun c -> hit.(c)) all)
    t.lut

let stride_facts t =
  match t.kind with
  | Array_kind ->
    { lane_stride = t.tile_size; tile_advance = None; leaf_advance = None }
  | Sparse_kind ->
    let children = lut_children t in
    let full = List.init (t.tile_size + 1) Fun.id in
    (* An out-of-range shape id or a row with no valid entry (corrupt
       layout) degrades to the full child range so the facts stay
       conservative — the closure check (L02x) reports the corruption
       separately. *)
    let reachable sid =
      if sid < 0 || sid >= Array.length children then full
      else match children.(sid) with [] -> full | cs -> cs
    in
    let tile = ref None and leaf = ref None in
    let widen r v =
      match !r with
      | None -> r := Some (v, v)
      | Some (lo, hi) -> r := Some (min lo v, max hi v)
    in
    Array.iteri
      (fun s cp ->
        let children = reachable t.shape_ids.(s) in
        if cp >= 0 then List.iter (fun c -> widen tile (cp + c)) children
        else List.iter (fun c -> widen leaf (-cp - 1 + c)) children)
      t.child_ptr;
    { lane_stride = t.tile_size; tile_advance = !tile; leaf_advance = !leaf }

(* ------------------------------------------------------------------ *)
(* Quantization (the integer fast path's layout half)                  *)
(* ------------------------------------------------------------------ *)

(* Bit-for-bit replica of [Tb_analysis.Numeric]'s fixed-point rounding:
   round-half-away, NaN to 0, saturation at [q_max] / [-q_max - 1]. The
   quantized buffers store these integers as floats — every integer the
   certified plan can produce is below 2^31, so float compares and adds
   on them are exact and the existing walk kernels execute integer
   semantics unchanged. *)
let pow2 e = Float.ldexp 1.0 e

let[@inline] quantize_scaled ~q_max scaled =
  let v = Float.round scaled in
  if Float.is_nan v then 0
  else if v >= float_of_int q_max then q_max
  else if v <= float_of_int (-q_max - 1) then -q_max - 1
  else int_of_float v

let quantize_threshold (q : qspec) ~feature x =
  (* Infinite thresholds are routing markers, not model constants: dummy
     padding tiles, hop tiles and unused tile lanes compare against +inf
     so their comparison bit is constant. Quantizing +inf to the
     saturated q_max would break the constancy exactly on saturated rows
     (q_max < q_max is false), so the markers pass through untouched —
     a finite quantized row value still compares against them the same
     way every float row does. *)
  if x = infinity || x = neg_infinity then x
  else
    let e = match q.feature_exp.(feature) with Some e -> e | None -> 0 in
    float_of_int (quantize_scaled ~q_max:q.q_max (x *. pow2 e))

let quantize_leaf (q : qspec) v =
  float_of_int (quantize_scaled ~q_max:q.q_max (v *. pow2 q.leaf_exp))

let quantize_row (q : qspec) row =
  Array.mapi
    (fun f x ->
      match if f < Array.length q.feature_exp then q.feature_exp.(f) else None with
      | None -> 0.0
      | Some e -> float_of_int (quantize_scaled ~q_max:q.q_max (x *. pow2 e)))
    row

let dequant_scale (q : qspec) = pow2 (-q.leaf_exp)

let quantize_leaf_int (q : qspec) v =
  quantize_scaled ~q_max:q.q_max (v *. pow2 q.leaf_exp)

(* Per-batch row quantization is on the fast path's critical path (it
   runs once per row per predict call), so the per-feature 2^e scales
   are hoisted out of the loop — [ldexp] per element costs as much as a
   tile step on wide-feature models. Unused features keep scale 0, which
   doubles as the None marker ([pow2] never returns 0). The row is filled
   by a plain loop around the inlined [quantize_scaled], so no scaled
   feature is boxed: a closure per element ([Array.init]) or an
   out-of-line call that takes the float would box one per feature. *)
let row_quantizer (q : qspec) =
  let nf = Array.length q.feature_exp in
  let scale = Array.make nf 0.0 in
  Array.iteri
    (fun f e -> match e with Some e -> scale.(f) <- pow2 e | None -> ())
    q.feature_exp;
  let q_max = q.q_max in
  fun (row : float array) ->
    let qrow = Array.make nf 0 in
    for f = 0 to nf - 1 do
      let s = Array.unsafe_get scale f in
      if s <> 0.0 then Array.unsafe_set qrow f (quantize_scaled ~q_max (row.(f) *. s))
    done;
    qrow

let quantize (q : qspec) t =
  if t.quant <> None then invalid_arg "Layout.quantize: already quantized";
  if q.qbits <> 8 && q.qbits <> 16 then
    invalid_arg "Layout.quantize: qbits must be 8 or 16";
  let nt = t.tile_size in
  let thresholds = Array.copy t.thresholds in
  Array.iteri
    (fun s sid ->
      if sid = leaf_marker then
        (* Array-layout leaf slot: the value sits in threshold lane 0. *)
        thresholds.(s * nt) <- quantize_leaf q t.thresholds.(s * nt)
      else if sid <> unused_marker then
        for lane = 0 to nt - 1 do
          let i = (s * nt) + lane in
          thresholds.(i) <- quantize_threshold q ~feature:t.features.(i) t.thresholds.(i)
        done)
    t.shape_ids;
  let leaf_values = Array.map (quantize_leaf q) t.leaf_values in
  { t with thresholds; leaf_values; quant = Some q }

(* ------------------------------------------------------------------ *)
(* Narrow buffers (the materialized int8/int16 execution form)         *)
(* ------------------------------------------------------------------ *)

(* The quantized float-trick buffers above stay authoritative — they are
   what [walk] (the reference semantics), the interpreter and the Pack
   wire format consume. The narrow form re-expresses them for the JIT's
   integer kernels: thresholds and leaves in int16 Bigarrays (a quarter
   of the float64 buffers' value traffic), quantized rows as int arrays.
   int8 plans use the same int16 lanes — every int8 value and the int8
   sentinel below fit — so one kernel family serves both widths. The
   only values a narrow element cannot carry are the ±inf routing
   markers, so those are re-encoded exactly:

   - [-inf] lanes (never true) store [-q_max - 1], the smallest value a
     quantized row can take — [qrow < -q_max - 1] is false for every
     row, just like [qrow < -inf]. A genuinely saturated threshold at
     [-q_max - 1] already compares false against every row in the float
     domain too, so the merge is lossless.
   - [+inf] lanes (always true) also store [-q_max - 1] (contributing a
     0 bit) and set their lane's bit in the slot's [always] mask, which
     the narrow comparison ORs in. *)

type narrow16 = (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t
type narrow = { thr : narrow16; leaves : narrow16; always : int array }

let narrow t =
  match t.quant with
  | None -> invalid_arg "Layout.narrow: float layout has no narrow form"
  | Some q ->
    let nt = t.tile_size in
    let slots = Array.length t.shape_ids in
    let always = Array.make slots 0 in
    let never = -q.q_max - 1 in
    let thr_i = Array.make (Array.length t.thresholds) 0 in
    Array.iteri
      (fun s sid ->
        if sid = leaf_marker then
          (* Array-layout leaf slot: the (finite) leaf sits in lane 0. *)
          thr_i.(s * nt) <- int_of_float t.thresholds.(s * nt)
        else if sid <> unused_marker then
          for lane = 0 to nt - 1 do
            let i = (s * nt) + lane in
            let x = t.thresholds.(i) in
            if x = infinity then begin
              always.(s) <- always.(s) lor (1 lsl (nt - 1 - lane));
              thr_i.(i) <- never
            end
            else if x = neg_infinity then thr_i.(i) <- never
            else thr_i.(i) <- int_of_float x
          done)
      t.shape_ids;
    let lanes =
      Bigarray.Array1.of_array Bigarray.int16_signed Bigarray.c_layout
    in
    {
      thr = lanes thr_i;
      leaves = lanes (Array.map int_of_float t.leaf_values);
      always;
    }

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

let num_slots t = Array.length t.shape_ids

let memory_bytes t =
  let slots = num_slots t in
  let nt = t.tile_size in
  (* Quantized layouts store thresholds and leaves at the plan's width
     instead of float32. *)
  let value_bytes = match t.quant with None -> 4 | Some q -> q.qbits / 8 in
  let per_slot =
    (* thresholds + features i16 per lane, shape id i16, and the sparse
       layout's i32 child pointer. *)
    (nt * (value_bytes + 2)) + 2
    + (match t.kind with Sparse_kind -> 4 | Array_kind -> 0)
  in
  (slots * per_slot) + (value_bytes * Array.length t.leaf_values)
