module T = Tb_hir.Tiled_tree
module Program = Tb_hir.Program
module Schedule = Tb_hir.Schedule
module Lut = Tb_hir.Lut
module D = Tb_diag.Diagnostic

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

(* A tile whose children are all leaves points into the leaf store; any
   other tile's children take one block of slots, a leaf child becoming a
   hop tile with two leaf-store entries. *)
let leaf_children (tree : T.t) (tile : T.tile) =
  let k = ref 0 in
  for j = 0 to Array.length tile.T.children - 1 do
    match tree.T.nodes.(tile.T.children.(j)) with T.Leaf _ -> incr k | T.Tile _ -> ()
  done;
  !k

(* Slots and leaf-store entries of one tree; the layout places every node
   of a tiled tree once. *)
let sparse_size (tree : T.t) =
  match tree.T.nodes.(0) with
  | T.Leaf _ -> (0, 1)
  | T.Tile _ ->
    let slots = ref 1 and leaves = ref 0 in
    Array.iter
      (function
        | T.Leaf _ -> ()
        | T.Tile tile ->
          let k = Array.length tile.T.children and l = leaf_children tree tile in
          if l = k then leaves := !leaves + l
          else begin
            slots := !slots + k;
            leaves := !leaves + (2 * l)
          end)
      tree.T.nodes;
    (!slots, !leaves)

let build_sparse (p : Program.t) =
  let trees = Array.map (fun e -> e.Program.tiled) p.Program.trees in
  let nt = p.Program.schedule.Schedule.tile_size in
  let dummy_shape_id = Lut.shape_id p.Program.lut (Tb_hir.Shape.Node (None, None)) in
  let num_slots, num_leaves =
    Array.fold_left
      (fun (s, l) tree ->
        let s', l' = sparse_size tree in
        (s + s', l + l'))
      (0, 0) trees
  in
  let thresholds = Array.make (num_slots * nt) 0.0 in
  let features = Array.make (num_slots * nt) 0 in
  let shape_ids = Array.make num_slots unused_marker in
  let child_ptr = Array.make num_slots 0 in
  let leaf_values = Array.make num_leaves 0.0 in
  let slots = ref 0 and leaves = ref 0 in
  let push_leaf v =
    leaf_values.(!leaves) <- v;
    incr leaves;
    !leaves - 1
  in
  let place s ~shape_id ~(lanes : float array) ~(lane_features : int array) ~ptr =
    shape_ids.(s) <- shape_id;
    child_ptr.(s) <- ptr;
    for lane = 0 to nt - 1 do
      thresholds.((s * nt) + lane) <- lanes.(lane);
      features.((s * nt) + lane) <- lane_features.(lane)
    done
  in
  let hop_lanes = Array.make nt infinity and hop_features = Array.make nt 0 in
  let tree_root = Array.make (Array.length trees) 0 in
  (* [item.(s - root)] is the tiled node in slot [s] of the current tree.
     A tile's child block is reserved when the tile is placed, so slots are
     placed in the order they are reserved: the slots are the BFS queue. *)
  let item =
    Array.make (Array.fold_left (fun m t -> max m (Array.length t.T.nodes)) 0 trees) 0
  in
  Array.iteri
    (fun ti (tree : T.t) ->
      match tree.T.nodes.(0) with
      | T.Leaf v -> tree_root.(ti) <- -1 - push_leaf v
      | T.Tile _ ->
        let root = !slots in
        tree_root.(ti) <- root;
        slots := root + 1;
        item.(0) <- 0;
        let next = ref root in
        while !next < !slots do
          let s = !next in
          incr next;
          match tree.T.nodes.(item.(s - root)) with
          | T.Leaf v ->
            (* A hop tile: single always-true dummy predicate, both exits
               lead to leaves holding the original leaf's value. *)
            let l0 = push_leaf v in
            ignore (push_leaf v : int);
            place s ~shape_id:dummy_shape_id ~lanes:hop_lanes ~lane_features:hop_features
              ~ptr:(-l0 - 1)
          | T.Tile tile ->
            let children = tile.T.children in
            let k = Array.length children in
            let ptr =
              if leaf_children tree tile = k then begin
                let first = !leaves in
                for j = 0 to k - 1 do
                  match tree.T.nodes.(children.(j)) with
                  | T.Leaf v -> ignore (push_leaf v : int)
                  | T.Tile _ -> assert false
                done;
                -first - 1
              end
              else begin
                let start = !slots in
                slots := start + k;
                for j = 0 to k - 1 do
                  item.(start + j - root) <- children.(j)
                done;
                start
              end
            in
            place s ~shape_id:tile.T.shape_id ~lanes:tile.T.thresholds
              ~lane_features:tile.T.features ~ptr
        done)
    trees;
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

let walk t ~tree row =
  match t.kind with
  | Array_kind ->
    let fanout = t.tile_size + 1 in
    let base = t.tree_root.(tree) in
    let rec go local =
      let s = base + local in
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
        let bits = comparison_bits t s row in
        let c = t.lut.(t.shape_ids.(s)).(bits) in
        let p = t.child_ptr.(s) in
        if p >= 0 then go (p + c) else t.leaf_values.(-p - 1 + c)
      in
      go r
    end

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

(* Per LUT row, the children its entries select as a bitmask: bit c for
   child c in 0..tile_size, and bit tile_size + 1 when some entry is
   outside that range. *)
let child_masks t =
  let nt = t.tile_size in
  Array.map
    (fun row ->
      let m = ref 0 in
      for i = 0 to Array.length row - 1 do
        let c = row.(i) in
        m := !m lor (if c >= 0 && c <= nt then 1 lsl c else 1 lsl (nt + 1))
      done;
      !m)
    t.lut

let check ~num_features t =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let err ~code ~path fmt = D.errorf ~level:D.Lir ~code ~path fmt in
  let nt = t.tile_size in
  if nt < 1 || nt > 8 then
    [ err ~code:"L020" ~path:[] "tile size %d outside 1..8" nt ]
  else begin
    let sparse = t.kind = Sparse_kind in
    let roots = t.tree_root and shape_ids = t.shape_ids in
    let features = t.features and child_ptr = t.child_ptr in
    let slots = Array.length shape_ids and trees = Array.length roots in
    let rows = Array.length t.lut and num_leaves = Array.length t.leaf_values in
    (* Paths are formatted only for a finding. *)
    let slot_path s = [ Printf.sprintf "slot %d" s ] in
    let tree_path i = [ Printf.sprintf "tree %d" i ] in
    let row_path sid = [ Printf.sprintf "lut row %d" sid ] in
    let lanes_ok =
      Array.length t.thresholds = slots * nt && Array.length features = slots * nt
    in
    if not lanes_ok then
      add
        (err ~code:"L020" ~path:[]
           "slot-major arrays have %d/%d entries, expected %d slots x %d lanes"
           (Array.length t.thresholds) (Array.length features) slots nt);
    let cptrs = if sparse then slots else 0 in
    let cptr_ok = Array.length child_ptr = cptrs in
    if not cptr_ok then
      add
        (err ~code:"L020" ~path:[] "child-pointer array has %d entries, expected %d"
           (Array.length child_ptr) cptrs);
    if (not sparse) && num_leaves > 0 then
      add
        (err ~code:"L023" ~path:[]
           "array layout carries %d values in a separate leaf store" num_leaves);
    if trees <> t.num_trees then
      add (err ~code:"L022" ~path:[] "%d tree roots for %d trees" trees t.num_trees);
    let width = 1 lsl nt and masks = child_masks t in
    Array.iteri
      (fun sid row ->
        if Array.length row <> width then
          add
            (err ~code:"L024" ~path:(row_path sid)
               "row has %d entries, expected 2^%d = %d" (Array.length row) nt width)
        else if masks.(sid) lsr (nt + 1) <> 0 then
          Array.iteri
            (fun bits c ->
              if c < 0 || c > nt then
                add
                  (err ~code:"L024" ~path:(row_path sid)
                     "entry for bits %#x is %d, outside the 0..%d child range" bits
                     c nt))
            row)
      t.lut;
    (* The highest child each row selects: a sparse child block ends there. *)
    let top =
      Array.map
        (fun m ->
          let c = ref 0 in
          for b = 1 to nt do
            if m land (1 lsl b) <> 0 then c := b
          done;
          !c)
        masks
    in
    (* A tree owns the slots from its root (array: slab base) up to the
       next slot-rooted tree's, so those roots must ascend. *)
    let ordered = ref true and prev = ref (-1) in
    for i = 0 to trees - 1 do
      let r = roots.(i) in
      if r >= 0 || not sparse then begin
        if r < 0 || r >= slots then begin
          ordered := false;
          add
            (err ~code:"L022" ~path:(tree_path i) "root slot %d outside the %d slots"
               r slots)
        end
        else if r <= !prev then begin
          ordered := false;
          add
            (err ~code:"L022" ~path:(tree_path i)
               "root slot %d is not past the previous tree's root %d" r !prev)
        end
        else if (not sparse) && shape_ids.(r) = unused_marker then
          add
            (err ~code:"L022" ~path:(tree_path i) "root slot %d was never allocated"
               r);
        prev := r
      end
      else if -r - 1 >= num_leaves then
        add
          (err ~code:"L022" ~path:(tree_path i)
             "single-leaf root index %d outside the %d leaf values" (-r - 1)
             num_leaves)
    done;
    let ordered = !ordered in
    (* A quantized row has exactly one entry per plan feature. *)
    let row_len =
      match t.quant with
      | Some q -> min num_features (Array.length q.feature_exp)
      | None -> num_features
    in
    let min_sid = if sparse then 0 else unused_marker in
    let path owner s =
      if owner >= 0 then tree_path owner @ slot_path s else slot_path s
    in
    (* One pass over the slots. With ordered roots, [next] is the first
       tree rooted past slot [s], so [s] lies in tree [owner]'s slots,
       which end at [stop]. *)
    let next = ref 0 and owner = ref (-1) in
    for s = 0 to slots - 1 do
      if ordered then
        while !next < trees && roots.(!next) <= s do
          if roots.(!next) >= 0 then owner := !next;
          incr next
        done;
      let stop = if ordered && !next < trees then roots.(!next) else slots in
      let sid = shape_ids.(s) in
      if sid < min_sid || sid >= rows then
        add
          (err ~code:"L024" ~path:(path !owner s)
             "shape id %d names none of the %d LUT rows%s" sid rows
             (if sparse then " (sparse slots are always tiles)"
              else " or the leaf and unused markers"))
      else if sid >= 0 then begin
        if lanes_ok then
          for lane = 0 to nt - 1 do
            let f = features.((s * nt) + lane) in
            if f < 0 || f >= row_len then
              add
                (err ~code:"L021" ~path:(path !owner s)
                   "lane %d reads feature %d outside the row's %d features" lane f
                   row_len)
          done;
        let m = masks.(sid) and hi = top.(sid) in
        if sparse && cptr_ok then begin
          let cp = child_ptr.(s) in
          (* Successors strictly past their slot make every walk end. *)
          if cp >= 0 && cp <= s then
            add
              (err ~code:"L020" ~path:(path !owner s)
                 "child pointer %d does not point past its own slot" cp)
          else if cp >= 0 && cp >= stop - hi then
            add
              (err ~code:"L020" ~path:(path !owner s)
                 "child %d at slot %d escapes the tree's slots, which end at %d" hi
                 (cp + hi) stop)
          else if cp < 0 && -cp - 1 >= num_leaves - hi then
            add
              (err ~code:"L023" ~path:(path !owner s)
                 "child %d reads leaf %d outside the %d leaf values" hi
                 (-cp - 1 + hi) num_leaves)
        end
        else if (not sparse) && !owner >= 0 then begin
          let base = roots.(!owner) in
          let first = base + ((s - base) * (nt + 1)) + 1 in
          for c = 0 to nt do
            if m land (1 lsl c) <> 0 then
              if first + c >= stop then
                add
                  (err ~code:"L020" ~path:(path !owner s)
                     "child %d at slot %d escapes the tree's slab [%d, %d)" c
                     (first + c) base stop)
              else if shape_ids.(first + c) = unused_marker then
                add
                  (err ~code:"L020" ~path:(path !owner s)
                     "child %d points to unallocated slot %d" c (first + c))
          done
        end
      end
    done;
    List.rev !ds
  end

(* Every successor lies strictly past its slot, so one forward pass over
   the slots meets each slot after every slot that leads to it: [lo] and
   [hi] hold the fewest and the most tile steps from a root to the slot,
   with [hi] = -1 on a slot no walk reaches. *)
let leaf_depths t =
  let nt = t.tile_size and roots = t.tree_root in
  let slots = Array.length t.shape_ids and trees = Array.length roots in
  (* A lane against +inf always sets its comparison bit on a finite row
     and one against -inf (or NaN) never does, so a LUT entry that
     contradicts them selects no child: a padding tile's dead exit is
     not a leaf. Each slot's children are the entries its forced bits
     allow; the slots of one shape force the same lanes, so one cached
     mask per LUT row serves nearly every slot. *)
  let rows = Array.length t.lut in
  let cached_key = Array.make rows (-1) and cached_mask = Array.make rows 0 in
  let children s sid =
    let set = ref 0 and clear = ref 0 in
    for lane = 0 to nt - 1 do
      let th = t.thresholds.((s * nt) + lane) and bit = 1 lsl (nt - 1 - lane) in
      if th = infinity then set := !set lor bit
      else if not (neg_infinity < th) then clear := !clear lor bit
    done;
    let key = (!set lsl nt) lor !clear in
    if cached_key.(sid) = key then cached_mask.(sid)
    else begin
      (* Every subset of the free lanes, on top of the forced ones. *)
      let set = !set and row = t.lut.(sid) in
      let free = ((1 lsl nt) - 1) land lnot (set lor !clear) in
      let m = ref (1 lsl row.(set lor free)) and x = ref free in
      while !x <> 0 do
        x := (!x - 1) land free;
        m := !m lor (1 lsl row.(set lor !x))
      done;
      cached_key.(sid) <- key;
      cached_mask.(sid) <- !m;
      !m
    end
  in
  let lo = Array.make slots max_int and hi = Array.make slots (-1) in
  let leaf_lo = Array.make trees max_int and leaf_hi = Array.make trees (-1) in
  let leaf tree dlo dhi =
    if dlo < leaf_lo.(tree) then leaf_lo.(tree) <- dlo;
    if dhi > leaf_hi.(tree) then leaf_hi.(tree) <- dhi
  in
  Array.iteri
    (fun i r ->
      if r >= 0 then begin
        lo.(r) <- 0;
        hi.(r) <- 0
      end
      else leaf i 0 0)
    roots;
  (* As in [check]: [owner] is the tree whose slots hold [s]. *)
  let next = ref 0 and owner = ref (-1) in
  for s = 0 to slots - 1 do
    while !next < trees && roots.(!next) <= s do
      if roots.(!next) >= 0 then owner := !next;
      incr next
    done;
    let dhi = hi.(s) in
    if dhi >= 0 then begin
      let dlo = lo.(s) and sid = t.shape_ids.(s) in
      if t.kind = Array_kind && sid = leaf_marker then leaf !owner dlo dhi
      else begin
        let first =
          match t.kind with
          | Array_kind ->
            let base = roots.(!owner) in
            base + ((s - base) * (nt + 1)) + 1
          | Sparse_kind -> t.child_ptr.(s)
        in
        if first < 0 then leaf !owner (dlo + 1) (dhi + 1)
        else begin
          let m = ref (children s sid) and c = ref first in
          while !m <> 0 do
            if !m land 1 <> 0 then begin
              if dlo + 1 < lo.(!c) then lo.(!c) <- dlo + 1;
              if dhi + 1 > hi.(!c) then hi.(!c) <- dhi + 1
            end;
            m := !m lsr 1;
            incr c
          done
        end
      end
    end
  done;
  Array.init trees (fun i -> (leaf_lo.(i), leaf_hi.(i)))

(* ------------------------------------------------------------------ *)
(* Stride facts                                                        *)
(* ------------------------------------------------------------------ *)

type stride_facts = {
  lane_stride : int;
  tile_advance : (int * int) option;
  leaf_advance : (int * int) option;
}

let stride_facts t =
  match t.kind with
  | Array_kind ->
    { lane_stride = t.tile_size; tile_advance = None; leaf_advance = None }
  | Sparse_kind ->
    let nt = t.tile_size in
    let masks = child_masks t in
    (* An out-of-range shape id or a row with no valid entry (corrupt
       layout) degrades to the full child range so the facts stay
       conservative — {!check} reports the corruption separately. *)
    let full = (1 lsl (nt + 1)) - 1 in
    let reachable sid =
      let m =
        if sid < 0 || sid >= Array.length masks then 0 else masks.(sid) land full
      in
      if m = 0 then full else m
    in
    (* Typed int bounds: [min] and [max] would make a polymorphic compare
       call, and an option range an allocation, per reachable child. *)
    let tile_lo = ref max_int and tile_hi = ref min_int in
    let leaf_lo = ref max_int and leaf_hi = ref min_int in
    let widen lo hi (v : int) =
      if v < !lo then lo := v;
      if v > !hi then hi := v
    in
    Array.iteri
      (fun s cp ->
        let m = reachable t.shape_ids.(s) in
        for c = 0 to nt do
          if m land (1 lsl c) <> 0 then
            if cp >= 0 then widen tile_lo tile_hi (cp + c)
            else widen leaf_lo leaf_hi (-cp - 1 + c)
        done)
      t.child_ptr;
    let range lo hi = if !lo > !hi then None else Some (!lo, !hi) in
    {
      lane_stride = nt;
      tile_advance = range tile_lo tile_hi;
      leaf_advance = range leaf_lo leaf_hi;
    }

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

let dequant_scale (q : qspec) = pow2 (-q.leaf_exp)

(* Row quantization is on the quantized tier's critical path (it runs
   once per row per predict call), so the per-feature 2^e scales are
   hoisted out of the loop — [ldexp] per element costs as much as a tile
   step on wide-feature models. Unused features keep scale 0, which
   doubles as the None marker ([pow2] never returns 0). The row is filled
   by a plain loop around the inlined [quantize_scaled] into a flat float
   array, so no scaled feature is boxed: a closure per element
   ([Array.init]) or an out-of-line call that takes the float would box
   one per feature. *)
let quantize_row (q : qspec) =
  let nf = Array.length q.feature_exp in
  let scale = Array.make nf 0.0 in
  Array.iteri
    (fun f e -> match e with Some e -> scale.(f) <- pow2 e | None -> ())
    q.feature_exp;
  let q_max = q.q_max in
  fun (row : float array) ->
    let qrow = Array.make nf 0.0 in
    for f = 0 to nf - 1 do
      let s = Array.unsafe_get scale f in
      if s <> 0.0 then
        Array.unsafe_set qrow f (float_of_int (quantize_scaled ~q_max (row.(f) *. s)))
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
