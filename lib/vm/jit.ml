module Layout = Tb_lir.Layout
module Pack = Tb_lir.Pack
module Mir = Tb_mir.Mir
module Schedule = Tb_hir.Schedule

type predictor = float array array -> float array array

(* The kernels below allocate nothing: a walk returns the index of the
   leaf value it reaches, never a boxed float; the recursive walks are
   top-level functions, so no call builds a closure over its row; and a
   jam advances its cursors in a buffer the runner allocates once per row
   range. Without flambda a local helper or an inner [let rec] that
   captures the row is a closure allocated on every call, which is why
   the eight lanes of a tile step are written out by hand. *)

(* ------------------------------------------------------------------ *)
(* Tile step                                                           *)
(* ------------------------------------------------------------------ *)

(* Child index (LUT entry) that tile slot [s] selects for [row].

   Lane loads are unchecked. They stay in range because the step first
   does two checked loads: [shape_ids.(s)] proves 0 <= s < slots, and
   [lut.(sid)] proves the slot is a tile (sid >= 0). The threshold and
   feature buffers hold exactly slots x tile_size entries — [Layout.build]
   builds them so, and [Layout.check] (L020), which both the verifier and
   the artifact decoder run, checks it — so every lane index s * nt + l
   is below their length. The same check bounds every walk: successors
   stay in their tree's slots and lie strictly past the slot they leave.
   Row loads stay checked: a short row raises [Invalid_argument], as the
   reference walk does.

   Tiles of size 8 (the default schedule's) compare in straight-line code,
   the shape of Treebeard's vector compare + movemask: eight independent
   lane bits ORed into the LUT index, each compare in value position so it
   compiles branchless (setcc) like [Layout.comparison_bits]. Sizes 1-7
   loop over the lanes. *)
let tile_child (lay : Layout.t) s (row : float array) =
  let lut_row = lay.Layout.lut.(lay.Layout.shape_ids.(s)) in
  let thr = lay.Layout.thresholds and feat = lay.Layout.features in
  let nt = lay.Layout.tile_size in
  let i = s * nt in
  if nt = 8 then begin
    let x0 = row.(Array.unsafe_get feat i) in
    let b0 = if x0 < Array.unsafe_get thr i then 1 else 0 in
    let x1 = row.(Array.unsafe_get feat (i + 1)) in
    let b1 = if x1 < Array.unsafe_get thr (i + 1) then 1 else 0 in
    let x2 = row.(Array.unsafe_get feat (i + 2)) in
    let b2 = if x2 < Array.unsafe_get thr (i + 2) then 1 else 0 in
    let x3 = row.(Array.unsafe_get feat (i + 3)) in
    let b3 = if x3 < Array.unsafe_get thr (i + 3) then 1 else 0 in
    let x4 = row.(Array.unsafe_get feat (i + 4)) in
    let b4 = if x4 < Array.unsafe_get thr (i + 4) then 1 else 0 in
    let x5 = row.(Array.unsafe_get feat (i + 5)) in
    let b5 = if x5 < Array.unsafe_get thr (i + 5) then 1 else 0 in
    let x6 = row.(Array.unsafe_get feat (i + 6)) in
    let b6 = if x6 < Array.unsafe_get thr (i + 6) then 1 else 0 in
    let x7 = row.(Array.unsafe_get feat (i + 7)) in
    let b7 = if x7 < Array.unsafe_get thr (i + 7) then 1 else 0 in
    lut_row.((b0 lsl 7) lor (b1 lsl 6) lor (b2 lsl 5) lor (b3 lsl 4) lor (b4 lsl 3)
             lor (b5 lsl 2) lor (b6 lsl 1) lor b7)
  end
  else begin
    let bits = ref 0 in
    for lane = 0 to nt - 1 do
      let x = row.(Array.unsafe_get feat (i + lane)) in
      let b = if x < Array.unsafe_get thr (i + lane) then 1 else 0 in
      bits := !bits lor (b lsl (nt - 1 - lane))
    done;
    lut_row.(!bits)
  end

(* Array layout: a cursor is a slot local to the tree's slab; child c of
   local slot s lives at s*(nt+1)+c+1. *)
let step_array (lay : Layout.t) base local row =
  (local * (lay.Layout.tile_size + 1)) + tile_child lay (base + local) row + 1

(* Sparse layout: a cursor is an absolute tile slot; a negative value from
   a step encodes the leaf index reached. *)
let step_sparse (lay : Layout.t) s row =
  let c = tile_child lay s row in
  let p = lay.Layout.child_ptr.(s) in
  if p >= 0 then p + c else -(-p - 1 + c) - 1

(* ------------------------------------------------------------------ *)
(* Single-walk kernels                                                 *)
(* ------------------------------------------------------------------ *)

(* A walk returns the index of its leaf value: lane 0 of the leaf slot in
   the threshold buffer (array layout) or the leaf's index in the leaf
   buffer (sparse layout). [leaf_store] is the buffer the index is into. *)
let leaf_store (lay : Layout.t) =
  match lay.Layout.kind with
  | Layout.Array_kind -> lay.Layout.thresholds
  | Layout.Sparse_kind -> lay.Layout.leaf_values

let rec walk_array_from (lay : Layout.t) base local row =
  let s = base + local in
  if lay.Layout.shape_ids.(s) = Layout.leaf_marker then s * lay.Layout.tile_size
  else walk_array_from lay base (step_array lay base local row) row

let walk_array_unrolled (lay : Layout.t) base row ~depth =
  (* No termination checks: the tree is padded to uniform depth. *)
  let local = ref 0 in
  for _ = 1 to depth do
    local := step_array lay base !local row
  done;
  (base + !local) * lay.Layout.tile_size

let walk_array_peeled lay base row ~peel =
  (* The first [peel] steps cannot reach a leaf (min leaf depth), so they
     run without leaf checks; the remainder is the loop walk. *)
  let local = ref 0 in
  for _ = 1 to peel do
    local := step_array lay base !local row
  done;
  walk_array_from lay base !local row

(* From a sparse cursor (a slot, or a negative leaf encoding) to its leaf. *)
let rec walk_sparse_from lay s row =
  if s < 0 then -s - 1 else walk_sparse_from lay (step_sparse lay s row) row

let walk_sparse_unrolled lay root row ~depth =
  (* Every path crosses exactly [depth] tiles, so [depth] steps land on a
     leaf. *)
  if root < 0 then -root - 1
  else begin
    let s = ref root in
    for _ = 1 to depth do
      s := step_sparse lay !s row
    done;
    - !s - 1
  end

let walk_sparse_peeled lay root row ~peel =
  (* No walk can terminate before [peel] steps (peel = min leaf depth),
     but the last peeled step may land exactly on a leaf. *)
  let s = ref root in
  for _ = 1 to peel do
    if !s >= 0 then s := step_sparse lay !s row
  done;
  walk_sparse_from lay !s row

(* One tree's walk of one row, per the group's walk kind. *)
let walk_fn (lay : Layout.t) (walk : Mir.walk_kind) tree : float array -> int =
  let root = lay.Layout.tree_root.(tree) in
  match (lay.Layout.kind, walk) with
  | Layout.Array_kind, Mir.Loop_walk -> fun row -> walk_array_from lay root 0 row
  | Layout.Array_kind, Mir.Unrolled_walk { depth } ->
    fun row -> walk_array_unrolled lay root row ~depth
  | Layout.Array_kind, Mir.Peeled_walk { peel } ->
    fun row -> walk_array_peeled lay root row ~peel
  | Layout.Sparse_kind, Mir.Loop_walk -> fun row -> walk_sparse_from lay root row
  | Layout.Sparse_kind, Mir.Unrolled_walk { depth } ->
    fun row -> walk_sparse_unrolled lay root row ~depth
  | Layout.Sparse_kind, Mir.Peeled_walk { peel } ->
    fun row -> walk_sparse_peeled lay root row ~peel

(* ------------------------------------------------------------------ *)
(* Interleaved (jammed) kernels                                        *)
(* ------------------------------------------------------------------ *)

(* Jam [count] walks of one tree over consecutive rows (tree-at-a-time
   order), their cursors advancing in lockstep in [cur] — the row range's
   buffer, at least [count] long. Array-layout cursors are slab locals,
   sparse ones slots; in both, a negative cursor marks a walk that has
   added its leaf value and retired. *)
let jam_rows_generic (lay : Layout.t) tree (cur : int array)
    (rows : float array array) i0 count (out : float array array) cls =
  let root = lay.Layout.tree_root.(tree) in
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let nt = lay.Layout.tile_size in
    for j = 0 to count - 1 do
      cur.(j) <- 0
    done;
    let remaining = ref count in
    while !remaining > 0 do
      for j = 0 to count - 1 do
        let local = cur.(j) in
        if local >= 0 then begin
          let s = root + local in
          if lay.Layout.shape_ids.(s) = Layout.leaf_marker then begin
            let o = out.(i0 + j) in
            o.(cls) <- o.(cls) +. lay.Layout.thresholds.(s * nt);
            cur.(j) <- -1;
            decr remaining
          end
          else cur.(j) <- step_array lay root local rows.(i0 + j)
        end
      done
    done
  | Layout.Sparse_kind ->
    if root < 0 then
      for j = 0 to count - 1 do
        let o = out.(i0 + j) in
        o.(cls) <- o.(cls) +. lay.Layout.leaf_values.(-root - 1)
      done
    else begin
      for j = 0 to count - 1 do
        cur.(j) <- root
      done;
      let remaining = ref count in
      while !remaining > 0 do
        for j = 0 to count - 1 do
          let s = cur.(j) in
          if s >= 0 then begin
            let next = step_sparse lay s rows.(i0 + j) in
            cur.(j) <- next;
            if next < 0 then begin
              let o = out.(i0 + j) in
              o.(cls) <- o.(cls) +. lay.Layout.leaf_values.(-next - 1);
              decr remaining
            end
          end
        done
      done
    end

(* Jam with a uniform unrolled depth: pure lockstep, no retirement. *)
let jam_rows_unrolled (lay : Layout.t) tree (cur : int array)
    (rows : float array array) i0 count (out : float array array) cls ~depth =
  let root = lay.Layout.tree_root.(tree) in
  match lay.Layout.kind with
  | Layout.Array_kind ->
    for j = 0 to count - 1 do
      cur.(j) <- 0
    done;
    for _ = 1 to depth do
      for j = 0 to count - 1 do
        cur.(j) <- step_array lay root cur.(j) rows.(i0 + j)
      done
    done;
    for j = 0 to count - 1 do
      let o = out.(i0 + j) in
      o.(cls) <-
        o.(cls) +. lay.Layout.thresholds.((root + cur.(j)) * lay.Layout.tile_size)
    done
  | Layout.Sparse_kind ->
    if root < 0 then
      for j = 0 to count - 1 do
        let o = out.(i0 + j) in
        o.(cls) <- o.(cls) +. lay.Layout.leaf_values.(-root - 1)
      done
    else begin
      for j = 0 to count - 1 do
        cur.(j) <- root
      done;
      for _ = 1 to depth do
        for j = 0 to count - 1 do
          cur.(j) <- step_sparse lay cur.(j) rows.(i0 + j)
        done
      done;
      for j = 0 to count - 1 do
        let o = out.(i0 + j) in
        o.(cls) <- o.(cls) +. lay.Layout.leaf_values.(-cur.(j) - 1)
      done
    end

let jam_fn (lay : Layout.t) (walk : Mir.walk_kind) tree =
  match walk with
  | Mir.Unrolled_walk { depth } ->
    fun cur rows i0 count out cls ->
      jam_rows_unrolled lay tree cur rows i0 count out cls ~depth
  | Mir.Loop_walk | Mir.Peeled_walk _ ->
    fun cur rows i0 count out cls ->
      jam_rows_generic lay tree cur rows i0 count out cls

(* Jam the walks of one row over [count] trees of one group (row-at-a-time
   order): lane j walks the tree at group position p0 + j, rooted at
   [roots.(p0 + j)] and adding into class [classes.(p0 + j)] of the row's
   output [o]. The lanes add their leaf values in lane order, which is
   tree order, and only after the last walk has finished: every output
   cell then still sums its trees in [trees_in_order], where adding each
   value as its walk retired would reorder the float sum. A retired lane
   keeps its leaf index i in its cursor as -i - 1. *)
let jam_trees_generic (lay : Layout.t) (roots : int array) (classes : int array)
    (cur : int array) (row : float array) (o : float array) p0 count =
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let nt = lay.Layout.tile_size in
    for j = 0 to count - 1 do
      cur.(j) <- 0
    done;
    let remaining = ref count in
    while !remaining > 0 do
      for j = 0 to count - 1 do
        let local = cur.(j) in
        if local >= 0 then begin
          let base = roots.(p0 + j) in
          let s = base + local in
          if lay.Layout.shape_ids.(s) = Layout.leaf_marker then begin
            cur.(j) <- -(s * nt) - 1;
            decr remaining
          end
          else cur.(j) <- step_array lay base local row
        end
      done
    done;
    for j = 0 to count - 1 do
      let cls = classes.(p0 + j) in
      o.(cls) <- o.(cls) +. lay.Layout.thresholds.(-cur.(j) - 1)
    done
  | Layout.Sparse_kind ->
    let remaining = ref 0 in
    for j = 0 to count - 1 do
      let root = roots.(p0 + j) in
      cur.(j) <- root;
      if root >= 0 then incr remaining
    done;
    while !remaining > 0 do
      for j = 0 to count - 1 do
        let s = cur.(j) in
        if s >= 0 then begin
          let next = step_sparse lay s row in
          cur.(j) <- next;
          if next < 0 then decr remaining
        end
      done
    done;
    for j = 0 to count - 1 do
      let cls = classes.(p0 + j) in
      o.(cls) <- o.(cls) +. lay.Layout.leaf_values.(-cur.(j) - 1)
    done

(* Tree jam of a uniform unrolled depth: pure lockstep. Every tree of an
   unrolled group has all its leaves at [depth], so a sparse root that is
   already a leaf only occurs with depth 0, where no lane steps. *)
let jam_trees_unrolled (lay : Layout.t) (roots : int array) (classes : int array)
    (cur : int array) (row : float array) (o : float array) p0 count ~depth =
  match lay.Layout.kind with
  | Layout.Array_kind ->
    for j = 0 to count - 1 do
      cur.(j) <- 0
    done;
    for _ = 1 to depth do
      for j = 0 to count - 1 do
        cur.(j) <- step_array lay roots.(p0 + j) cur.(j) row
      done
    done;
    for j = 0 to count - 1 do
      let cls = classes.(p0 + j) in
      o.(cls) <-
        o.(cls)
        +. lay.Layout.thresholds.((roots.(p0 + j) + cur.(j)) * lay.Layout.tile_size)
    done
  | Layout.Sparse_kind ->
    for j = 0 to count - 1 do
      cur.(j) <- roots.(p0 + j)
    done;
    for _ = 1 to depth do
      for j = 0 to count - 1 do
        cur.(j) <- step_sparse lay cur.(j) row
      done
    done;
    for j = 0 to count - 1 do
      let cls = classes.(p0 + j) in
      o.(cls) <- o.(cls) +. lay.Layout.leaf_values.(-cur.(j) - 1)
    done

let tree_jam_fn (lay : Layout.t) (walk : Mir.walk_kind) roots classes =
  match walk with
  | Mir.Unrolled_walk { depth } ->
    fun cur row o p0 count ->
      jam_trees_unrolled lay roots classes cur row o p0 count ~depth
  | Mir.Loop_walk | Mir.Peeled_walk _ ->
    fun cur row o p0 count -> jam_trees_generic lay roots classes cur row o p0 count

(* ------------------------------------------------------------------ *)
(* Runner assembly                                                     *)
(* ------------------------------------------------------------------ *)

(* A runner adds the predictions of rows[lo..hi) into out[lo..hi) (same
   indexing). It is assembled once, at instantiate time, so a call only
   runs closures over one cursor buffer per row range. *)

(* One tree's walks over rows[lo..hi), one row at a time. *)
let per_row (vals : float array) cls walk _cur (rows : float array array)
    (out : float array array) lo hi =
  for i = lo to hi - 1 do
    let o = out.(i) in
    o.(cls) <- o.(cls) +. vals.(walk rows.(i))
  done

(* Every tree with its group and output class, in group order — the
   order in which each output cell accumulates its trees. *)
let trees_in_order (pk : Pack.t) =
  Array.to_list pk.Pack.groups
  |> List.concat_map (fun (g : Pack.group) ->
         Array.to_list g.Pack.positions
         |> List.map (fun tree -> (g, tree, pk.Pack.tree_class.(tree))))
  |> Array.of_list

(* The one runner of both tiers. A group interleaved k ways jams k walks
   in lockstep along one of two axes, chosen per row range:
   - row jams (tree-at-a-time): one runner per tree, which walks the rows
     one by one ([per_row]) or, when k > 1, k rows at a time through the
     lockstep kernel [jam_fn];
   - tree jams (row-at-a-time): row by row, each group walks its trees k
     at a time through [tree_jam_fn], or one by one through the same
     [per_row] runners when k = 1 (a 1-lane jam costs more than a plain
     walk).
   A range shorter than the widest interleave runs tree jams: its row
   jams would be narrower than the schedule asked for, and a 1-row range
   would walk every tree as one serial chain of dependent loads. So does
   every range when [row_major]; every other range runs row jams. Both
   axes add each output cell's trees in [trees_in_order], so a row's
   margins do not depend on the range it runs in. Each row-range call
   allocates the jams' cursor buffer, as long as the widest interleave:
   ranges may run on different domains at once, so no buffer outlives
   its call. *)
let assemble_runner (pk : Pack.t) ~row_major =
  let lay = pk.Pack.layout in
  let vals = leaf_store lay in
  let width =
    Array.fold_left
      (fun w (g : Pack.group) -> max w g.Pack.interleave)
      1 pk.Pack.groups
  in
  let row_jams =
    Array.map
      (fun ((g : Pack.group), tree, cls) ->
        let k = g.Pack.interleave in
        if k <= 1 then per_row vals cls (walk_fn lay g.Pack.walk tree)
        else begin
          let jam = jam_fn lay g.Pack.walk tree in
          fun cur rows out lo hi ->
            let i = ref lo in
            while !i < hi do
              let count = if hi - !i < k then hi - !i else k in
              jam cur rows !i count out cls;
              i := !i + count
            done
        end)
      (trees_in_order pk)
  in
  let tree_jams =
    Array.map
      (fun (g : Pack.group) ->
        let pos = g.Pack.positions and k = g.Pack.interleave in
        let cls = Array.get pk.Pack.tree_class in
        if k <= 1 then begin
          let walks =
            Array.map
              (fun tree -> per_row vals (cls tree) (walk_fn lay g.Pack.walk tree))
              pos
          in
          fun cur rows out i ->
            for t = 0 to Array.length walks - 1 do
              walks.(t) cur rows out i (i + 1)
            done
        end
        else begin
          let roots = Array.map (Array.get lay.Layout.tree_root) pos in
          let jam = tree_jam_fn lay g.Pack.walk roots (Array.map cls pos) in
          let n = Array.length pos in
          fun cur rows out i ->
            let row = rows.(i) and o = out.(i) in
            let p = ref 0 in
            while !p < n do
              let count = if n - !p < k then n - !p else k in
              jam cur row o !p count;
              p := !p + count
            done
        end)
      pk.Pack.groups
  in
  fun rows out lo hi ->
    let cur = Array.make width 0 in
    if row_major || hi - lo < width then
      for i = lo to hi - 1 do
        for g = 0 to Array.length tree_jams - 1 do
          tree_jams.(g) cur rows out i
        done
      done
    else
      for t = 0 to Array.length row_jams - 1 do
        row_jams.(t) cur rows out lo hi
      done

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

(* Tile the row loop by thread count (§IV-C); each partition owns a
   contiguous block of rows (Mir.row_partition, statically checked
   disjoint by the analysis), so no synchronization is needed. The
   calling domain runs the first block and the process-wide pool the
   other non-empty ones. *)
let parallel_run ~threads run rows out =
  let n = Array.length rows in
  if threads <= 1 then run rows out 0 n
  else
    Mir.row_partition ~num_threads:threads ~batch:n
    |> Array.to_list
    |> List.filter_map (fun (lo, hi) ->
           if lo < hi then Some (fun () -> run rows out lo hi) else None)
    |> Array.of_list
    |> Pool.run

let instantiate_with ~threads (pk : Pack.t) =
  let m = pk.Pack.num_outputs in
  match pk.Pack.layout.Layout.quant with
  | None ->
    let run =
      assemble_runner pk ~row_major:(pk.Pack.loop_order = Schedule.One_row_at_a_time)
    in
    let base = pk.Pack.base_score in
    fun rows ->
      let out = Array.init (Array.length rows) (fun _ -> Array.make m base) in
      parallel_run ~threads run rows out;
      out
  | Some q ->
    (* The integer tier runs the float kernels over the quantized
       layout's integer-valued float buffers: quantize each row once,
       accumulate from the quantized base score, then dequantize in
       place. Every certified partial sum is an integer below the plan's
       accumulator bound, so each float add is exact and the result
       equals the quantized layout walk — and hence
       Numeric.qpredict_raw — bit for bit. Exact sums make every
       accumulation order bitwise-identical, so ranges as wide as the
       widest interleave run tree-at-a-time, the cache-friendliest order,
       whatever the schedule's loop order. *)
    let run = assemble_runner pk ~row_major:false in
    let quantize_row = Layout.quantize_row q in
    let qbase = Layout.quantize_leaf q pk.Pack.base_score in
    let scale = Layout.dequant_scale q in
    fun rows ->
      let qrows = Array.map quantize_row rows in
      let out = Array.init (Array.length rows) (fun _ -> Array.make m qbase) in
      parallel_run ~threads run qrows out;
      Array.iter
        (fun (o : float array) ->
          for c = 0 to m - 1 do
            o.(c) <- o.(c) *. scale
          done)
        out;
      out

let instantiate_single_thread (pk : Pack.t) = instantiate_with ~threads:1 pk
let instantiate (pk : Pack.t) = instantiate_with ~threads:pk.Pack.num_threads pk
