module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Pack = Tb_lir.Pack
module Mir = Tb_mir.Mir
module Schedule = Tb_hir.Schedule

type predictor = float array array -> float array array

(* ------------------------------------------------------------------ *)
(* Single-walk kernels                                                 *)
(* ------------------------------------------------------------------ *)

(* Array layout: cursor is a slot local to the tree's slab; child c of
   local slot s lives at s*(nt+1)+c+1. *)

let step_array (lay : Layout.t) base local row =
  let s = base + local in
  let bits = Layout.comparison_bits lay s row in
  let c = lay.Layout.lut.(lay.Layout.shape_ids.(s)).(bits) in
  (local * (lay.Layout.tile_size + 1)) + c + 1

let walk_array_generic lay base row =
  let rec go local =
    let s = base + local in
    if lay.Layout.shape_ids.(s) = Layout.leaf_marker then
      lay.Layout.thresholds.(s * lay.Layout.tile_size)
    else go (step_array lay base local row)
  in
  go 0

let walk_array_unrolled lay base row ~depth =
  (* No termination checks: the tree is padded to uniform depth. *)
  let local = ref 0 in
  for _ = 1 to depth do
    local := step_array lay base !local row
  done;
  let s = base + !local in
  lay.Layout.thresholds.(s * lay.Layout.tile_size)

let walk_array_peeled lay base row ~peel =
  (* The first [peel] steps cannot reach a leaf (min leaf depth), so they
     run without leaf checks; the remainder is the generic loop. *)
  let local = ref 0 in
  for _ = 1 to peel do
    local := step_array lay base !local row
  done;
  let rec go local =
    let s = base + local in
    if lay.Layout.shape_ids.(s) = Layout.leaf_marker then
      lay.Layout.thresholds.(s * lay.Layout.tile_size)
    else go (step_array lay base local row)
  in
  go !local

(* Sparse layout: cursor is an absolute tile slot; a negative value from a
   step encodes the leaf index reached. *)

let step_sparse (lay : Layout.t) s row =
  let bits = Layout.comparison_bits lay s row in
  let c = lay.Layout.lut.(lay.Layout.shape_ids.(s)).(bits) in
  let p = lay.Layout.child_ptr.(s) in
  if p >= 0 then p + c else -(-p - 1 + c) - 1

let walk_sparse_generic lay root row =
  if root < 0 then lay.Layout.leaf_values.(-root - 1)
  else begin
    let rec go s =
      let next = step_sparse lay s row in
      if next >= 0 then go next else lay.Layout.leaf_values.(-next - 1)
    in
    go root
  end

let walk_sparse_unrolled lay root row ~depth =
  if root < 0 then lay.Layout.leaf_values.(-root - 1)
  else begin
    (* depth >= 1 tiles on every path; the first depth-1 steps always land
       on tiles, the last one on a leaf. *)
    let s = ref root in
    for _ = 1 to depth - 1 do
      s := step_sparse lay !s row
    done;
    let last = step_sparse lay !s row in
    lay.Layout.leaf_values.(-last - 1)
  end

let walk_sparse_peeled lay root row ~peel =
  if root < 0 then lay.Layout.leaf_values.(-root - 1)
  else begin
    (* No walk can terminate before [peel] steps (peel = min leaf depth),
       but the last peeled step may land exactly on a leaf. *)
    let s = ref root in
    for _ = 1 to peel do
      if !s >= 0 then s := step_sparse lay !s row
    done;
    if !s < 0 then lay.Layout.leaf_values.(- !s - 1)
    else begin
      let rec go s =
        let next = step_sparse lay s row in
        if next >= 0 then go next else lay.Layout.leaf_values.(-next - 1)
      in
      go !s
    end
  end

(* One tree's walk of one row, per the group's walk kind. *)
let walk_fn (lay : Layout.t) (walk : Mir.walk_kind) tree =
  let root = lay.Layout.tree_root.(tree) in
  match (lay.Layout.kind, walk) with
  | Layout.Array_kind, Mir.Loop_walk -> fun row -> walk_array_generic lay root row
  | Layout.Array_kind, Mir.Unrolled_walk { depth } ->
    fun row -> walk_array_unrolled lay root row ~depth
  | Layout.Array_kind, Mir.Peeled_walk { peel } ->
    fun row -> walk_array_peeled lay root row ~peel
  | Layout.Sparse_kind, Mir.Loop_walk -> fun row -> walk_sparse_generic lay root row
  | Layout.Sparse_kind, Mir.Unrolled_walk { depth } ->
    fun row -> walk_sparse_unrolled lay root row ~depth
  | Layout.Sparse_kind, Mir.Peeled_walk { peel } ->
    fun row -> walk_sparse_peeled lay root row ~peel

(* ------------------------------------------------------------------ *)
(* Interleaved (jammed) kernels                                        *)
(* ------------------------------------------------------------------ *)

(* Jam [count] walks of one tree over consecutive rows (tree-at-a-time
   order). Lockstep cursors; diverging walks retire individually. Cursors
   use the sparse encoding for both layouts: array-layout locals are
   non-negative, retirement is flagged via a parallel [value] store. *)
let jam_rows_generic (lay : Layout.t) tree (rows : float array array) i0 count
    (out : float array array) cls =
  let cursors = Array.make count 0 in
  let live = Array.make count true in
  (match lay.Layout.kind with
  | Layout.Array_kind ->
    let base = lay.Layout.tree_root.(tree) in
    let remaining = ref count in
    while !remaining > 0 do
      for j = 0 to count - 1 do
        if live.(j) then begin
          let row = rows.(i0 + j) in
          let s = base + cursors.(j) in
          if lay.Layout.shape_ids.(s) = Layout.leaf_marker then begin
            out.(i0 + j).(cls) <-
              out.(i0 + j).(cls) +. lay.Layout.thresholds.(s * lay.Layout.tile_size);
            live.(j) <- false;
            decr remaining
          end
          else cursors.(j) <- step_array lay base cursors.(j) row
        end
      done
    done
  | Layout.Sparse_kind ->
    let root = lay.Layout.tree_root.(tree) in
    if root < 0 then
      for j = 0 to count - 1 do
        out.(i0 + j).(cls) <- out.(i0 + j).(cls) +. lay.Layout.leaf_values.(-root - 1)
      done
    else begin
      Array.fill cursors 0 count root;
      let remaining = ref count in
      while !remaining > 0 do
        for j = 0 to count - 1 do
          if live.(j) then begin
            let next = step_sparse lay cursors.(j) rows.(i0 + j) in
            if next >= 0 then cursors.(j) <- next
            else begin
              out.(i0 + j).(cls) <-
                out.(i0 + j).(cls) +. lay.Layout.leaf_values.(-next - 1);
              live.(j) <- false;
              decr remaining
            end
          end
        done
      done
    end)

(* Jam with a uniform unrolled depth: pure lockstep, no liveness flags. *)
let jam_rows_unrolled (lay : Layout.t) tree rows i0 count out cls ~depth =
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let base = lay.Layout.tree_root.(tree) in
    let cursors = Array.make count 0 in
    for _ = 1 to depth do
      for j = 0 to count - 1 do
        cursors.(j) <- step_array lay base cursors.(j) rows.(i0 + j)
      done
    done;
    for j = 0 to count - 1 do
      let s = base + cursors.(j) in
      out.(i0 + j).(cls) <-
        out.(i0 + j).(cls) +. lay.Layout.thresholds.(s * lay.Layout.tile_size)
    done
  | Layout.Sparse_kind ->
    let root = lay.Layout.tree_root.(tree) in
    if root < 0 then
      for j = 0 to count - 1 do
        out.(i0 + j).(cls) <- out.(i0 + j).(cls) +. lay.Layout.leaf_values.(-root - 1)
      done
    else begin
      let cursors = Array.make count root in
      for _ = 1 to depth - 1 do
        for j = 0 to count - 1 do
          cursors.(j) <- step_sparse lay cursors.(j) rows.(i0 + j)
        done
      done;
      for j = 0 to count - 1 do
        let last = step_sparse lay cursors.(j) rows.(i0 + j) in
        out.(i0 + j).(cls) <- out.(i0 + j).(cls) +. lay.Layout.leaf_values.(-last - 1)
      done
    end

(* ------------------------------------------------------------------ *)
(* Narrow-walk kernels (quantized fast path)                           *)
(* ------------------------------------------------------------------ *)

(* The quantized walk runs in the integer domain over the layout's
   materialized narrow buffers ({!Layout.narrow}): quantized rows are
   int arrays, thresholds and leaves load from int8/int16 Bigarrays,
   and per-class accumulators are ints. Routing replicates
   [Layout.comparison_bits] bit for bit — finite thresholds compare as
   the very integers the float-trick buffers store, +inf marker lanes
   come from the slot's constant [always] mask, and -inf lanes store
   the row minimum (constantly false, exactly like comparing against
   -inf). Integer adds are exact, so tree order is irrelevant and the
   final dequantize reproduces Lower.reference_qpredict — and hence
   Numeric.qpredict_raw — bitwise. The step/walk kernels are duplicated
   per width because Bigarray loads are only single instructions when
   the element kind is statically known. *)

let nstep8 (lay : Layout.t) (thr : Layout.narrow8) (always : int array) s
    (qrow : int array) =
  (* Unsafe loads: slot/lane indices are exactly the ones Lir_check's
     walk-program bounds pass proves in range, and [Layout.row_quantizer]
     fixes the row length at the feature count the layout indexes by. *)
  let nt = lay.Layout.tile_size in
  let features = lay.Layout.features in
  let bits = ref always.(s) in
  for lane = 0 to nt - 1 do
    let i = (s * nt) + lane in
    (* Comparison in value position: compiles branchless (setcc), like
       [Layout.comparison_bits] — a branch per lane would mispredict on
       ~half the routing decisions and stall every jammed chain. *)
    let b =
      if
        Array.unsafe_get qrow (Array.unsafe_get features i)
        < Bigarray.Array1.unsafe_get thr i
      then 1
      else 0
    in
    bits := !bits lor (b lsl (nt - 1 - lane))
  done;
  lay.Layout.lut.(lay.Layout.shape_ids.(s)).(!bits)

let nwalk_array8 (lay : Layout.t) thr always base local0 qrow =
  let fanout = lay.Layout.tile_size + 1 in
  let rec go local =
    let s = base + local in
    if lay.Layout.shape_ids.(s) = Layout.leaf_marker then
      Bigarray.Array1.get thr (s * lay.Layout.tile_size)
    else go ((local * fanout) + nstep8 lay thr always s qrow + 1)
  in
  go local0

let nwalk_sparse8 (lay : Layout.t) thr (leaves : Layout.narrow8) always s0 qrow =
  if s0 < 0 then Bigarray.Array1.get leaves (-s0 - 1)
  else begin
    let rec go s =
      let c = nstep8 lay thr always s qrow in
      let p = lay.Layout.child_ptr.(s) in
      if p >= 0 then go (p + c) else Bigarray.Array1.get leaves (-p - 1 + c)
    in
    go s0
  end

let nwalk_array_unrolled8 (lay : Layout.t) thr always base qrow ~depth =
  let fanout = lay.Layout.tile_size + 1 in
  let local = ref 0 in
  for _ = 1 to depth do
    local := (!local * fanout) + nstep8 lay thr always (base + !local) qrow + 1
  done;
  Bigarray.Array1.get thr ((base + !local) * lay.Layout.tile_size)

let nwalk_array_peeled8 (lay : Layout.t) thr always base qrow ~peel =
  let fanout = lay.Layout.tile_size + 1 in
  let local = ref 0 in
  for _ = 1 to peel do
    local := (!local * fanout) + nstep8 lay thr always (base + !local) qrow + 1
  done;
  nwalk_array8 lay thr always base !local qrow

let nstep_sparse8 (lay : Layout.t) thr always s qrow =
  let c = nstep8 lay thr always s qrow in
  let p = lay.Layout.child_ptr.(s) in
  if p >= 0 then p + c else -(-p - 1 + c) - 1

let nwalk_sparse_unrolled8 (lay : Layout.t) thr (leaves : Layout.narrow8) always
    root qrow ~depth =
  if root < 0 then Bigarray.Array1.get leaves (-root - 1)
  else begin
    let s = ref root in
    for _ = 1 to depth - 1 do
      s := nstep_sparse8 lay thr always !s qrow
    done;
    let last = nstep_sparse8 lay thr always !s qrow in
    Bigarray.Array1.get leaves (-last - 1)
  end

let nwalk_sparse_peeled8 (lay : Layout.t) thr (leaves : Layout.narrow8) always
    root qrow ~peel =
  if root < 0 then Bigarray.Array1.get leaves (-root - 1)
  else begin
    let s = ref root in
    for _ = 1 to peel do
      if !s >= 0 then s := nstep_sparse8 lay thr always !s qrow
    done;
    nwalk_sparse8 lay thr leaves always !s qrow
  end

let nstep16 (lay : Layout.t) (thr : Layout.narrow16) (always : int array) s
    (qrow : int array) =
  (* Same unsafe-load and branchless-compare notes as {!nstep8}. *)
  let nt = lay.Layout.tile_size in
  let features = lay.Layout.features in
  let bits = ref always.(s) in
  for lane = 0 to nt - 1 do
    let i = (s * nt) + lane in
    let b =
      if
        Array.unsafe_get qrow (Array.unsafe_get features i)
        < Bigarray.Array1.unsafe_get thr i
      then 1
      else 0
    in
    bits := !bits lor (b lsl (nt - 1 - lane))
  done;
  lay.Layout.lut.(lay.Layout.shape_ids.(s)).(!bits)

let nwalk_array16 (lay : Layout.t) thr always base local0 qrow =
  let fanout = lay.Layout.tile_size + 1 in
  let rec go local =
    let s = base + local in
    if lay.Layout.shape_ids.(s) = Layout.leaf_marker then
      Bigarray.Array1.get thr (s * lay.Layout.tile_size)
    else go ((local * fanout) + nstep16 lay thr always s qrow + 1)
  in
  go local0

let nwalk_sparse16 (lay : Layout.t) thr (leaves : Layout.narrow16) always s0 qrow =
  if s0 < 0 then Bigarray.Array1.get leaves (-s0 - 1)
  else begin
    let rec go s =
      let c = nstep16 lay thr always s qrow in
      let p = lay.Layout.child_ptr.(s) in
      if p >= 0 then go (p + c) else Bigarray.Array1.get leaves (-p - 1 + c)
    in
    go s0
  end

let nwalk_array_unrolled16 (lay : Layout.t) thr always base qrow ~depth =
  let fanout = lay.Layout.tile_size + 1 in
  let local = ref 0 in
  for _ = 1 to depth do
    local := (!local * fanout) + nstep16 lay thr always (base + !local) qrow + 1
  done;
  Bigarray.Array1.get thr ((base + !local) * lay.Layout.tile_size)

let nwalk_array_peeled16 (lay : Layout.t) thr always base qrow ~peel =
  let fanout = lay.Layout.tile_size + 1 in
  let local = ref 0 in
  for _ = 1 to peel do
    local := (!local * fanout) + nstep16 lay thr always (base + !local) qrow + 1
  done;
  nwalk_array16 lay thr always base !local qrow

let nstep_sparse16 (lay : Layout.t) thr always s qrow =
  let c = nstep16 lay thr always s qrow in
  let p = lay.Layout.child_ptr.(s) in
  if p >= 0 then p + c else -(-p - 1 + c) - 1

let nwalk_sparse_unrolled16 (lay : Layout.t) thr (leaves : Layout.narrow16)
    always root qrow ~depth =
  if root < 0 then Bigarray.Array1.get leaves (-root - 1)
  else begin
    let s = ref root in
    for _ = 1 to depth - 1 do
      s := nstep_sparse16 lay thr always !s qrow
    done;
    let last = nstep_sparse16 lay thr always !s qrow in
    Bigarray.Array1.get leaves (-last - 1)
  end

let nwalk_sparse_peeled16 (lay : Layout.t) thr (leaves : Layout.narrow16)
    always root qrow ~peel =
  if root < 0 then Bigarray.Array1.get leaves (-root - 1)
  else begin
    let s = ref root in
    for _ = 1 to peel do
      if !s >= 0 then s := nstep_sparse16 lay thr always !s qrow
    done;
    nwalk_sparse16 lay thr leaves always !s qrow
  end

(* One tree, one quantized row, per the group's walk kind — the narrow
   mirror of {!walk_fn}. *)
let nwalk_fn8 (lay : Layout.t) thr leaves always (walk : Mir.walk_kind) tree =
  let root = lay.Layout.tree_root.(tree) in
  match (lay.Layout.kind, walk) with
  | Layout.Array_kind, Mir.Loop_walk ->
    fun qrow -> nwalk_array8 lay thr always root 0 qrow
  | Layout.Array_kind, Mir.Unrolled_walk { depth } ->
    fun qrow -> nwalk_array_unrolled8 lay thr always root qrow ~depth
  | Layout.Array_kind, Mir.Peeled_walk { peel } ->
    fun qrow -> nwalk_array_peeled8 lay thr always root qrow ~peel
  | Layout.Sparse_kind, Mir.Loop_walk ->
    fun qrow -> nwalk_sparse8 lay thr leaves always root qrow
  | Layout.Sparse_kind, Mir.Unrolled_walk { depth } ->
    fun qrow -> nwalk_sparse_unrolled8 lay thr leaves always root qrow ~depth
  | Layout.Sparse_kind, Mir.Peeled_walk { peel } ->
    fun qrow -> nwalk_sparse_peeled8 lay thr leaves always root qrow ~peel

let nwalk_fn16 (lay : Layout.t) thr leaves always (walk : Mir.walk_kind) tree =
  let root = lay.Layout.tree_root.(tree) in
  match (lay.Layout.kind, walk) with
  | Layout.Array_kind, Mir.Loop_walk ->
    fun qrow -> nwalk_array16 lay thr always root 0 qrow
  | Layout.Array_kind, Mir.Unrolled_walk { depth } ->
    fun qrow -> nwalk_array_unrolled16 lay thr always root qrow ~depth
  | Layout.Array_kind, Mir.Peeled_walk { peel } ->
    fun qrow -> nwalk_array_peeled16 lay thr always root qrow ~peel
  | Layout.Sparse_kind, Mir.Loop_walk ->
    fun qrow -> nwalk_sparse16 lay thr leaves always root qrow
  | Layout.Sparse_kind, Mir.Unrolled_walk { depth } ->
    fun qrow -> nwalk_sparse_unrolled16 lay thr leaves always root qrow ~depth
  | Layout.Sparse_kind, Mir.Peeled_walk { peel } ->
    fun qrow -> nwalk_sparse_peeled16 lay thr leaves always root qrow ~peel

(* ------------------------------------------------------------------ *)
(* Resident-prefix walkers (quantized fast path)                       *)
(* ------------------------------------------------------------------ *)

let never_taken : int array -> int =
 fun _ -> invalid_arg "Jit: resident dispatch reached an unreachable child"

(* The top [k] tile levels of one tree become a closure tree with the
   lane feature ids, integer thresholds and LUT row baked in as
   immediates — no buffer loads until the walk leaves the resident
   prefix, where control falls through to [tail] (the narrow
   memory-phase walk from that cursor; array-kind cursors are slab
   locals, sparse cursors the slot-or-negative-leaf encoding).
   Thresholds bake exactly like {!Layout.narrow} encodes them (+inf
   lanes as a constant OR-mask, -inf as a never-true sentinel), so the
   prefix depth cannot change any prediction. *)
let resident_walker (lay : Layout.t) ~k tree ~(tail : int -> int array -> int)
    ~(leaf_get : int -> int) =
  let nt = lay.Layout.tile_size in
  let bake s (children : (int array -> int) array) =
    let lut_row = lay.Layout.lut.(lay.Layout.shape_ids.(s)) in
    let feats = Array.init nt (fun l -> lay.Layout.features.((s * nt) + l)) in
    let always = ref 0 in
    let thrs =
      Array.init nt (fun l ->
          let x = lay.Layout.thresholds.((s * nt) + l) in
          if x = infinity then begin
            always := !always lor (1 lsl (nt - 1 - l));
            min_int
          end
          else if x = neg_infinity then min_int
          else int_of_float x)
    in
    let always = !always in
    fun (qrow : int array) ->
      let bits = ref always in
      for l = 0 to nt - 1 do
        let b = if qrow.(feats.(l)) < thrs.(l) then 1 else 0 in
        bits := !bits lor (b lsl (nt - 1 - l))
      done;
      children.(lut_row.(!bits)) qrow
  in
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let fanout = nt + 1 in
    let base = lay.Layout.tree_root.(tree) in
    let rec build local level =
      let s = base + local in
      if level >= k || lay.Layout.shape_ids.(s) < 0 then tail local
      else begin
        let reach = Layout.reachable_children lay lay.Layout.shape_ids.(s) in
        let children =
          Array.init fanout (fun c ->
              if List.mem c reach then build ((local * fanout) + c + 1) (level + 1)
              else never_taken)
        in
        bake s children
      end
    in
    build 0 0
  | Layout.Sparse_kind ->
    let root = lay.Layout.tree_root.(tree) in
    let rec build s level =
      if level >= k then tail s
      else begin
        let p = lay.Layout.child_ptr.(s) in
        let reach = Layout.reachable_children lay lay.Layout.shape_ids.(s) in
        let children =
          Array.init (nt + 1) (fun c ->
              if not (List.mem c reach) then never_taken
              else if p >= 0 then build (p + c) (level + 1)
              else begin
                let v = leaf_get (-p - 1 + c) in
                fun _ -> v
              end)
        in
        bake s children
      end
    in
    if root < 0 then begin
      let v = leaf_get (-root - 1) in
      fun _ -> v
    end
    else build root 0

(* ------------------------------------------------------------------ *)
(* Narrow jammed kernels                                               *)
(* ------------------------------------------------------------------ *)

(* Lockstep row jamming over the narrow buffers — the integer mirror of
   {!jam_rows_unrolled} / {!jam_rows_generic}. The jam is what buys the
   quantized path the same memory-latency overlap the float kernels
   get from interleaving. *)

let njam_unrolled8 (lay : Layout.t) thr (leaves : Layout.narrow8) always tree
    qrows i0 count (out : int array array) cls ~depth =
  let nt = lay.Layout.tile_size in
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let fanout = nt + 1 in
    let base = lay.Layout.tree_root.(tree) in
    let cursors = Array.make count 0 in
    for _ = 1 to depth do
      for j = 0 to count - 1 do
        cursors.(j) <-
          (cursors.(j) * fanout)
          + nstep8 lay thr always (base + cursors.(j)) qrows.(i0 + j)
          + 1
      done
    done;
    for j = 0 to count - 1 do
      out.(i0 + j).(cls) <-
        out.(i0 + j).(cls) + Bigarray.Array1.get thr ((base + cursors.(j)) * nt)
    done
  | Layout.Sparse_kind ->
    let root = lay.Layout.tree_root.(tree) in
    if root < 0 then begin
      let v = Bigarray.Array1.get leaves (-root - 1) in
      for j = 0 to count - 1 do
        out.(i0 + j).(cls) <- out.(i0 + j).(cls) + v
      done
    end
    else begin
      let cursors = Array.make count root in
      for _ = 1 to depth - 1 do
        for j = 0 to count - 1 do
          cursors.(j) <- nstep_sparse8 lay thr always cursors.(j) qrows.(i0 + j)
        done
      done;
      for j = 0 to count - 1 do
        let last = nstep_sparse8 lay thr always cursors.(j) qrows.(i0 + j) in
        out.(i0 + j).(cls) <-
          out.(i0 + j).(cls) + Bigarray.Array1.get leaves (-last - 1)
      done
    end

let njam_generic8 (lay : Layout.t) thr (leaves : Layout.narrow8) always tree
    qrows i0 count (out : int array array) cls =
  let nt = lay.Layout.tile_size in
  let cursors = Array.make count 0 in
  let live = Array.make count true in
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let fanout = nt + 1 in
    let base = lay.Layout.tree_root.(tree) in
    let remaining = ref count in
    while !remaining > 0 do
      for j = 0 to count - 1 do
        if live.(j) then begin
          let s = base + cursors.(j) in
          if lay.Layout.shape_ids.(s) = Layout.leaf_marker then begin
            out.(i0 + j).(cls) <-
              out.(i0 + j).(cls) + Bigarray.Array1.get thr (s * nt);
            live.(j) <- false;
            decr remaining
          end
          else
            cursors.(j) <-
              (cursors.(j) * fanout) + nstep8 lay thr always s qrows.(i0 + j) + 1
        end
      done
    done
  | Layout.Sparse_kind ->
    let root = lay.Layout.tree_root.(tree) in
    if root < 0 then begin
      let v = Bigarray.Array1.get leaves (-root - 1) in
      for j = 0 to count - 1 do
        out.(i0 + j).(cls) <- out.(i0 + j).(cls) + v
      done
    end
    else begin
      Array.fill cursors 0 count root;
      let remaining = ref count in
      while !remaining > 0 do
        for j = 0 to count - 1 do
          if live.(j) then begin
            let next = nstep_sparse8 lay thr always cursors.(j) qrows.(i0 + j) in
            if next >= 0 then cursors.(j) <- next
            else begin
              out.(i0 + j).(cls) <-
                out.(i0 + j).(cls) + Bigarray.Array1.get leaves (-next - 1);
              live.(j) <- false;
              decr remaining
            end
          end
        done
      done
    end

let njam_unrolled16 (lay : Layout.t) thr (leaves : Layout.narrow16) always tree
    qrows i0 count (out : int array array) cls ~depth =
  let nt = lay.Layout.tile_size in
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let fanout = nt + 1 in
    let base = lay.Layout.tree_root.(tree) in
    let cursors = Array.make count 0 in
    for _ = 1 to depth do
      for j = 0 to count - 1 do
        cursors.(j) <-
          (cursors.(j) * fanout)
          + nstep16 lay thr always (base + cursors.(j)) qrows.(i0 + j)
          + 1
      done
    done;
    for j = 0 to count - 1 do
      out.(i0 + j).(cls) <-
        out.(i0 + j).(cls) + Bigarray.Array1.get thr ((base + cursors.(j)) * nt)
    done
  | Layout.Sparse_kind ->
    let root = lay.Layout.tree_root.(tree) in
    if root < 0 then begin
      let v = Bigarray.Array1.get leaves (-root - 1) in
      for j = 0 to count - 1 do
        out.(i0 + j).(cls) <- out.(i0 + j).(cls) + v
      done
    end
    else begin
      let cursors = Array.make count root in
      for _ = 1 to depth - 1 do
        for j = 0 to count - 1 do
          cursors.(j) <- nstep_sparse16 lay thr always cursors.(j) qrows.(i0 + j)
        done
      done;
      for j = 0 to count - 1 do
        let last = nstep_sparse16 lay thr always cursors.(j) qrows.(i0 + j) in
        out.(i0 + j).(cls) <-
          out.(i0 + j).(cls) + Bigarray.Array1.get leaves (-last - 1)
      done
    end

let njam_generic16 (lay : Layout.t) thr (leaves : Layout.narrow16) always tree
    qrows i0 count (out : int array array) cls =
  let nt = lay.Layout.tile_size in
  let cursors = Array.make count 0 in
  let live = Array.make count true in
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let fanout = nt + 1 in
    let base = lay.Layout.tree_root.(tree) in
    let remaining = ref count in
    while !remaining > 0 do
      for j = 0 to count - 1 do
        if live.(j) then begin
          let s = base + cursors.(j) in
          if lay.Layout.shape_ids.(s) = Layout.leaf_marker then begin
            out.(i0 + j).(cls) <-
              out.(i0 + j).(cls) + Bigarray.Array1.get thr (s * nt);
            live.(j) <- false;
            decr remaining
          end
          else
            cursors.(j) <-
              (cursors.(j) * fanout) + nstep16 lay thr always s qrows.(i0 + j) + 1
        end
      done
    done
  | Layout.Sparse_kind ->
    let root = lay.Layout.tree_root.(tree) in
    if root < 0 then begin
      let v = Bigarray.Array1.get leaves (-root - 1) in
      for j = 0 to count - 1 do
        out.(i0 + j).(cls) <- out.(i0 + j).(cls) + v
      done
    end
    else begin
      Array.fill cursors 0 count root;
      let remaining = ref count in
      while !remaining > 0 do
        for j = 0 to count - 1 do
          if live.(j) then begin
            let next = nstep_sparse16 lay thr always cursors.(j) qrows.(i0 + j) in
            if next >= 0 then cursors.(j) <- next
            else begin
              out.(i0 + j).(cls) <-
                out.(i0 + j).(cls) + Bigarray.Array1.get leaves (-next - 1);
              live.(j) <- false;
              decr remaining
            end
          end
        done
      done
    end

(* ------------------------------------------------------------------ *)
(* Runner assembly                                                     *)
(* ------------------------------------------------------------------ *)

(* A runner adds the predictions of rows[lo..hi) into out[lo..hi) (same
   indexing). Both tiers assemble theirs once, at instantiate time, so a
   call only runs closures. *)

(* Every tree with its group and output class, in group order — the
   order in which each output cell accumulates its trees. *)
let trees_in_order (pk : Pack.t) =
  Array.to_list pk.Pack.groups
  |> List.concat_map (fun (g : Pack.group) ->
         Array.to_list g.Pack.positions
         |> List.map (fun tree -> (g, tree, pk.Pack.tree_class.(tree))))
  |> Array.of_list

(* Tree-at-a-time: one runner per tree. A tree either walks the rows one
   by one ([per_row cls walk], over the tier's [walk_of] or, when given,
   its [resident] walker) or, in a group interleaved k > 1 ways, jams k
   rows at a time through the tier's lockstep kernels. *)
let assemble_runner (pk : Pack.t) ~per_row ?resident ~walk_of ~jam_unrolled
    ~jam_generic () =
  let runners =
    Array.map
      (fun ((g : Pack.group), tree, cls) ->
        match resident with
        | Some walker -> per_row cls (walker tree)
        | None ->
          let k = g.Pack.interleave in
          if k <= 1 then per_row cls (walk_of g.Pack.walk tree)
          else begin
            let jam =
              match g.Pack.walk with
              | Mir.Unrolled_walk { depth } -> jam_unrolled tree ~depth
              | Mir.Loop_walk | Mir.Peeled_walk _ -> jam_generic tree
            in
            fun rows out lo hi ->
              let i = ref lo in
              while !i < hi do
                let count = min k (hi - !i) in
                jam rows !i count out cls;
                i := !i + count
              done
          end)
      (trees_in_order pk)
  in
  fun rows out lo hi -> Array.iter (fun r -> r rows out lo hi) runners

let float_per_row cls walk rows (out : float array array) lo hi =
  for i = lo to hi - 1 do
    out.(i).(cls) <- out.(i).(cls) +. walk rows.(i)
  done

let int_per_row cls walk qrows (out : int array array) lo hi =
  for i = lo to hi - 1 do
    out.(i).(cls) <- out.(i).(cls) + walk qrows.(i)
  done

let float_runner (pk : Pack.t) =
  let lay = pk.Pack.layout in
  match pk.Pack.loop_order with
  | Schedule.One_tree_at_a_time ->
    assemble_runner pk ~per_row:float_per_row ~walk_of:(walk_fn lay)
      ~jam_unrolled:(fun tree ~depth rows i0 count out cls ->
        jam_rows_unrolled lay tree rows i0 count out cls ~depth)
      ~jam_generic:(jam_rows_generic lay) ()
  | Schedule.One_row_at_a_time ->
    (* Innermost loop over the trees. Tree-jamming on one row is a
       scheduling decision; walks of distinct trees are independent, so
       executing them back to back is semantically identical. The
       profiler models the jam's ILP effect; here we just follow group
       order. *)
    let trees = trees_in_order pk in
    let classes = Array.map (fun (_, _, cls) -> cls) trees in
    let walks =
      Array.map (fun ((g : Pack.group), tree, _) -> walk_fn lay g.Pack.walk tree) trees
    in
    fun rows out lo hi ->
      for i = lo to hi - 1 do
        let row = rows.(i) and o = out.(i) in
        for t = 0 to Array.length walks - 1 do
          let cls = classes.(t) in
          o.(cls) <- o.(cls) +. walks.(t) row
        done
      done

(* Memory-only trees (k = 0) honor their group's walk kind and
   interleave (jammed rows, like the float path); resident trees bake
   the prefix and fall through to the generic narrow walk from the exit
   cursor. The schedule's loop order is deliberately ignored: integer
   adds are exact, so tree-at-a-time — the cache-friendliest order — is
   always bitwise-identical. *)
let quant_runner (pk : Pack.t) ~resident_k =
  let lay = pk.Pack.layout in
  let assemble ~walk_of ~tail_of ~leaf_get ~jam_unrolled ~jam_generic =
    let resident =
      if resident_k = 0 then None
      else
        Some
          (fun tree ->
            resident_walker lay ~k:resident_k tree ~tail:(tail_of tree) ~leaf_get)
    in
    assemble_runner pk ~per_row:int_per_row ?resident ~walk_of ~jam_unrolled
      ~jam_generic ()
  in
  match Layout.narrow lay with
  | Layout.Narrow8 { thr; leaves; always } ->
    assemble ~walk_of:(nwalk_fn8 lay thr leaves always)
      ~tail_of:(fun tree ->
        match lay.Layout.kind with
        | Layout.Array_kind ->
          let base = lay.Layout.tree_root.(tree) in
          fun local qrow -> nwalk_array8 lay thr always base local qrow
        | Layout.Sparse_kind ->
          fun s qrow -> nwalk_sparse8 lay thr leaves always s qrow)
      ~leaf_get:(fun i -> Bigarray.Array1.get leaves i)
      ~jam_unrolled:(fun tree ~depth qrows i0 count out cls ->
        njam_unrolled8 lay thr leaves always tree qrows i0 count out cls ~depth)
      ~jam_generic:(njam_generic8 lay thr leaves always)
  | Layout.Narrow16 { thr; leaves; always } ->
    assemble ~walk_of:(nwalk_fn16 lay thr leaves always)
      ~tail_of:(fun tree ->
        match lay.Layout.kind with
        | Layout.Array_kind ->
          let base = lay.Layout.tree_root.(tree) in
          fun local qrow -> nwalk_array16 lay thr always base local qrow
        | Layout.Sparse_kind ->
          fun s qrow -> nwalk_sparse16 lay thr leaves always s qrow)
      ~leaf_get:(fun i -> Bigarray.Array1.get leaves i)
      ~jam_unrolled:(fun tree ~depth qrows i0 count out cls ->
        njam_unrolled16 lay thr leaves always tree qrows i0 count out cls ~depth)
      ~jam_generic:(njam_generic16 lay thr leaves always)

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
  match pk.Pack.layout.Layout.quant with
  | None ->
    let run = float_runner pk in
    fun rows ->
      let n = Array.length rows in
      let out =
        Array.init n (fun _ -> Array.make pk.Pack.num_outputs pk.Pack.base_score)
      in
      parallel_run ~threads run rows out;
      out
  | Some q ->
    (* Integer fast path: quantize the batch into int rows once, walk
       the narrow buffers (with the resident prefix baked when k > 0)
       accumulating int sums from the quantized base score, then
       dequantize exactly. Must equal Lower.reference_qpredict — and
       hence Numeric.qpredict_raw — bit for bit: routing matches the
       float-trick buffers comparison for comparison, and both sides'
       sums are the same integers far below 2^53. *)
    let resident_k =
      match pk.Pack.quant with Some m -> m.Pack.resident_k | None -> 0
    in
    let run = quant_runner pk ~resident_k in
    let quantize_row = Layout.row_quantizer q in
    let qbase = Layout.quantize_leaf_int q pk.Pack.base_score in
    let scale = Layout.dequant_scale q in
    fun rows ->
      let n = Array.length rows in
      let qrows = Array.map quantize_row rows in
      let acc = Array.init n (fun _ -> Array.make pk.Pack.num_outputs qbase) in
      parallel_run ~threads run qrows acc;
      Array.map (fun o -> Array.map (fun v -> float_of_int v *. scale) o) acc

let instantiate_single_thread (pk : Pack.t) = instantiate_with ~threads:1 pk
let instantiate (pk : Pack.t) = instantiate_with ~threads:pk.Pack.num_threads pk
