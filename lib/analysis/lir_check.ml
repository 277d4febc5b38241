module D = Tb_diag.Diagnostic
module Reg_ir = Tb_lir.Reg_ir
module Reg_codegen = Tb_lir.Reg_codegen
module Layout = Tb_lir.Layout
module Mir = Tb_mir.Mir

(* ------------------------------------------------------------------ *)
(* Interval arithmetic (float bounds so infinities are first-class)    *)
(* ------------------------------------------------------------------ *)

type interval = { lo : float; hi : float }

let top = { lo = neg_infinity; hi = infinity }
let const c = { lo = float_of_int c; hi = float_of_int c }
let iadd a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let isub a b = { lo = a.lo -. b.hi; hi = a.hi -. b.lo }
let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let imul_const a c =
  if c = 0 then const 0
  else begin
    let c = float_of_int c in
    let p = a.lo *. c and q = a.hi *. c in
    { lo = min p q; hi = max p q }
  end

let bound_str x =
  if x = infinity then "+inf"
  else if x = neg_infinity then "-inf"
  else Printf.sprintf "%.0f" x

let istr iv = Printf.sprintf "[%s, %s]" (bound_str iv.lo) (bound_str iv.hi)

let within iv ~lo ~hi = iv.lo >= float_of_int lo && iv.hi <= float_of_int hi

(* ------------------------------------------------------------------ *)
(* Environment: buffer extents, content ranges, and relational facts   *)
(* ------------------------------------------------------------------ *)

type env = {
  tile_size : int;
  extent : Reg_ir.buffer -> int;
  content : Reg_ir.buffer -> (int * int) option;
  content_cg : Reg_ir.buffer -> Congruence.t;
  tile_advance : (int * int) option;
  leaf_advance : (int * int) option;
  widen_thresholds : float array;
}

let int_range arr =
  if Array.length arr = 0 then None
  else
    Some
      ( Array.fold_left min max_int arr,
        Array.fold_left max min_int arr )

(* The join stops once it reaches top, which absorbs every later join. *)
let cg_of_array arr =
  let n = Array.length arr in
  let rec go acc i =
    if i = n || Congruence.is_top acc then acc
    else go (Congruence.join acc (Congruence.const arr.(i))) (i + 1)
  in
  if n = 0 then Congruence.top else go (Congruence.const arr.(0)) 1

let buffers =
  [ Reg_ir.Thresholds; Reg_ir.Feature_ids; Reg_ir.Shape_ids;
    Reg_ir.Child_ptrs; Reg_ir.Leaf_values; Reg_ir.Lut;
    Reg_ir.Tree_roots; Reg_ir.Row ]

let env_of_layout ~num_features (lay : Layout.t) =
  let nt = lay.Layout.tile_size in
  let extent = function
    | Reg_ir.Thresholds -> Array.length lay.Layout.thresholds
    | Reg_ir.Feature_ids -> Array.length lay.Layout.features
    | Reg_ir.Shape_ids -> Array.length lay.Layout.shape_ids
    | Reg_ir.Child_ptrs -> Array.length lay.Layout.child_ptr
    | Reg_ir.Leaf_values -> Array.length lay.Layout.leaf_values
    | Reg_ir.Lut -> Array.length lay.Layout.lut * (1 lsl nt)
    | Reg_ir.Tree_roots -> Array.length lay.Layout.tree_root
    | Reg_ir.Row -> num_features
  in
  let lut_range =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc v ->
            match acc with
            | None -> Some (v, v)
            | Some (a, b) -> Some (min a v, max b v))
          acc row)
      None lay.Layout.lut
  in
  let content_of = function
    | Reg_ir.Feature_ids -> int_range lay.Layout.features
    | Reg_ir.Shape_ids -> int_range lay.Layout.shape_ids
    | Reg_ir.Child_ptrs -> int_range lay.Layout.child_ptr
    | Reg_ir.Tree_roots -> int_range lay.Layout.tree_root
    | Reg_ir.Lut -> lut_range
    | Reg_ir.Thresholds | Reg_ir.Leaf_values | Reg_ir.Row -> None
  in
  let cg_of = function
    | Reg_ir.Feature_ids -> cg_of_array lay.Layout.features
    | Reg_ir.Shape_ids -> cg_of_array lay.Layout.shape_ids
    | Reg_ir.Child_ptrs -> cg_of_array lay.Layout.child_ptr
    | Reg_ir.Tree_roots -> cg_of_array lay.Layout.tree_root
    | Reg_ir.Lut ->
      Array.fold_left
        (fun acc row ->
          if Congruence.is_top acc then acc
          else Congruence.join acc (cg_of_array row))
        (Congruence.const 0) lay.Layout.lut
    | Reg_ir.Thresholds | Reg_ir.Leaf_values | Reg_ir.Row -> Congruence.top
  in
  (* Computed once per buffer: the walk analysis asks at every load of
     every abstract iteration. *)
  let per_buffer = List.map (fun b -> (b, (content_of b, cg_of b))) buffers in
  let content b = fst (List.assq b per_buffer) in
  let content_cg b = snd (List.assq b per_buffer) in
  let facts = Layout.stride_facts lay in
  (* Widening thresholds (satellite of the relational upgrade): landmarks
     a loop-variant index can genuinely be bounded by — buffer extents and
     content bounds, the layout's advance ranges, and the small constants
     the codegen uses. A bounded cursor now stops at the nearest landmark
     instead of degrading every neighbour to ±inf via [hull]. *)
  let widen_thresholds =
    let acc = ref [ -1.0; 0.0; 1.0; float_of_int nt;
                    float_of_int ((1 lsl nt) - 1) ] in
    let add v = acc := float_of_int v :: !acc in
    List.iter
      (fun b ->
        add (extent b);
        add (extent b - 1);
        match content b with
        | Some (a, z) -> add a; add z
        | None -> ())
      buffers;
    (match facts.Layout.tile_advance with
    | Some (a, z) -> add a; add z
    | None -> ());
    (match facts.Layout.leaf_advance with
    | Some (a, z) -> add a; add z; add (-z - 1); add (-a - 1)
    | None -> ());
    Array.of_list (List.sort_uniq compare !acc)
  in
  {
    tile_size = nt;
    extent;
    content;
    content_cg;
    tile_advance = facts.Layout.tile_advance;
    leaf_advance = facts.Layout.leaf_advance;
    widen_thresholds;
  }

let buffer_name = function
  | Reg_ir.Thresholds -> "thresholds"
  | Reg_ir.Feature_ids -> "featureIds"
  | Reg_ir.Shape_ids -> "shapeIds"
  | Reg_ir.Child_ptrs -> "childPtrs"
  | Reg_ir.Leaf_values -> "leafValues"
  | Reg_ir.Lut -> "lut"
  | Reg_ir.Tree_roots -> "treeRoots"
  | Reg_ir.Row -> "row"

let is_float_buffer = function
  | Reg_ir.Thresholds | Reg_ir.Leaf_values | Reg_ir.Row -> true
  | Reg_ir.Feature_ids | Reg_ir.Shape_ids | Reg_ir.Child_ptrs | Reg_ir.Lut
  | Reg_ir.Tree_roots -> false

(* ------------------------------------------------------------------ *)
(* Abstract values: interval x congruence x provenance                 *)
(* ------------------------------------------------------------------ *)

(* Provenance chains let the analysis recognize the codegen's sparse-step
   idiom relationally. [sym] is the identity of the defining occurrence
   (fresh per definition, preserved by moves/refinement, joined to [None]
   when control flow merges distinct definitions): two loads indexed by
   values with the same [sym] read the same slot at run time. The [org]
   tags then say what a value is in terms of that slot:

     Oshape s    = shape_ids[v_s]          Ocptr s = child_ptr[v_s]
     Olutbase s  = shape_ids[v_s] * 2^nt   (the slot's LUT row base)
     Olutrow s   = row base + bits, bits within the row
     Ochild s    = lut[Olutrow s]          (a child the slot can select)

   When Ocptr s (known >= 0) meets Ochild s in an add, the sum is exactly
   a [child_ptr + reachable child] pair of one slot — the quantity
   [Layout.stride_facts] bounds precisely; likewise Ocptr - Ochild for
   negative pointers against the leaf-advance range. This is what
   discharges the sparse-layout L011s that a per-register interval
   analysis conflates (max child_ptr + max child overshoots because the
   max-pointer slot's child block is smaller than tile_size + 1). *)
type origin =
  | Onone
  | Oshape of int
  | Olutbase of int
  | Olutrow of int
  | Ochild of int
  | Ocptr of int

type aval = {
  iv : interval;
  cg : Congruence.t;
  org : origin;
  sym : int option;
}

type ival = Ibot | Iv of aval
type vval = Vbot | Vint of interval | Vfloat

type state = { ir : ival array; vr : vval array; fr : bool array }

let join_aval a b =
  {
    iv = hull a.iv b.iv;
    cg = Congruence.join a.cg b.cg;
    org = (if a.org = b.org then a.org else Onone);
    sym = (if a.sym = b.sym then a.sym else None);
  }

let join_ival a b =
  match (a, b) with
  | Ibot, _ | _, Ibot -> Ibot
  | Iv x, Iv y -> Iv (join_aval x y)

let join_vval a b =
  match (a, b) with
  | Vbot, _ | _, Vbot -> Vbot
  | Vint x, Vint y -> Vint (hull x y)
  | Vfloat, Vfloat -> Vfloat
  | Vint _, Vfloat | Vfloat, Vint _ -> Vbot

let join_state a b =
  {
    ir = Array.map2 join_ival a.ir b.ir;
    vr = Array.map2 join_vval a.vr b.vr;
    fr = Array.map2 ( && ) a.fr b.fr;
  }

(* Widening-with-thresholds: an escaping bound jumps to the nearest
   landmark in the given direction, or to infinity once landmarks run
   out. [thresholds] is sorted ascending; the empty array degenerates to
   the classic infinite widening. *)
let widen_interval ~thresholds prev next =
  let lo =
    if next.lo >= prev.lo then next.lo
    else
      Array.fold_left
        (fun best t -> if t <= next.lo && t > best then t else best)
        neg_infinity thresholds
  in
  let hi =
    if next.hi <= prev.hi then next.hi
    else
      Array.fold_left
        (fun best t -> if t >= next.hi && t < best then t else best)
        infinity thresholds
  in
  { lo; hi }

let widen_ival ~thresholds prev next =
  match (prev, next) with
  | Iv a, Iv b -> Iv { b with iv = widen_interval ~thresholds a.iv b.iv }
  | _ -> next

let widen_vval ~thresholds prev next =
  match (prev, next) with
  | Vint a, Vint b -> Vint (widen_interval ~thresholds a b)
  | _ -> next

let widen_state ~thresholds prev next =
  {
    ir = Array.map2 (widen_ival ~thresholds) prev.ir next.ir;
    vr = Array.map2 (widen_vval ~thresholds) prev.vr next.vr;
    fr = next.fr;
  }

let aval_equal a b =
  a.iv.lo = b.iv.lo && a.iv.hi = b.iv.hi
  && Congruence.equal a.cg b.cg
  && a.org = b.org && a.sym = b.sym

let ival_equal a b =
  match (a, b) with
  | Ibot, Ibot -> true
  | Iv x, Iv y -> aval_equal x y
  | _ -> false

let vval_equal a b =
  match (a, b) with
  | Vbot, Vbot -> true
  | Vfloat, Vfloat -> true
  | Vint x, Vint y -> x.lo = y.lo && x.hi = y.hi
  | _ -> false

let state_equal a b =
  Array.length a.ir = Array.length b.ir
  && Array.for_all2 ival_equal a.ir b.ir
  && Array.for_all2 vval_equal a.vr b.vr
  && a.fr = b.fr

let set_i st r v =
  let ir = Array.copy st.ir in
  ir.(r) <- v;
  { st with ir }

let set_v st r v =
  let vr = Array.copy st.vr in
  vr.(r) <- v;
  { st with vr }

let set_f st r =
  let fr = Array.copy st.fr in
  fr.(r) <- true;
  { st with fr }

let join_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> Some (join_state x y)

(* ------------------------------------------------------------------ *)
(* The forward dataflow                                                *)
(* ------------------------------------------------------------------ *)

let analyze_program ?(path = []) ?(relational = true) env
    (p : Reg_ir.walk_program) =
  let diags = ref [] in
  let dedup = Hashtbl.create 64 in
  let emit ~report d =
    if report then begin
      let key = (d.D.code, d.D.path) in
      if not (Hashtbl.mem dedup key) then begin
        Hashtbl.add dedup key ();
        diags := d :: !diags
      end
    end
  in
  let err ~report ~code pth fmt =
    Printf.ksprintf
      (fun message ->
        emit ~report
          { D.code; severity = D.Error; level = D.Lir; path = pth; message })
      fmt
  in
  let warn ~report ~code pth fmt =
    Printf.ksprintf
      (fun message ->
        emit ~report
          { D.code; severity = D.Warning; level = D.Lir; path = pth; message })
      fmt
  in
  let info ~report ~code pth fmt =
    Printf.ksprintf
      (fun message ->
        emit ~report
          { D.code; severity = D.Info; level = D.Lir; path = pth; message })
      fmt
  in
  if p.Reg_ir.tile_size <> env.tile_size then
    err ~report:true ~code:"L003" path
      "program tile size %d does not match the layout's %d" p.Reg_ir.tile_size
      env.tile_size;
  let nt = p.Reg_ir.tile_size in
  let sym_counter = ref 0 in
  let fresh () =
    incr sym_counter;
    Some !sym_counter
  in
  let content_iv buf =
    match env.content buf with
    | Some (a, b) -> { lo = float_of_int a; hi = float_of_int b }
    | None -> top
  in
  let av ?(cg = Congruence.top) ?(org = Onone) iv =
    { iv; cg; org; sym = fresh () }
  in
  (* Per-buffer hull of every (reporting-pass) access index range — the
     facts the soundness harness replays concrete executions against. *)
  let access : (Reg_ir.buffer, interval) Hashtbl.t = Hashtbl.create 8 in
  let record_access buf ~width idx =
    let range = { lo = idx.lo; hi = idx.hi +. float_of_int (width - 1) } in
    match Hashtbl.find_opt access buf with
    | None -> Hashtbl.replace access buf range
    | Some acc -> Hashtbl.replace access buf (hull acc range)
  in
  let read_a ~report pth r st =
    if r < 0 || r >= p.Reg_ir.num_iregs then begin
      err ~report ~code:"L001" pth "int register %d outside the %d declared" r
        p.Reg_ir.num_iregs;
      av top
    end
    else
      match st.ir.(r) with
      | Iv a -> a
      | Ibot ->
        err ~report ~code:"L002" pth
          "int register %d read before any definition" r;
        av top
  in
  let read_v ~report pth r st =
    if r < 0 || r >= p.Reg_ir.num_vregs then begin
      err ~report ~code:"L001" pth
        "vector register %d outside the %d declared" r p.Reg_ir.num_vregs;
      Vbot
    end
    else st.vr.(r)
  in
  let check_bounds ?(cg = Congruence.top) ~report pth buf ~width idx =
    (* Reduced product: shrink the interval to congruence-class members
       before judging (e.g. a lane index that is a multiple of tile_size
       cannot reach extent - 1, only extent - tile_size). *)
    let idx =
      if relational then
        { lo = Congruence.tighten_lo cg idx.lo;
          hi = Congruence.tighten_hi cg idx.hi }
      else idx
    in
    if idx.lo > idx.hi then ( (* congruence class empty in range *) )
    else begin
      if report then record_access buf ~width idx;
      let extent = env.extent buf in
      let hi_ok = float_of_int (extent - width) in
      let finite = Float.is_finite idx.lo && Float.is_finite idx.hi in
      (* The definite-OOB verdict is reserved for finite intervals: an
         interval opened up by loop widening can be disjoint from the
         buffer merely because the abstract iteration it describes is
         unreachable (e.g. a peeled walk whose loop body never runs again
         on a tiny slab), and intervals do not track reachability. *)
      if extent < width || (finite && (idx.lo > hi_ok || idx.hi < 0.0)) then
        err ~report ~code:"L010" pth
          "%d-element access to %s at index %s is always out of bounds \
           (extent %d)"
          width (buffer_name buf) (istr idx) extent
      else if idx.lo >= 0.0 && idx.hi <= hi_ok then ()
      else if finite then
        warn ~report ~code:"L011" pth
          "%d-element access to %s at index %s may be out of bounds \
           (extent %d)"
          width (buffer_name buf) (istr idx) extent
      else
        info ~report ~code:"L012" pth
          "%d-element access to %s at loop-variant index %s (extent %d): \
           bounds not provable by intervals (see the layout closure check)"
          width (buffer_name buf) (istr idx) extent
    end
  in
  (* Relational add/sub: recognize child_ptr ± lut_child pairs over the
     same slot and meet the interval with the layout's advance range. *)
  let child_in_row b = within b.iv ~lo:0 ~hi:nt in
  let meet iv (lo, hi) =
    { lo = max iv.lo (float_of_int lo); hi = min iv.hi (float_of_int hi) }
  in
  let relational_add a b iv =
    let pair x y =
      match (x.org, y.org) with
      | Ocptr s, Ochild s' when s = s' && x.iv.lo >= 0.0 && child_in_row y ->
        (match env.tile_advance with
        | Some range -> Some (meet iv range)
        | None -> None)
      | _ -> None
    in
    if not relational then iv
    else
      match pair a b with
      | Some iv -> iv
      | None -> ( match pair b a with Some iv -> iv | None -> iv)
  in
  let relational_sub a b iv =
    if not relational then iv
    else
      match (a.org, b.org) with
      | Ocptr s, Ochild s' when s = s' && a.iv.hi < 0.0 && child_in_row b -> (
        match env.leaf_advance with
        | Some (lmin, lmax) ->
          (* state = cptr - child; the later leaf fetch reads
             leaf_values[-state - 1] = -cptr - 1 + child, which the
             layout bounds as [lmin, lmax] — so state is in
             [-lmax - 1, -lmin - 1]. *)
          meet iv (-lmax - 1, -lmin - 1)
        | None -> iv)
      | _ -> iv
  in
  let load_origin buf idx_a =
    if not relational then Onone
    else
      match buf with
      | Reg_ir.Shape_ids -> (
        match idx_a.sym with Some s -> Oshape s | None -> Onone)
      | Reg_ir.Child_ptrs -> (
        match idx_a.sym with Some s -> Ocptr s | None -> Onone)
      | Reg_ir.Lut -> (
        match idx_a.org with
        | Olutbase s | Olutrow s -> Ochild s
        | _ -> Onone)
      | _ -> Onone
  in
  let eval_iexpr ~report pth st = function
    | Reg_ir.Iconst c -> av ~cg:(Congruence.const c) (const c)
    | Reg_ir.Imov r ->
      (* A move is a fresh defining occurrence: reads of the destination
         between here and its next write all see one runtime value, so it
         gets its own symbol (the source's may already have been lost to a
         control-flow join — provenance must not depend on that). *)
      let a = read_a ~report pth r st in
      { a with sym = fresh () }
    | Reg_ir.Iadd (ra, rb) ->
      let a = read_a ~report pth ra st and b = read_a ~report pth rb st in
      let iv = relational_add a b (iadd a.iv b.iv) in
      let org =
        if not relational then Onone
        else
          match (a.org, b.org) with
          | Olutbase s, _ when within b.iv ~lo:0 ~hi:((1 lsl nt) - 1) ->
            Olutrow s
          | _, Olutbase s when within a.iv ~lo:0 ~hi:((1 lsl nt) - 1) ->
            Olutrow s
          | _ -> Onone
      in
      av ~cg:(Congruence.add a.cg b.cg) ~org iv
    | Reg_ir.Isub (ra, rb) ->
      let a = read_a ~report pth ra st and b = read_a ~report pth rb st in
      let iv = relational_sub a b (isub a.iv b.iv) in
      av ~cg:(Congruence.sub a.cg b.cg) iv
    | Reg_ir.Imul_const (r, c) ->
      let a = read_a ~report pth r st in
      let org =
        if relational && a.org <> Onone && c = 1 lsl nt then
          match a.org with Oshape s -> Olutbase s | _ -> Onone
        else Onone
      in
      av ~cg:(Congruence.mul_const c a.cg) ~org (imul_const a.iv c)
    | Reg_ir.Iadd_const (r, c) ->
      let a = read_a ~report pth r st in
      av ~cg:(Congruence.add a.cg (Congruence.const c)) (iadd a.iv (const c))
    | Reg_ir.Iload (buf, r) ->
      let a = read_a ~report pth r st in
      if is_float_buffer buf then
        err ~report ~code:"L003" pth "integer load from float buffer %s"
          (buffer_name buf);
      check_bounds ~cg:a.cg ~report pth buf ~width:1 a.iv;
      av
        ~cg:(if relational then env.content_cg buf else Congruence.top)
        ~org:(load_origin buf a) (content_iv buf)
    | Reg_ir.Movemask v -> (
      match read_v ~report pth v st with
      | Vint _ -> av { lo = 0.0; hi = float_of_int ((1 lsl nt) - 1) }
      | Vfloat ->
        err ~report ~code:"L003" pth "movemask of float-typed lanes";
        av top
      | Vbot ->
        err ~report ~code:"L002" pth
          "vector register %d read before any definition" v;
        av top)
  in
  let eval_fexpr ~report pth st = function
    | Reg_ir.Fload (buf, r) ->
      let a = read_a ~report pth r st in
      if not (is_float_buffer buf) then
        err ~report ~code:"L003" pth "float load from integer buffer %s"
          (buffer_name buf);
      check_bounds ~cg:a.cg ~report pth buf ~width:1 a.iv
  in
  let eval_vexpr ~report pth st = function
    | Reg_ir.Vload_f (buf, r) ->
      let a = read_a ~report pth r st in
      if not (is_float_buffer buf) then
        err ~report ~code:"L003" pth
          "float vector load from integer buffer %s" (buffer_name buf);
      check_bounds ~cg:a.cg ~report pth buf ~width:nt a.iv;
      Vfloat
    | Reg_ir.Vload_i (buf, r) ->
      let a = read_a ~report pth r st in
      if is_float_buffer buf then
        err ~report ~code:"L003" pth
          "integer vector load from float buffer %s" (buffer_name buf);
      check_bounds ~cg:a.cg ~report pth buf ~width:nt a.iv;
      Vint (content_iv buf)
    | Reg_ir.Gather (buf, v) ->
      if not (is_float_buffer buf) then
        err ~report ~code:"L003" pth "gather from integer buffer %s"
          (buffer_name buf);
      (match read_v ~report pth v st with
      | Vint lanes -> check_bounds ~report pth buf ~width:1 lanes
      | Vfloat ->
        err ~report ~code:"L003" pth "gather indexed by float-typed lanes"
      | Vbot ->
        err ~report ~code:"L002" pth
          "vector register %d read before any definition" v);
      Vfloat
    | Reg_ir.Vcmp_lt (a, b) ->
      let lane r =
        match read_v ~report pth r st with
        | Vfloat -> ()
        | Vint _ ->
          err ~report ~code:"L003" pth
            "vector compare over integer-typed lanes (register %d)" r
        | Vbot ->
          err ~report ~code:"L002" pth
            "vector register %d read before any definition" r
      in
      lane a;
      lane b;
      Vint { lo = 0.0; hi = 1.0 }
  in
  let check_cond ~report pth st = function
    | Reg_ir.Ige (r, _) -> ignore (read_a ~report pth r st)
    | Reg_ir.Ieq_load (buf, r, _) ->
      let a = read_a ~report pth r st in
      if is_float_buffer buf then
        err ~report ~code:"L003" pth
          "integer conditional load from float buffer %s" (buffer_name buf);
      check_bounds ~cg:a.cg ~report pth buf ~width:1 a.iv
  in
  let refine st cond taken =
    match cond with
    | Reg_ir.Ige (r, c) when r >= 0 && r < p.Reg_ir.num_iregs -> (
      match st.ir.(r) with
      | Ibot -> Some st
      | Iv a ->
        let iv =
          if taken then { a.iv with lo = max a.iv.lo (float_of_int c) }
          else { a.iv with hi = min a.iv.hi (float_of_int (c - 1)) }
        in
        let iv =
          if relational then
            { lo = Congruence.tighten_lo a.cg iv.lo;
              hi = Congruence.tighten_hi a.cg iv.hi }
          else iv
        in
        if iv.lo > iv.hi then None else Some (set_i st r (Iv { a with iv })))
    | _ -> Some st
  in
  let thresholds = if relational then env.widen_thresholds else [||] in
  let sub pth seg = pth @ [ seg ] in
  let rec exec_stmts ~report pth st stmts =
    let _, st =
      List.fold_left
        (fun (i, st) stmt ->
          (i + 1, exec ~report (sub pth (Printf.sprintf "op %d" i)) st stmt))
        (0, st) stmts
    in
    st
  and exec ~report pth st stmt =
    match st with
    | None -> None
    | Some st -> (
      match stmt with
      | Reg_ir.Iset (r, e) ->
        let v = eval_iexpr ~report pth st e in
        if r < 0 || r >= p.Reg_ir.num_iregs then begin
          err ~report ~code:"L001" pth
            "int register %d outside the %d declared" r p.Reg_ir.num_iregs;
          Some st
        end
        else Some (set_i st r (Iv v))
      | Reg_ir.Fset (r, e) ->
        eval_fexpr ~report pth st e;
        if r < 0 || r >= p.Reg_ir.num_fregs then begin
          err ~report ~code:"L001" pth
            "float register %d outside the %d declared" r p.Reg_ir.num_fregs;
          Some st
        end
        else Some (set_f st r)
      | Reg_ir.Vset (r, e) ->
        let v = eval_vexpr ~report pth st e in
        if r < 0 || r >= p.Reg_ir.num_vregs then begin
          err ~report ~code:"L001" pth
            "vector register %d outside the %d declared" r p.Reg_ir.num_vregs;
          Some st
        end
        else Some (set_v st r v)
      | Reg_ir.If (cond, then_b, else_b) ->
        check_cond ~report pth st cond;
        let t = exec_stmts ~report (sub pth "then") (refine st cond true) then_b in
        let e =
          exec_stmts ~report (sub pth "else") (refine st cond false) else_b
        in
        join_opt t e
      | Reg_ir.While (cond, body) ->
        (* Iterate to a (widened) fixpoint with reporting off, then run one
           reporting pass over the body from the stable loop invariant. *)
        let rec fix inv n =
          let out =
            match refine inv cond true with
            | None -> None
            | Some entry ->
              exec_stmts ~report:false (sub pth "while") (Some entry) body
          in
          match join_opt (Some inv) out with
          | None -> inv
          | Some joined ->
            if state_equal joined inv then inv
            else
              fix
                (if n >= 2 then widen_state ~thresholds inv joined else joined)
                (n + 1)
        in
        let inv = fix st 0 in
        check_cond ~report pth inv cond;
        (match refine inv cond true with
        | None -> ()
        | Some entry ->
          ignore (exec_stmts ~report (sub pth "while") (Some entry) body));
        refine inv cond false
      | Reg_ir.Repeat (n, body) ->
        if n < 0 then begin
          err ~report ~code:"L004" pth "negative repeat count %d" n;
          Some st
        end
        else begin
          let st = ref (Some st) in
          for _ = 1 to n do
            st := exec_stmts ~report (sub pth "repeat") !st body
          done;
          !st
        end)
  in
  let init =
    let ir = Array.make (max p.Reg_ir.num_iregs 0) Ibot in
    let roots () =
      av ~cg:(if relational then env.content_cg Reg_ir.Tree_roots
              else Congruence.top)
        (content_iv Reg_ir.Tree_roots)
    in
    let state0 () =
      match p.Reg_ir.layout with
      | Layout.Array_kind -> av ~cg:(Congruence.const 0) (const 0)
      | Layout.Sparse_kind -> roots ()
    in
    (* The driver sets up state/base once per jam lane, at each lane's
       register-window offset. *)
    let w = Reg_ir.lane_width p in
    for lane = 0 to max 1 p.Reg_ir.lanes - 1 do
      let off = lane * w in
      if off + Reg_ir.state_reg < Array.length ir then
        ir.(off + Reg_ir.state_reg) <- Iv (state0 ());
      if off + Reg_ir.base_reg < Array.length ir then
        ir.(off + Reg_ir.base_reg) <- Iv (roots ())
    done;
    {
      ir;
      vr = Array.make (max p.Reg_ir.num_vregs 0) Vbot;
      fr = Array.make (max p.Reg_ir.num_fregs 0) false;
    }
  in
  (match exec_stmts ~report:true path (Some init) p.Reg_ir.body with
  | Some final ->
    let fw = Reg_ir.lane_fwidth p in
    for lane = 0 to max 1 p.Reg_ir.lanes - 1 do
      let r = (lane * fw) + Reg_ir.result_reg in
      if r >= 0 && r < Array.length final.fr && not final.fr.(r) then
        warn ~report:true ~code:"L002" path
          "result register may be undefined when the walk exits%s"
          (if p.Reg_ir.lanes > 1 then Printf.sprintf " (lane %d)" lane else "")
    done
  | None -> ());
  let facts =
    Hashtbl.fold (fun buf iv acc -> (buf, iv) :: acc) access []
    |> List.sort compare
  in
  (List.rev !diags, facts)

let check_program ?path ?relational env p =
  fst (analyze_program ?path ?relational env p)

(* ------------------------------------------------------------------ *)
(* Layout closure                                                      *)
(* ------------------------------------------------------------------ *)

let check_layout ~num_features (lay : Layout.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let err ~code ~path fmt = D.errorf ~level:D.Lir ~code ~path fmt in
  let nt = lay.Layout.tile_size in
  let slots = Array.length lay.Layout.shape_ids in
  let rows = Array.length lay.Layout.lut in
  if nt < 1 then add (err ~code:"L020" ~path:[] "tile size %d < 1" nt);
  let lanes_ok =
    Array.length lay.Layout.thresholds = slots * nt
    && Array.length lay.Layout.features = slots * nt
  in
  if not lanes_ok then
    add
      (err ~code:"L020" ~path:[]
         "slot-major arrays have %d/%d entries, expected %d slots x %d lanes"
         (Array.length lay.Layout.thresholds)
         (Array.length lay.Layout.features)
         slots nt);
  let cptr_ok =
    match lay.Layout.kind with
    | Layout.Sparse_kind -> Array.length lay.Layout.child_ptr = slots
    | Layout.Array_kind -> true
  in
  if not cptr_ok then
    add
      (err ~code:"L020" ~path:[]
         "child-pointer array has %d entries, expected one per slot (%d)"
         (Array.length lay.Layout.child_ptr)
         slots);
  (* LUT rows (L024). *)
  let width = 1 lsl nt in
  (* Paths are formatted only for a finding. *)
  let row_path sid = [ Printf.sprintf "lut row %d" sid ] in
  let slot_path s = [ Printf.sprintf "slot %d" s ] in
  let tree_path i = [ Printf.sprintf "tree %d" i ] in
  Array.iteri
    (fun sid row ->
      if Array.length row <> width then
        add
          (err ~code:"L024" ~path:(row_path sid)
             "row has %d entries, expected 2^%d = %d" (Array.length row) nt
             width)
      else
        Array.iteri
          (fun bits c ->
            if c < 0 || c > nt then
              add
                (err ~code:"L024" ~path:(row_path sid)
                   "entry for bits %#x is %d, outside the 0..%d child range"
                   bits c nt))
          row)
    lay.Layout.lut;
  (* Reachable (distinct) child indices per LUT row, clamped to sane
     values so a corrupt row doesn't crash the closure walk below. *)
  let children = Layout.lut_children lay in
  let row_children sid =
    if sid < 0 || sid >= rows then [] else children.(sid)
  in
  let is_tile s =
    match lay.Layout.kind with
    | Layout.Array_kind -> lay.Layout.shape_ids.(s) >= 0
    | Layout.Sparse_kind -> true
  in
  (* Per-slot shape ids and feature ids. *)
  for s = 0 to slots - 1 do
    let sid = lay.Layout.shape_ids.(s) in
    (match lay.Layout.kind with
    | Layout.Array_kind ->
      if sid < Layout.unused_marker then
        add
          (err ~code:"L024" ~path:(slot_path s)
             "shape id %d is not a valid marker" sid)
      else if sid >= rows then
        add
          (err ~code:"L024" ~path:(slot_path s)
             "shape id %d references one of %d LUT rows" sid rows)
    | Layout.Sparse_kind ->
      if sid < 0 || sid >= rows then
        add
          (err ~code:"L024" ~path:(slot_path s)
             "shape id %d outside the %d LUT rows (sparse slots are always \
              tiles)"
             sid rows));
    if lanes_ok && is_tile s then
      for lane = 0 to nt - 1 do
        let f = lay.Layout.features.((s * nt) + lane) in
        if f < 0 || f >= num_features then
          add
            (err ~code:"L021" ~path:(slot_path s)
               "lane %d reads feature %d outside the model's %d features" lane
               f num_features)
      done
  done;
  (* Tree roots and successor closure. *)
  (match lay.Layout.kind with
  | Layout.Array_kind ->
    let n_trees = Array.length lay.Layout.tree_root in
    if n_trees <> lay.Layout.num_trees then
      add
        (err ~code:"L022" ~path:[] "%d tree roots for %d trees" n_trees
           lay.Layout.num_trees);
    let slab_end i =
      if i + 1 < n_trees then lay.Layout.tree_root.(i + 1) else slots
    in
    for i = 0 to n_trees - 1 do
      let base = lay.Layout.tree_root.(i) in
      let stop = slab_end i in
      if base < 0 || base >= slots || base > stop then
        add
          (err ~code:"L022" ~path:(tree_path i)
             "slab [%d, %d) is not a valid slot range (layout has %d slots)"
             base stop slots)
      else begin
        if lay.Layout.shape_ids.(base) = Layout.unused_marker then
          add
            (err ~code:"L022" ~path:(tree_path i)
               "root slot %d was never allocated" base);
        for s = base to stop - 1 do
          let sid = lay.Layout.shape_ids.(s) in
          if sid >= 0 then begin
            let local = s - base in
            List.iter
              (fun c ->
                let target = base + (local * (nt + 1)) + c + 1 in
                if target >= stop then
                  add
                    (err ~code:"L020" ~path:(tree_path i @ slot_path s)
                       "child %d at slot %d escapes the tree's slab [%d, %d)"
                       c target base stop)
                else if lay.Layout.shape_ids.(target) = Layout.unused_marker
                then
                  add
                    (err ~code:"L020" ~path:(tree_path i @ slot_path s)
                       "child %d points to unallocated slot %d" c target))
              (row_children sid)
          end
        done
      end
    done
  | Layout.Sparse_kind ->
    let num_leaves = Array.length lay.Layout.leaf_values in
    Array.iteri
      (fun i r ->
        if r >= 0 then begin
          if r >= slots then
            add
              (err ~code:"L022" ~path:(tree_path i)
                 "root slot %d outside the %d slots" r slots)
        end
        else if -r - 1 >= num_leaves then
          add
            (err ~code:"L022" ~path:(tree_path i)
               "single-leaf root index %d outside the %d leaf values" (-r - 1)
               num_leaves))
      lay.Layout.tree_root;
    if cptr_ok then
      for s = 0 to slots - 1 do
        let cp = lay.Layout.child_ptr.(s) in
        List.iter
          (fun c ->
            if cp >= 0 then begin
              if cp + c >= slots then
                add
                  (err ~code:"L020" ~path:(slot_path s)
                     "child %d at slot %d outside the %d slots" c (cp + c)
                     slots)
            end
            else begin
              let leaf = -cp - 1 + c in
              if leaf >= num_leaves then
                add
                  (err ~code:"L023" ~path:(slot_path s)
                     "child %d reads leaf %d outside the %d leaf values" c leaf
                     num_leaves)
            end)
          (row_children lay.Layout.shape_ids.(s))
      done);
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Umbrella: layout + every generated walk variant                     *)
(* ------------------------------------------------------------------ *)

let reprefix seg d = { d with D.path = seg :: d.D.path }

let check_variant_raw ~relational env (prog : Reg_ir.walk_program) =
  if not relational || prog.Reg_ir.lanes <= 1 then
    check_program ~relational env prog
  else begin
    let al = Alias.check prog in
    if al.Alias.diags <> [] then
      (* Lane partition refuted: the jammed register windows collide, so a
         per-lane analysis would be unsound. Report the collisions and
         fall back to the joint (widened) analysis for bounds facts. *)
      al.Alias.diags @ check_program ~relational:false env prog
    else begin
      (* Lanes proved independent: analyze each lane's projection with
         full precision. Lane l's projection is register-identical to
         lane 0's (the jam is a renaming), so identical findings are
         reported once rather than once per lane; any lane that differs
         (it cannot, unless projection is broken) is reported under its
         own path. *)
      let ds0 = check_program ~relational env (Alias.project prog ~lane:0) in
      let extra =
        List.concat
          (List.init
             (prog.Reg_ir.lanes - 1)
             (fun k ->
               let lane = k + 1 in
               let dsl =
                 check_program ~relational env (Alias.project prog ~lane)
               in
               if dsl = ds0 then []
               else
                 List.map
                   (fun d ->
                     { d with D.path = d.D.path @ [ Printf.sprintf "lane %d" lane ] })
                   dsl))
      in
      let fact =
        D.infof ~level:D.Lir ~code:"L014" ~path:[]
          "unroll-and-jam lanes independent: %d-lane register partition \
           proved, per-lane bounds analyzed without widening across lanes"
          prog.Reg_ir.lanes
      in
      ds0 @ extra @ [ fact ]
    end
  end

let check_variant ?(relational = true) env ~variant prog =
  List.map
    (reprefix (Printf.sprintf "variant %d" variant))
    (check_variant_raw ~relational env prog)

let check_walks ?(relational = true) env (lay : Layout.t) (mir : Mir.t) =
  (* Walk programs depend only on (walk kind, interleave), so on wide
     models with many uniform groups most variants are structurally
     identical — analyze each distinct program once and re-prefix the
     findings per variant. *)
  let cache = Hashtbl.create 8 in
  Reg_codegen.jammed_variants lay mir
  |> List.concat_map (fun (i, prog) ->
         let ds =
           match Hashtbl.find_opt cache prog with
           | Some ds -> ds
           | None ->
             let ds = check_variant_raw ~relational env prog in
             Hashtbl.replace cache prog ds;
             ds
         in
         List.map (reprefix (Printf.sprintf "variant %d" i)) ds)

let check ?(relational = true) ~num_features (lay : Layout.t) (mir : Mir.t) =
  let env = env_of_layout ~num_features lay in
  check_layout ~num_features lay @ check_walks ~relational env lay mir
