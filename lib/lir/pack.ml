module Mir = Tb_mir.Mir
module Schedule = Tb_hir.Schedule
module Reorder = Tb_hir.Reorder
module Json = Tb_util.Json
module D = Tb_diag.Diagnostic

type group = {
  positions : int array;
  walk : Mir.walk_kind;
  interleave : int;
}

type meta = {
  model : string;
  target : string;
  schedule : Schedule.t;
  us_per_row : float;
}

type quant = {
  resident_k : int;
  dev_bound : float array;
  tolerance : float;
}

type t = {
  meta : meta;
  loop_order : Schedule.loop_order;
  num_threads : int;
  num_outputs : int;
  base_score : float;
  tree_class : int array;
  walk_depth : int array;
  groups : group array;
  layout : Layout.t;
  quant : quant option;
}

let of_lower ?(model = "") ?(target = "") ?(us_per_row = 0.0) ?quant
    (lp : Lower.t) =
  (match (quant, lp.Lower.layout.Layout.quant) with
  | Some _, None ->
    invalid_arg "Pack.of_lower: quant metadata without a quantized layout"
  | None, Some _ ->
    invalid_arg "Pack.of_lower: quantized layout without quant metadata"
  | _ -> ());
  let mir = lp.Lower.mir in
  let groups =
    Array.map
      (fun (p : Mir.group_plan) ->
        {
          positions = Array.copy p.Mir.group.Reorder.positions;
          walk = p.Mir.walk;
          interleave = p.Mir.interleave;
        })
      mir.Mir.group_plans
  in
  {
    meta = { model; target; schedule = mir.Mir.schedule; us_per_row };
    loop_order = mir.Mir.loop_order;
    num_threads = mir.Mir.num_threads;
    num_outputs = lp.Lower.num_outputs;
    base_score = lp.Lower.base_score;
    tree_class = Array.copy lp.Lower.tree_class;
    walk_depth = Array.copy lp.Lower.walk_depth;
    groups;
    layout = lp.Lower.layout;
    quant;
  }

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

let format_version = 2
let magic = "TBPK"

type error = { code : string; message : string }

exception Fail of error

let fail code fmt =
  Printf.ksprintf (fun message -> raise (Fail { code; message })) fmt

let error_to_diagnostic e =
  D.errorf ~level:D.Artifact ~code:e.code ~path:[] "%s" e.message

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected)                                       *)
(* ------------------------------------------------------------------ *)

(* Slice-by-8 on native ints: table [k] holds each byte's CRC followed by
   [k] zero bytes, so the main loop folds eight bytes per step through
   eight independent lookups. Every table index is a byte, and the range
   check up front covers every buffer read, so both kinds of access skip
   their bounds checks. *)
let crc_tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c :=
               if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1)
               else !c lsr 1
           done;
           !c)
     in
     let tables = Array.make 8 t0 in
     for k = 1 to 7 do
       tables.(k) <-
         Array.map (fun v -> (v lsr 8) lxor t0.(v land 0xFF)) tables.(k - 1)
     done;
     tables)

let[@inline] tab (t : int array) i = Array.unsafe_get t i
let[@inline] byte buf i = Char.code (Bytes.unsafe_get buf i)

let crc32 buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Pack.crc32";
  let t = Lazy.force crc_tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref 0xFFFF_FFFF in
  let stop8 = pos + (len land lnot 7) in
  let j = ref pos in
  while !j < stop8 do
    let i = !j and x = !c in
    c :=
      tab t7 ((x lxor byte buf i) land 0xFF)
      lxor tab t6 (((x lsr 8) lxor byte buf (i + 1)) land 0xFF)
      lxor tab t5 (((x lsr 16) lxor byte buf (i + 2)) land 0xFF)
      lxor tab t4 ((x lsr 24) lxor byte buf (i + 3))
      lxor tab t3 (byte buf (i + 4))
      lxor tab t2 (byte buf (i + 5))
      lxor tab t1 (byte buf (i + 6))
      lxor tab t0 (byte buf (i + 7));
    j := i + 8
  done;
  for i = stop8 to pos + len - 1 do
    c := tab t0 ((!c lxor byte buf i) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFF_FFFF)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let w_u8 b v = Buffer.add_uint8 b v
let w_i32 b v = Buffer.add_int32_le b (Int32.of_int v)
let w_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let w_str b s =
  w_i32 b (String.length s);
  Buffer.add_string b s

(* An array is its length, then its elements. Each is sized once and
   filled in a plain loop, as [r_int_array] and [r_float_array] read it,
   then appended with one copy. *)
let w_int_array b a =
  let n = Array.length a in
  let bytes = Bytes.create (4 + (4 * n)) in
  Bytes.set_int32_le bytes 0 (Int32.of_int n);
  for i = 0 to n - 1 do
    Bytes.set_int32_le bytes (4 + (4 * i)) (Int32.of_int a.(i))
  done;
  Buffer.add_bytes b bytes

let w_float_array b a =
  let n = Array.length a in
  let bytes = Bytes.create (4 + (8 * n)) in
  Bytes.set_int32_le bytes 0 (Int32.of_int n);
  for i = 0 to n - 1 do
    Bytes.set_int64_le bytes (4 + (8 * i)) (Int64.bits_of_float a.(i))
  done;
  Buffer.add_bytes b bytes

let w_walk b = function
  | Mir.Loop_walk -> w_u8 b 0
  | Mir.Peeled_walk { peel } ->
    w_u8 b 1;
    w_i32 b peel
  | Mir.Unrolled_walk { depth } ->
    w_u8 b 2;
    w_i32 b depth

let buffer_tag = function
  | Reg_ir.Thresholds -> 0
  | Reg_ir.Feature_ids -> 1
  | Reg_ir.Shape_ids -> 2
  | Reg_ir.Child_ptrs -> 3
  | Reg_ir.Leaf_values -> 4
  | Reg_ir.Lut -> 5
  | Reg_ir.Tree_roots -> 6
  | Reg_ir.Row -> 7

let w_buf b buf = w_u8 b (buffer_tag buf)

let w_iexpr b = function
  | Reg_ir.Iconst v ->
    w_u8 b 0;
    w_i32 b v
  | Reg_ir.Imov r ->
    w_u8 b 1;
    w_i32 b r
  | Reg_ir.Iadd (x, y) ->
    w_u8 b 2;
    w_i32 b x;
    w_i32 b y
  | Reg_ir.Imul_const (r, v) ->
    w_u8 b 3;
    w_i32 b r;
    w_i32 b v
  | Reg_ir.Iadd_const (r, v) ->
    w_u8 b 4;
    w_i32 b r;
    w_i32 b v
  | Reg_ir.Isub (x, y) ->
    w_u8 b 5;
    w_i32 b x;
    w_i32 b y
  | Reg_ir.Iload (buf, r) ->
    w_u8 b 6;
    w_buf b buf;
    w_i32 b r
  | Reg_ir.Movemask v ->
    w_u8 b 7;
    w_i32 b v

let w_fexpr b = function
  | Reg_ir.Fload (buf, r) ->
    w_u8 b 0;
    w_buf b buf;
    w_i32 b r

let w_vexpr b = function
  | Reg_ir.Vload_f (buf, r) ->
    w_u8 b 0;
    w_buf b buf;
    w_i32 b r
  | Reg_ir.Vload_i (buf, r) ->
    w_u8 b 1;
    w_buf b buf;
    w_i32 b r
  | Reg_ir.Gather (buf, v) ->
    w_u8 b 2;
    w_buf b buf;
    w_i32 b v
  | Reg_ir.Vcmp_lt (x, y) ->
    w_u8 b 3;
    w_i32 b x;
    w_i32 b y

let w_cond b = function
  | Reg_ir.Ige (r, v) ->
    w_u8 b 0;
    w_i32 b r;
    w_i32 b v
  | Reg_ir.Ieq_load (buf, r, v) ->
    w_u8 b 1;
    w_buf b buf;
    w_i32 b r;
    w_i32 b v

let rec w_stmt b = function
  | Reg_ir.Iset (r, e) ->
    w_u8 b 0;
    w_i32 b r;
    w_iexpr b e
  | Reg_ir.Fset (r, e) ->
    w_u8 b 1;
    w_i32 b r;
    w_fexpr b e
  | Reg_ir.Vset (r, e) ->
    w_u8 b 2;
    w_i32 b r;
    w_vexpr b e
  | Reg_ir.While (c, body) ->
    w_u8 b 3;
    w_cond b c;
    w_stmts b body
  | Reg_ir.If (c, t, f) ->
    w_u8 b 4;
    w_cond b c;
    w_stmts b t;
    w_stmts b f
  | Reg_ir.Repeat (n, body) ->
    w_u8 b 5;
    w_i32 b n;
    w_stmts b body

and w_stmts b l =
  w_i32 b (List.length l);
  List.iter (w_stmt b) l

let w_program b (p : Reg_ir.walk_program) =
  w_u8 b p.Reg_ir.tile_size;
  w_u8 b (match p.Reg_ir.layout with Layout.Array_kind -> 0 | Layout.Sparse_kind -> 1);
  w_i32 b p.Reg_ir.lanes;
  w_i32 b p.Reg_ir.num_iregs;
  w_i32 b p.Reg_ir.num_fregs;
  w_i32 b p.Reg_ir.num_vregs;
  w_stmts b p.Reg_ir.body

(* The REG block body: each group's single-lane walk program, derived from
   the layout and the walk plan rather than stored in [t]. [decode] checks
   the block against this writer, so it is the block's one definition. *)
let w_programs b t =
  w_i32 b (Array.length t.groups);
  Array.iter
    (fun g -> w_program b (Reg_codegen.walk_program t.layout g.walk))
    t.groups

(* Block tags, in required stream order. *)
let tag_meta = 1
let tag_plan = 2
let tag_trees = 3
let tag_layout = 4
let tag_reg = 5
let tag_quant = 6

let w_block b tag body =
  w_u8 b tag;
  w_i32 b (Buffer.length body);
  Buffer.add_buffer b body

let encode t =
  let payload = Buffer.create 4096 in
  (* META *)
  let b = Buffer.create 256 in
  w_str b t.meta.model;
  w_str b t.meta.target;
  w_str b (Json.to_string (Schedule.to_json t.meta.schedule));
  w_f64 b t.meta.us_per_row;
  w_u8 b (match t.loop_order with Schedule.One_row_at_a_time -> 0 | Schedule.One_tree_at_a_time -> 1);
  w_i32 b t.num_threads;
  w_i32 b t.num_outputs;
  w_f64 b t.base_score;
  w_block payload tag_meta b;
  (* PLAN *)
  let b = Buffer.create 256 in
  w_i32 b (Array.length t.groups);
  Array.iter
    (fun g ->
      w_walk b g.walk;
      w_i32 b g.interleave;
      w_int_array b g.positions)
    t.groups;
  w_block payload tag_plan b;
  (* TREES *)
  let b = Buffer.create 256 in
  w_int_array b t.tree_class;
  w_int_array b t.walk_depth;
  w_block payload tag_trees b;
  (* LAYOUT — buffers in the order a walk touches them: roots, shapes,
     child pointers, then the per-lane predicate data, then the leaves. *)
  let b = Buffer.create 4096 in
  let lay = t.layout in
  w_u8 b (match lay.Layout.kind with Layout.Array_kind -> 0 | Layout.Sparse_kind -> 1);
  w_u8 b lay.Layout.tile_size;
  w_i32 b lay.Layout.num_trees;
  w_int_array b lay.Layout.tree_root;
  w_int_array b lay.Layout.shape_ids;
  w_int_array b lay.Layout.child_ptr;
  w_int_array b lay.Layout.features;
  w_float_array b lay.Layout.thresholds;
  w_float_array b lay.Layout.leaf_values;
  w_i32 b (Array.length lay.Layout.lut);
  Array.iter (w_int_array b) lay.Layout.lut;
  w_block payload tag_layout b;
  (* REG *)
  let b = Buffer.create 1024 in
  w_programs b t;
  w_block payload tag_reg b;
  (* QUANT — optional trailing block; float packs omit it entirely so
     their encodings stay minimal. *)
  (match (t.quant, t.layout.Layout.quant) with
  | Some q, Some spec ->
    let b = Buffer.create 256 in
    w_u8 b spec.Layout.qbits;
    w_i32 b spec.Layout.q_max;
    w_i32 b spec.Layout.leaf_exp;
    w_i32 b (Array.length spec.Layout.feature_exp);
    Array.iter
      (fun e ->
        match e with
        | None -> w_u8 b 0
        | Some v ->
          w_u8 b 1;
          w_i32 b v)
      spec.Layout.feature_exp;
    w_i32 b q.resident_k;
    w_float_array b q.dev_bound;
    w_f64 b q.tolerance;
    w_block payload tag_quant b
  | None, None -> ()
  | _ -> invalid_arg "Pack.encode: quant metadata and layout disagree");
  (* Header + payload. *)
  let plen = Buffer.length payload in
  let out = Bytes.create (16 + plen) in
  Bytes.blit_string magic 0 out 0 4;
  Bytes.set_uint16_le out 4 format_version;
  Bytes.set_uint16_le out 6 0;
  Buffer.blit payload 0 out 16 plen;
  Bytes.set_int32_le out 8 (Int32.of_int plen);
  Bytes.set_int32_le out 12 (crc32 out ~pos:16 ~len:plen);
  out

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type cursor = { buf : bytes; mutable pos : int; limit : int }

let need c n what =
  if n < 0 || c.pos + n > c.limit then
    fail "A004" "truncated artifact: %s needs %d bytes at offset %d (limit %d)"
      what n c.pos c.limit

let r_u8 c what =
  need c 1 what;
  let v = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  v

let r_i32 c what =
  need c 4 what;
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) in
  c.pos <- c.pos + 4;
  v

let r_len c what =
  let v = r_i32 c what in
  if v < 0 then fail "A004" "negative length for %s" what;
  v

let r_f64 c what =
  need c 8 what;
  let v = Int64.float_of_bits (Bytes.get_int64_le c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

let r_str c what =
  let n = r_len c what in
  need c n what;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

(* [Array.init]/[List.init] make no order guarantee, and every read
   advances the cursor — repeated variable-length records are read
   explicitly left to right. *)
let r_seq n read =
  if n = 0 then [||]
  else begin
    let first = read () in
    let a = Array.make n first in
    for i = 1 to n - 1 do
      a.(i) <- read ()
    done;
    a
  end

(* Fixed-width arrays: one bounds check for the whole array, then a plain
   loop over the bytes. *)
let r_int_array c what =
  let n = r_len c what in
  need c (4 * n) what;
  let a = Array.make n 0 and buf = c.buf and pos = c.pos in
  for i = 0 to n - 1 do
    a.(i) <- Int32.to_int (Bytes.get_int32_le buf (pos + (4 * i)))
  done;
  c.pos <- pos + (4 * n);
  a

let r_float_array c what =
  let n = r_len c what in
  need c (8 * n) what;
  let a = Array.create_float n and buf = c.buf and pos = c.pos in
  for i = 0 to n - 1 do
    a.(i) <- Int64.float_of_bits (Bytes.get_int64_le buf (pos + (8 * i)))
  done;
  c.pos <- pos + (8 * n);
  a

let r_walk c =
  match r_u8 c "walk kind" with
  | 0 -> Mir.Loop_walk
  | 1 ->
    let peel = r_i32 c "peel" in
    if peel < 0 then fail "A004" "negative peel %d" peel;
    Mir.Peeled_walk { peel }
  | 2 ->
    let depth = r_i32 c "depth" in
    (* depth 0 is real: a group of single-tile trees unrolls to no steps. *)
    if depth < 0 then fail "A004" "negative unrolled depth %d" depth;
    Mir.Unrolled_walk { depth }
  | tag -> fail "A004" "unknown walk-kind tag %d" tag

let r_kind c what =
  match r_u8 c what with
  | 0 -> Layout.Array_kind
  | 1 -> Layout.Sparse_kind
  | tag -> fail "A004" "unknown layout-kind tag %d in %s" tag what

let r_block c tag what =
  let got = r_u8 c (what ^ " block tag") in
  if got <> tag then
    fail "A004" "expected %s block (tag %d) at offset %d, found tag %d" what
      tag (c.pos - 1) got;
  let len = r_len c (what ^ " block length") in
  need c len (what ^ " block body");
  let body_start = c.pos in
  (len, body_start)

let check_block c (len, body_start) what =
  if c.pos - body_start <> len then
    fail "A004" "%s block length %d disagrees with its contents (%d bytes)"
      what len (c.pos - body_start)

(* ------------------------------------------------------------------ *)
(* Structural validation of a decoded pack                             *)
(* ------------------------------------------------------------------ *)

let validate t =
  let lay = t.layout in
  (* Artifacts do not record the model's width, so only a quantized
     layout's plan bounds the feature ids. *)
  (match Layout.check ~num_features:max_int lay with
  | [] -> ()
  | d :: _ -> fail "A004" "malformed layout: %s" (D.to_string d));
  let num_trees = lay.Layout.num_trees in
  if Array.length t.tree_class <> num_trees then
    fail "A004" "tree_class length %d != %d trees" (Array.length t.tree_class)
      num_trees;
  if Array.length t.walk_depth <> num_trees then
    fail "A004" "walk_depth length %d != %d trees" (Array.length t.walk_depth)
      num_trees;
  if t.num_outputs < 1 then fail "A004" "num_outputs %d < 1" t.num_outputs;
  Array.iteri
    (fun i cls ->
      if cls < 0 || cls >= t.num_outputs then
        fail "A004" "tree %d class %d out of range" i cls)
    t.tree_class;
  if t.num_threads < 1 then fail "A004" "num_threads %d < 1" t.num_threads;
  (* Every tree must be walked exactly once across the group plans. *)
  let seen = Array.make num_trees 0 in
  Array.iter
    (fun g ->
      if g.interleave < 1 then fail "A004" "interleave %d < 1" g.interleave;
      Array.iter
        (fun tree ->
          if tree < 0 || tree >= num_trees then
            fail "A004" "group position %d out of range" tree;
          seen.(tree) <- seen.(tree) + 1)
        g.positions)
    t.groups;
  Array.iteri
    (fun tree n ->
      if n <> 1 then fail "A004" "tree %d appears in %d group plans" tree n)
    seen;
  (* The walk kernels trust the plan's depths: an unrolled walk takes
     exactly [depth] steps and a peeled one steps [peel] times without a
     leaf check, so a leaf at another depth can make a predict read out
     of bounds or return a wrong margin. *)
  let depths = Layout.leaf_depths lay in
  Array.iteri
    (fun gi g ->
      Array.iter
        (fun tree ->
          let lo, hi = depths.(tree) in
          match g.walk with
          | Mir.Unrolled_walk { depth } when lo <> depth || hi <> depth ->
            fail "A004"
              "group %d unrolls %d steps but tree %d has leaves at depths \
               %d..%d"
              gi depth tree lo hi
          | Mir.Peeled_walk { peel } when lo < peel ->
            fail "A004"
              "group %d peels %d steps but tree %d has a leaf at depth %d" gi
              peel tree lo
          | Mir.Loop_walk | Mir.Unrolled_walk _ | Mir.Peeled_walk _ -> ())
        g.positions)
    t.groups;
  (* Quantized artifacts: the spec must be sane and every stored value
     must actually be one of the plan's integers (as integer-valued
     floats), with infinities kept as always/never-true markers. *)
  match (t.quant, lay.Layout.quant) with
  | None, None -> ()
  | Some _, None -> fail "A004" "quant block without a quantized layout"
  | None, Some _ -> fail "A004" "quantized layout without a quant block"
  | Some q, Some spec ->
    if spec.Layout.qbits <> 8 && spec.Layout.qbits <> 16 then
      fail "A004" "quantized width %d is not 8 or 16" spec.Layout.qbits;
    if spec.Layout.q_max <> (1 lsl (spec.Layout.qbits - 1)) - 1 then
      fail "A004" "q_max %d disagrees with width %d" spec.Layout.q_max
        spec.Layout.qbits;
    if q.resident_k < 0 then
      fail "A004" "negative resident prefix depth %d" q.resident_k;
    if Array.length q.dev_bound <> t.num_outputs then
      fail "A004" "deviation bound length %d != %d outputs"
        (Array.length q.dev_bound) t.num_outputs;
    if not (Float.is_finite q.tolerance) || q.tolerance < 0.0 then
      fail "A004" "bad quantization tolerance";
    let in_range what i v =
      if Float.is_finite v then
        if
          Float.round v <> v
          || v > float_of_int spec.Layout.q_max
          || v < float_of_int (-spec.Layout.q_max - 1)
        then fail "A004" "%s %d value %g is not a quantized integer" what i v
    in
    Array.iteri (in_range "threshold") lay.Layout.thresholds;
    Array.iteri (in_range "leaf") lay.Layout.leaf_values

(* The stored REG block must be exactly what [w_programs] writes for the
   decoded plan. A block that disagrees (tampered, or written by another
   codegen) makes the artifact a miss, which the registry recompiles. *)
let check_programs c (len, body_start) t =
  let b = Buffer.create 1024 in
  w_programs b t;
  if Buffer.contents b <> Bytes.sub_string c.buf body_start len then
    fail "A004"
      "register programs block (%d bytes) is not the encoding the walk plan \
       derives (%d bytes)"
      len (Buffer.length b)

let decode bytes =
  try
    let total = Bytes.length bytes in
    if total < 4 || Bytes.sub_string bytes 0 4 <> magic then
      fail "A001" "not a packed predictor artifact (bad magic)";
    if total < 16 then fail "A001" "not a packed predictor artifact (no header)";
    let version = Bytes.get_uint16_le bytes 4 in
    if version <> format_version then
      fail "A002" "unsupported artifact format version %d (decoder speaks %d)"
        version format_version;
    (* The payload CRC cannot cover the header; rejecting nonzero reserved
       bytes keeps every single-bit corruption detectable. *)
    if Bytes.get_uint16_le bytes 6 <> 0 then
      fail "A004" "reserved header bytes are nonzero";
    let plen = Int32.to_int (Bytes.get_int32_le bytes 8) in
    if plen < 0 || 16 + plen > total then
      fail "A004" "truncated artifact: header declares %d payload bytes, %d present"
        plen (total - 16);
    if 16 + plen < total then
      fail "A004" "trailing garbage: %d bytes past the declared payload"
        (total - 16 - plen);
    let stored = Bytes.get_int32_le bytes 12 in
    let actual = crc32 bytes ~pos:16 ~len:plen in
    if stored <> actual then
      fail "A003" "checksum mismatch: stored %08lx, computed %08lx" stored
        actual;
    let c = { buf = bytes; pos = 16; limit = 16 + plen } in
    (* META *)
    let blk = r_block c tag_meta "meta" in
    let model = r_str c "model name" in
    let target = r_str c "target name" in
    let schedule_json = r_str c "schedule" in
    let schedule =
      match Schedule.of_json (Json.of_string schedule_json) with
      | s -> s
      | exception Json.Parse_error m -> fail "A004" "bad schedule: %s" m
    in
    let us_per_row = r_f64 c "us_per_row" in
    let loop_order =
      match r_u8 c "loop order" with
      | 0 -> Schedule.One_row_at_a_time
      | 1 -> Schedule.One_tree_at_a_time
      | tag -> fail "A004" "unknown loop-order tag %d" tag
    in
    let num_threads = r_i32 c "num_threads" in
    let num_outputs = r_i32 c "num_outputs" in
    let base_score = r_f64 c "base_score" in
    check_block c blk "meta";
    (* PLAN *)
    let blk = r_block c tag_plan "plan" in
    let num_groups = r_len c "group count" in
    need c (10 * num_groups) "group plans";
    let groups =
      r_seq num_groups (fun () ->
          let walk = r_walk c in
          let interleave = r_i32 c "interleave" in
          let positions = r_int_array c "group positions" in
          { positions; walk; interleave })
    in
    check_block c blk "plan";
    (* TREES *)
    let blk = r_block c tag_trees "trees" in
    let tree_class = r_int_array c "tree_class" in
    let walk_depth = r_int_array c "walk_depth" in
    check_block c blk "trees";
    (* LAYOUT *)
    let blk = r_block c tag_layout "layout" in
    let kind = r_kind c "layout kind" in
    let tile_size = r_u8 c "tile size" in
    let num_trees = r_i32 c "num_trees" in
    let tree_root = r_int_array c "tree_root" in
    let shape_ids = r_int_array c "shape_ids" in
    let child_ptr = r_int_array c "child_ptr" in
    let features = r_int_array c "features" in
    let thresholds = r_float_array c "thresholds" in
    let leaf_values = r_float_array c "leaf_values" in
    let lut_rows = r_len c "LUT row count" in
    need c (4 * lut_rows) "LUT";
    let lut = r_seq lut_rows (fun () -> r_int_array c "LUT row") in
    check_block c blk "layout";
    let layout =
      {
        Layout.kind;
        tile_size;
        num_trees;
        tree_root;
        thresholds;
        features;
        shape_ids;
        child_ptr;
        leaf_values;
        lut;
        quant = None;
      }
    in
    (* REG — derived from the layout and the plan, so it is compared with
       the writer's bytes once they are validated, not parsed. *)
    let reg = r_block c tag_reg "reg" in
    c.pos <- c.pos + fst reg;
    (* QUANT — present only for integer-fast-path artifacts. *)
    let layout, quant =
      if c.pos = c.limit then (layout, None)
      else begin
        let blk = r_block c tag_quant "quant" in
        let qbits = r_u8 c "qbits" in
        let q_max = r_i32 c "q_max" in
        let leaf_exp = r_i32 c "leaf_exp" in
        let num_features = r_len c "feature_exp count" in
        need c num_features "feature exponents";
        let feature_exp =
          r_seq num_features (fun () ->
              match r_u8 c "feature_exp flag" with
              | 0 -> None
              | 1 -> Some (r_i32 c "feature_exp")
              | tag -> fail "A004" "unknown feature-exp flag %d" tag)
        in
        let resident_k = r_i32 c "resident_k" in
        let dev_bound = r_float_array c "dev_bound" in
        let tolerance = r_f64 c "tolerance" in
        check_block c blk "quant";
        let spec = { Layout.qbits; q_max; feature_exp; leaf_exp } in
        ( { layout with Layout.quant = Some spec },
          Some { resident_k; dev_bound; tolerance } )
      end
    in
    if c.pos <> c.limit then
      fail "A004" "trailing garbage: %d undecoded payload bytes"
        (c.limit - c.pos);
    let t =
      {
        meta = { model; target; schedule; us_per_row };
        loop_order;
        num_threads;
        num_outputs;
        base_score;
        tree_class;
        walk_depth;
        groups;
        layout;
        quant;
      }
    in
    validate t;
    check_programs c reg t;
    Ok t
  with
  | Fail e -> Error e
  | exn ->
    (* Decoding must be total; anything escaping the typed failures above
       is still reported as a malformed body, never a crash. *)
    Error
      {
        code = "A004";
        message = Printf.sprintf "malformed artifact: %s" (Printexc.to_string exn);
      }
