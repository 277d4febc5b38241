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
  programs : Reg_ir.walk_program array;
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
  let variants = Reg_codegen.all_variants lp.Lower.layout mir in
  let programs =
    Array.init (Array.length groups) (fun g -> List.assoc g variants)
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
    programs;
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

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 buf ~pos ~len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand
           (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get buf i))))
           0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let w_u8 b v = Buffer.add_uint8 b v
let w_i32 b v = Buffer.add_int32_le b (Int32.of_int v)
let w_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let w_str b s =
  w_i32 b (String.length s);
  Buffer.add_string b s

let w_int_array b a =
  w_i32 b (Array.length a);
  Array.iter (w_i32 b) a

let w_float_array b a =
  w_i32 b (Array.length a);
  Array.iter (w_f64 b) a

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
  w_i32 b (Array.length t.programs);
  Array.iter (w_program b) t.programs;
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
   advances the cursor — all repetition below is explicit left-to-right. *)
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

let r_int_array c what =
  let n = r_len c what in
  need c (4 * n) what;
  r_seq n (fun () -> r_i32 c what)

let r_float_array c what =
  let n = r_len c what in
  need c (8 * n) what;
  r_seq n (fun () -> r_f64 c what)

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

let r_buf c =
  match r_u8 c "buffer" with
  | 0 -> Reg_ir.Thresholds
  | 1 -> Reg_ir.Feature_ids
  | 2 -> Reg_ir.Shape_ids
  | 3 -> Reg_ir.Child_ptrs
  | 4 -> Reg_ir.Leaf_values
  | 5 -> Reg_ir.Lut
  | 6 -> Reg_ir.Tree_roots
  | 7 -> Reg_ir.Row
  | tag -> fail "A004" "unknown buffer tag %d" tag

let r_iexpr c =
  match r_u8 c "iexpr" with
  | 0 -> Reg_ir.Iconst (r_i32 c "iconst")
  | 1 -> Reg_ir.Imov (r_i32 c "imov")
  | 2 ->
    let x = r_i32 c "iadd" in
    Reg_ir.Iadd (x, r_i32 c "iadd")
  | 3 ->
    let r = r_i32 c "imul_const" in
    Reg_ir.Imul_const (r, r_i32 c "imul_const")
  | 4 ->
    let r = r_i32 c "iadd_const" in
    Reg_ir.Iadd_const (r, r_i32 c "iadd_const")
  | 5 ->
    let x = r_i32 c "isub" in
    Reg_ir.Isub (x, r_i32 c "isub")
  | 6 ->
    let buf = r_buf c in
    Reg_ir.Iload (buf, r_i32 c "iload")
  | 7 -> Reg_ir.Movemask (r_i32 c "movemask")
  | tag -> fail "A004" "unknown iexpr tag %d" tag

let r_fexpr c =
  match r_u8 c "fexpr" with
  | 0 ->
    let buf = r_buf c in
    Reg_ir.Fload (buf, r_i32 c "fload")
  | tag -> fail "A004" "unknown fexpr tag %d" tag

let r_vexpr c =
  match r_u8 c "vexpr" with
  | 0 ->
    let buf = r_buf c in
    Reg_ir.Vload_f (buf, r_i32 c "vload_f")
  | 1 ->
    let buf = r_buf c in
    Reg_ir.Vload_i (buf, r_i32 c "vload_i")
  | 2 ->
    let buf = r_buf c in
    Reg_ir.Gather (buf, r_i32 c "gather")
  | 3 ->
    let x = r_i32 c "vcmp_lt" in
    Reg_ir.Vcmp_lt (x, r_i32 c "vcmp_lt")
  | tag -> fail "A004" "unknown vexpr tag %d" tag

let r_cond c =
  match r_u8 c "cond" with
  | 0 ->
    let r = r_i32 c "ige" in
    Reg_ir.Ige (r, r_i32 c "ige")
  | 1 ->
    let buf = r_buf c in
    let r = r_i32 c "ieq_load" in
    Reg_ir.Ieq_load (buf, r, r_i32 c "ieq_load")
  | tag -> fail "A004" "unknown cond tag %d" tag

let rec r_stmt c =
  match r_u8 c "stmt" with
  | 0 ->
    let r = r_i32 c "iset" in
    Reg_ir.Iset (r, r_iexpr c)
  | 1 ->
    let r = r_i32 c "fset" in
    Reg_ir.Fset (r, r_fexpr c)
  | 2 ->
    let r = r_i32 c "vset" in
    Reg_ir.Vset (r, r_vexpr c)
  | 3 ->
    let cond = r_cond c in
    Reg_ir.While (cond, r_stmts c)
  | 4 ->
    let cond = r_cond c in
    let t = r_stmts c in
    Reg_ir.If (cond, t, r_stmts c)
  | 5 ->
    let n = r_i32 c "repeat" in
    Reg_ir.Repeat (n, r_stmts c)
  | tag -> fail "A004" "unknown stmt tag %d" tag

and r_stmts c =
  let n = r_len c "stmt list" in
  (* Each stmt is at least 2 bytes, so a hostile count cannot force a
     huge allocation past what the payload could actually hold. *)
  need c (2 * n) "stmt list";
  let acc = ref [] in
  for _ = 1 to n do
    acc := r_stmt c :: !acc
  done;
  List.rev !acc

let r_program c =
  let tile_size = r_u8 c "program tile_size" in
  let layout = r_kind c "program layout" in
  let lanes = r_i32 c "lanes" in
  let num_iregs = r_i32 c "num_iregs" in
  let num_fregs = r_i32 c "num_fregs" in
  let num_vregs = r_i32 c "num_vregs" in
  let body = r_stmts c in
  { Reg_ir.tile_size; layout; body; num_iregs; num_fregs; num_vregs; lanes }

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
  let slots = Array.length lay.Layout.shape_ids in
  let nt = lay.Layout.tile_size in
  if nt < 1 || nt > 8 then fail "A004" "tile size %d out of range" nt;
  if lay.Layout.num_trees <> Array.length lay.Layout.tree_root then
    fail "A004" "num_trees %d != tree_root length %d" lay.Layout.num_trees
      (Array.length lay.Layout.tree_root);
  if Array.length lay.Layout.thresholds <> slots * nt then
    fail "A004" "thresholds length %d != %d slots x tile size %d"
      (Array.length lay.Layout.thresholds) slots nt;
  if Array.length lay.Layout.features <> slots * nt then
    fail "A004" "features length %d != %d slots x tile size %d"
      (Array.length lay.Layout.features) slots nt;
  (match lay.Layout.kind with
  | Layout.Array_kind ->
    if lay.Layout.child_ptr <> [||] then
      fail "A004" "array layout carries child pointers";
    if lay.Layout.leaf_values <> [||] then
      fail "A004" "array layout carries a separate leaf store";
    Array.iteri
      (fun i root ->
        if root < 0 || root > slots then
          fail "A004" "tree %d slab base %d out of range" i root)
      lay.Layout.tree_root
  | Layout.Sparse_kind ->
    if Array.length lay.Layout.child_ptr <> slots then
      fail "A004" "child_ptr length %d != %d slots"
        (Array.length lay.Layout.child_ptr) slots;
    let leaves = Array.length lay.Layout.leaf_values in
    Array.iteri
      (fun i root ->
        if root >= slots || -root - 1 >= leaves then
          fail "A004" "tree %d root %d out of range" i root)
      lay.Layout.tree_root);
  let lut_rows = Array.length lay.Layout.lut in
  Array.iter
    (fun row ->
      if Array.length row <> 1 lsl nt then
        fail "A004" "LUT row length %d != 2^tile size %d" (Array.length row)
          (1 lsl nt))
    lay.Layout.lut;
  Array.iteri
    (fun s sid ->
      if sid >= lut_rows || sid < Layout.unused_marker then
        fail "A004" "slot %d shape id %d out of range" s sid)
    lay.Layout.shape_ids;
  (* Every tile lane must read inside the row. The integer kernels load
     the quantized row unchecked, and that row is as long as the plan's
     feature_exp. *)
  let row_len =
    match lay.Layout.quant with
    | Some spec -> Array.length spec.Layout.feature_exp
    | None -> max_int
  in
  let features = lay.Layout.features in
  for i = 0 to Array.length features - 1 do
    let f = features.(i) in
    if (f < 0 || f >= row_len) && lay.Layout.shape_ids.(i / nt) >= 0 then
      fail "A004" "tile slot %d lane %d reads feature %d outside the row" (i / nt)
        (i mod nt) f
  done;
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
  if Array.length t.programs <> Array.length t.groups then
    fail "A004" "%d register programs for %d groups"
      (Array.length t.programs) (Array.length t.groups);
  Array.iteri
    (fun g p ->
      match Reg_ir.check p with
      | [] -> ()
      | ds ->
        fail "A004" "group %d register program fails verification: %s" g
          (D.to_string (List.hd ds)))
    t.programs;
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
    (* REG *)
    let blk = r_block c tag_reg "reg" in
    let num_programs = r_len c "program count" in
    need c (15 * num_programs) "register programs";
    let programs = r_seq num_programs (fun () -> r_program c) in
    check_block c blk "reg";
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
        programs;
        quant;
      }
    in
    validate t;
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

(* ------------------------------------------------------------------ *)
(* Equality                                                            *)
(* ------------------------------------------------------------------ *)

let float_eq a b = Int64.bits_of_float a = Int64.bits_of_float b

let float_array_eq a b =
  Array.length a = Array.length b && Array.for_all2 float_eq a b

let layout_eq (a : Layout.t) (b : Layout.t) =
  a.Layout.kind = b.Layout.kind
  && a.Layout.tile_size = b.Layout.tile_size
  && a.Layout.num_trees = b.Layout.num_trees
  && a.Layout.tree_root = b.Layout.tree_root
  && float_array_eq a.Layout.thresholds b.Layout.thresholds
  && a.Layout.features = b.Layout.features
  && a.Layout.shape_ids = b.Layout.shape_ids
  && a.Layout.child_ptr = b.Layout.child_ptr
  && float_array_eq a.Layout.leaf_values b.Layout.leaf_values
  && a.Layout.lut = b.Layout.lut
  && a.Layout.quant = b.Layout.quant

let equal a b =
  a.meta.model = b.meta.model
  && a.meta.target = b.meta.target
  && a.meta.schedule = b.meta.schedule
  && float_eq a.meta.us_per_row b.meta.us_per_row
  && a.loop_order = b.loop_order
  && a.num_threads = b.num_threads
  && a.num_outputs = b.num_outputs
  && float_eq a.base_score b.base_score
  && a.tree_class = b.tree_class
  && a.walk_depth = b.walk_depth
  && a.groups = b.groups
  && layout_eq a.layout b.layout
  && a.programs = b.programs
  && (match (a.quant, b.quant) with
     | None, None -> true
     | Some qa, Some qb ->
       qa.resident_k = qb.resident_k
       && float_array_eq qa.dev_bound qb.dev_bound
       && float_eq qa.tolerance qb.tolerance
     | _ -> false)

let size_bytes t = Bytes.length (encode t)
