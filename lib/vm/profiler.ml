module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Ops = Tb_lir.Ops
module Mir = Tb_mir.Mir
module Schedule = Tb_hir.Schedule
module Reorder = Tb_hir.Reorder
module Cache = Tb_cpu.Cache
module Config = Tb_cpu.Config
module Cost_model = Tb_cpu.Cost_model

type state = {
  lay : Layout.t;
  cache : Cache.t;
  rows : float array array;
  num_features : int;
  (* address map: slots are an array of structs (as in the paper §V-B) —
     one struct holds a tile's thresholds, feature indices, shape id and
     (sparse) child pointer contiguously. *)
  struct_bytes : int;
  slots_base : int;
  leaf_base : int;
  lut_base : int;
  rows_base : int;
  mutable steps_checked : int;
  mutable steps_unchecked : int;
  mutable leaf_fetches : int;
  mutable walks_checked : int;
  mutable walks_unrolled : int;
  mutable critical_steps : int;
}

let align a = (a + 63) land lnot 63

let make_state ~target (lp : Lower.t) rows =
  let lay = lp.Lower.layout in
  let nt = lay.Layout.tile_size in
  let slots = Layout.num_slots lay in
  let struct_bytes =
    (nt * (4 + 2)) + 2
    + (match lay.Layout.kind with Layout.Sparse_kind -> 4 | Layout.Array_kind -> 0)
  in
  let slots_base = 0 in
  let leaf_base = align (slots_base + (slots * struct_bytes)) in
  let lut_base = align (leaf_base + (4 * Array.length lay.Layout.leaf_values)) in
  let lut_bytes = Array.length lay.Layout.lut * (1 lsl nt) * 2 in
  let rows_base = align (lut_base + lut_bytes) in
  let num_features = if Array.length rows = 0 then 0 else Array.length rows.(0) in
  {
    lay;
    cache =
      Cache.create ~line_bytes:target.Config.l1_line_bytes ~ways:target.Config.l1_ways
        ~size_bytes:target.Config.l1_size_bytes ();
    rows;
    num_features;
    struct_bytes;
    slots_base;
    leaf_base;
    lut_base;
    rows_base;
    steps_checked = 0;
    steps_unchecked = 0;
    leaf_fetches = 0;
    walks_checked = 0;
    walks_unrolled = 0;
    critical_steps = 0;
  }

(* Memory traffic of one tile evaluation at [slot] on behalf of [row_idx]:
   the whole tile struct, the row features gathered, and the LUT entry. *)
let touch_tile_step st slot row_idx =
  let nt = st.lay.Layout.tile_size in
  Cache.access_range st.cache (st.slots_base + (slot * st.struct_bytes)) st.struct_bytes;
  (* Gather: one access per lane into the row. *)
  for lane = 0 to nt - 1 do
    let f = st.lay.Layout.features.((slot * nt) + lane) in
    ignore
      (Cache.access st.cache
         (st.rows_base + (((row_idx * st.num_features) + f) * 4)))
  done;
  let sid = st.lay.Layout.shape_ids.(slot) in
  ignore
    (Cache.access st.cache (st.lut_base + (((sid * (1 lsl nt)) + 0) * 2)))

let touch_leaf st ~slot ~leaf_idx =
  match st.lay.Layout.kind with
  | Layout.Array_kind ->
    ignore (Cache.access st.cache (st.slots_base + (slot * st.struct_bytes)))
  | Layout.Sparse_kind ->
    ignore (Cache.access st.cache (st.leaf_base + (leaf_idx * 4)))

(* Walk one (tree,row), touching memory, and return the number of tile
   steps taken. *)
let traced_walk st tree row_idx =
  let lay = st.lay in
  let row = st.rows.(row_idx) in
  let steps = ref 0 in
  (match lay.Layout.kind with
  | Layout.Array_kind ->
    let base = lay.Layout.tree_root.(tree) in
    let local = ref 0 in
    let continue = ref true in
    while !continue do
      let s = base + !local in
      if lay.Layout.shape_ids.(s) = Layout.leaf_marker then begin
        touch_leaf st ~slot:s ~leaf_idx:0;
        continue := false
      end
      else begin
        touch_tile_step st s row_idx;
        incr steps;
        let bits = Layout.comparison_bits lay s row in
        let c = lay.Layout.lut.(lay.Layout.shape_ids.(s)).(bits) in
        local := (!local * (lay.Layout.tile_size + 1)) + c + 1
      end
    done
  | Layout.Sparse_kind ->
    let root = lay.Layout.tree_root.(tree) in
    if root < 0 then touch_leaf st ~slot:0 ~leaf_idx:(-root - 1)
    else begin
      let s = ref root in
      let continue = ref true in
      while !continue do
        touch_tile_step st !s row_idx;
        incr steps;
        let bits = Layout.comparison_bits lay !s row in
        let c = lay.Layout.lut.(lay.Layout.shape_ids.(!s)).(bits) in
        let p = lay.Layout.child_ptr.(!s) in
        if p >= 0 then s := p + c
        else begin
          touch_leaf st ~slot:0 ~leaf_idx:(-p - 1 + c);
          continue := false
        end
      done
    end);
  st.leaf_fetches <- st.leaf_fetches + 1;
  !steps

let account_walk st (walk : Mir.walk_kind) steps =
  match walk with
  | Mir.Loop_walk ->
    st.steps_checked <- st.steps_checked + steps;
    st.walks_checked <- st.walks_checked + 1
  | Mir.Unrolled_walk _ ->
    st.steps_unchecked <- st.steps_unchecked + steps;
    st.walks_unrolled <- st.walks_unrolled + 1
  | Mir.Peeled_walk { peel } ->
    let unchecked = min peel steps in
    st.steps_unchecked <- st.steps_unchecked + unchecked;
    st.steps_checked <- st.steps_checked + (steps - unchecked);
    st.walks_checked <- st.walks_checked + 1

let run_trace st (lp : Lower.t) rows =
  let n = Array.length rows in
  let plans = lp.Lower.mir.Mir.group_plans in
  match lp.Lower.mir.Mir.loop_order with
  | Schedule.One_tree_at_a_time ->
    Array.iter
      (fun (plan : Mir.group_plan) ->
        let k = max 1 plan.Mir.interleave in
        Array.iter
          (fun tree ->
            let i = ref 0 in
            while !i < n do
              let count = min k (n - !i) in
              let longest = ref 0 in
              for j = 0 to count - 1 do
                let steps = traced_walk st tree (!i + j) in
                account_walk st plan.Mir.walk steps;
                longest := max !longest steps
              done;
              st.critical_steps <- st.critical_steps + !longest;
              i := !i + count
            done)
          plan.Mir.group.Reorder.positions)
      plans
  | Schedule.One_row_at_a_time ->
    for i = 0 to n - 1 do
      Array.iter
        (fun (plan : Mir.group_plan) ->
          let k = max 1 plan.Mir.interleave in
          let positions = plan.Mir.group.Reorder.positions in
          let t = ref 0 in
          while !t < Array.length positions do
            let count = min k (Array.length positions - !t) in
            let longest = ref 0 in
            for j = 0 to count - 1 do
              let steps = traced_walk st positions.(!t + j) i in
              account_walk st plan.Mir.walk steps;
              longest := max !longest steps
            done;
            st.critical_steps <- st.critical_steps + !longest;
            t := !t + count
          done
        )
        plans
    done

let reset_counters st =
  st.steps_checked <- 0;
  st.steps_unchecked <- 0;
  st.leaf_fetches <- 0;
  st.walks_checked <- 0;
  st.walks_unrolled <- 0;
  st.critical_steps <- 0;
  Cache.reset_stats st.cache

let profile ~target ?(warm_start = false) (lp : Lower.t) rows =
  let st = make_state ~target lp rows in
  let n = Array.length rows in
  let plans = lp.Lower.mir.Mir.group_plans in
  (* A small row sample starts on a cold simulated L1, so its miss count is
     dominated by compulsory misses that a full batch amortizes away.
     [warm_start] primes the cache with one identical pass, then counts
     only the steady-state pass. Note this does not remove *per-batch*
     fixed costs (the tree-major model stream): callers that scale a
     sample to a larger batch should prefer {!extrapolate}, which fits
     them out; warm_start + {!scale} is the fallback when the sample is
     too small to split into two points. *)
  if warm_start then begin
    run_trace st lp rows;
    reset_counters st
  end;
  run_trace st lp rows;
  let code_bytes =
    Array.fold_left
      (fun acc (plan : Mir.group_plan) ->
        acc
        + Ops.estimated_code_bytes ~layout:st.lay.Layout.kind
            ~tile_size:st.lay.Layout.tile_size plan.Mir.walk)
      256 plans
  in
  {
    Cost_model.rows = n;
    walks_checked = st.walks_checked;
    walks_unrolled = st.walks_unrolled;
    steps_checked = st.steps_checked;
    steps_unchecked = st.steps_unchecked;
    leaf_fetches = st.leaf_fetches;
    critical_steps = st.critical_steps;
    l1 = Cache.stats st.cache;
    code_bytes;
    model_bytes = Layout.memory_bytes st.lay;
    tile_size = st.lay.Layout.tile_size;
    layout = st.lay.Layout.kind;
  }

let extrapolate (w1 : Cost_model.workload) (w2 : Cost_model.workload) ~rows =
  let n1 = w1.Cost_model.rows and n2 = w2.Cost_model.rows in
  if n1 < 1 || n2 <= n1 then
    invalid_arg "Profiler.extrapolate: need 1 <= rows w1 < rows w2";
  let t = float_of_int (rows - n1) /. float_of_int (n2 - n1) in
  let e f1 f2 =
    max 0
      (int_of_float
         (Float.round (float_of_int f1 +. (float_of_int (f2 - f1) *. t))))
  in
  let accesses = e w1.Cost_model.l1.Cache.accesses w2.Cost_model.l1.Cache.accesses in
  let misses =
    min accesses (e w1.Cost_model.l1.Cache.misses w2.Cost_model.l1.Cache.misses)
  in
  {
    w2 with
    Cost_model.rows;
    walks_checked = e w1.Cost_model.walks_checked w2.Cost_model.walks_checked;
    walks_unrolled = e w1.Cost_model.walks_unrolled w2.Cost_model.walks_unrolled;
    steps_checked = e w1.Cost_model.steps_checked w2.Cost_model.steps_checked;
    steps_unchecked = e w1.Cost_model.steps_unchecked w2.Cost_model.steps_unchecked;
    leaf_fetches = e w1.Cost_model.leaf_fetches w2.Cost_model.leaf_fetches;
    critical_steps = e w1.Cost_model.critical_steps w2.Cost_model.critical_steps;
    l1 = { Cache.accesses; hits = accesses - misses; misses };
  }

let scale (w : Cost_model.workload) factor =
  let s x = int_of_float (Float.round (float_of_int x *. factor)) in
  {
    w with
    Cost_model.rows = s w.Cost_model.rows;
    walks_checked = s w.Cost_model.walks_checked;
    walks_unrolled = s w.Cost_model.walks_unrolled;
    steps_checked = s w.Cost_model.steps_checked;
    steps_unchecked = s w.Cost_model.steps_unchecked;
    leaf_fetches = s w.Cost_model.leaf_fetches;
    critical_steps = s w.Cost_model.critical_steps;
    l1 =
      {
        Cache.accesses = s w.Cost_model.l1.Cache.accesses;
        hits = s w.Cost_model.l1.Cache.hits;
        misses = s w.Cost_model.l1.Cache.misses;
      };
  }

(* Event totals are affine in the row count: a fixed per-batch term
   (compulsory misses; the per-pass model stream under tree-major order)
   plus a per-row rate. Extrapolating from a single sample point folds
   the fixed term into the rate and overstates misses by batch/sample;
   fitting the line through two nested sample prefixes separates them. *)
let profile_sample ~target ~sample ~batch (lp : Lower.t) rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Profiler.profile_sample: no rows";
  let ns = min n sample in
  let sample_rows = Array.sub rows 0 ns in
  if batch = ns then profile ~target lp sample_rows
  else
    (* The second point sits at 2x the sample so the fitted slope is the
       steady per-row rate: below ~[sample] rows the marginal miss rate is
       still contaminated by warm-up transients. *)
    let n2 = min n (2 * ns) in
    if n2 <= ns then
      (* Too few rows for a second point: prime the cache and fall back
         to linear scaling of the steady-state pass. *)
      scale
        (profile ~target ~warm_start:true lp sample_rows)
        (float_of_int batch /. float_of_int ns)
    else
      let w1 = profile ~target lp sample_rows in
      let w2 = profile ~target lp (Array.sub rows 0 n2) in
      extrapolate w1 w2 ~rows:batch
