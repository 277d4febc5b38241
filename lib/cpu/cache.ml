type stats = {
  accesses : int;
  hits : int;
  misses : int;
}

type t = {
  line_bytes : int;
  ways : int;
  num_sets : int;
  (* tags.(set * ways + way); -1 = invalid. *)
  tags : int array;
  (* LRU ordering: age.(set * ways + way); smaller = more recent. *)
  ages : int array;
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
}

let create ?(line_bytes = 64) ?(ways = 8) ~size_bytes () =
  if size_bytes mod (line_bytes * ways) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of line_bytes * ways";
  let num_sets = size_bytes / (line_bytes * ways) in
  {
    line_bytes;
    ways;
    num_sets;
    tags = Array.make (num_sets * ways) (-1);
    ages = Array.make (num_sets * ways) 0;
    clock = 0;
    accesses = 0;
    hits = 0;
  }

let access t addr =
  let line = addr / t.line_bytes in
  let set = line mod t.num_sets in
  let base = set * t.ways in
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let hit_way = ref (-1) in
  for w = 0 to t.ways - 1 do
    if t.tags.(base + w) = line then hit_way := w
  done;
  if !hit_way >= 0 then begin
    t.ages.(base + !hit_way) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    (* Evict the least recently used way. *)
    let victim = ref 0 in
    for w = 1 to t.ways - 1 do
      if t.ages.(base + w) < t.ages.(base + !victim) then victim := w
    done;
    t.tags.(base + !victim) <- line;
    t.ages.(base + !victim) <- t.clock;
    false
  end

let access_range t addr len =
  let first = addr / t.line_bytes and last = (addr + len - 1) / t.line_bytes in
  for line = first to last do
    ignore (access t (line * t.line_bytes))
  done

let stats t = { accesses = t.accesses; hits = t.hits; misses = t.accesses - t.hits }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.ages 0 (Array.length t.ages) 0;
  t.clock <- 0;
  t.accesses <- 0;
  t.hits <- 0

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0
