module Json = Tb_util.Json

type span = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  arg : string;
  tid : int;
  start_ns : float;
  end_ns : float;
}

type agg = { mutable total_us : float }

let capacity = 50_000

type state = {
  mutable on : bool;
  mutable stored : span array;
  mutable next_id : int;
  mutable closed : int;
  (* Open spans, innermost last: their ids and the time their already
     closed children covered. *)
  stack_ids : int array;
  stack_child_ns : float array;
  mutable depth : int;
  by_name : (string, agg) Hashtbl.t;
  by_layer : (string, agg) Hashtbl.t;
}

let max_depth = 256

let dummy =
  {
    id = -1;
    parent = -1;
    name = "";
    cat = "";
    arg = "";
    tid = 0;
    start_ns = 0.0;
    end_ns = 0.0;
  }

let st =
  {
    on = false;
    stored = [||];
    next_id = 0;
    closed = 0;
    stack_ids = Array.make max_depth 0;
    stack_child_ns = Array.make max_depth 0.0;
    depth = 0;
    by_name = Hashtbl.create 64;
    by_layer = Hashtbl.create 16;
  }

let reset () =
  st.on <- false;
  st.stored <- [||];
  st.next_id <- 0;
  st.closed <- 0;
  st.depth <- 0;
  Hashtbl.reset st.by_name;
  Hashtbl.reset st.by_layer

let set_enabled b = st.on <- b
let enabled () = st.on

let bump tbl key us =
  match Hashtbl.find_opt tbl key with
  | Some a -> a.total_us <- a.total_us +. us
  | None -> Hashtbl.add tbl key { total_us = us }

let store s =
  if s.id < capacity then begin
    if s.id >= Array.length st.stored then begin
      let size =
        min capacity (max (s.id + 1) (max 1024 (2 * Array.length st.stored)))
      in
      let bigger = Array.make size dummy in
      Array.blit st.stored 0 bigger 0 (Array.length st.stored);
      st.stored <- bigger
    end;
    st.stored.(s.id) <- s
  end

let close ~id ~parent ~arg ~cat name start_ns =
  let end_ns = Clock.now_ns () in
  let dur = end_ns -. start_ns in
  st.depth <- st.depth - 1;
  let self = dur -. st.stack_child_ns.(st.depth) in
  if st.depth > 0 then
    st.stack_child_ns.(st.depth - 1) <- st.stack_child_ns.(st.depth - 1) +. dur;
  st.closed <- st.closed + 1;
  bump st.by_name name (dur /. 1e3);
  bump st.by_layer cat (self /. 1e3);
  store
    {
      id;
      parent;
      name;
      cat;
      arg;
      tid = (Domain.self () :> int);
      start_ns;
      end_ns;
    }

let with_ ?(arg = "") ~cat name f =
  if not st.on then f ()
  else begin
    if st.depth = max_depth then failwith "Span.with_: spans nested too deep";
    let id = st.next_id in
    st.next_id <- id + 1;
    let parent = if st.depth = 0 then -1 else st.stack_ids.(st.depth - 1) in
    st.stack_ids.(st.depth) <- id;
    st.stack_child_ns.(st.depth) <- 0.0;
    st.depth <- st.depth + 1;
    let start_ns = Clock.now_ns () in
    match f () with
    | v ->
      close ~id ~parent ~arg ~cat name start_ns;
      v
    | exception e ->
      close ~id ~parent ~arg ~cat name start_ns;
      raise e
  end

let spans () =
  let n = min st.next_id (Array.length st.stored) in
  Array.sub st.stored 0 n |> Array.to_list
  |> List.filter (fun s -> s.id >= 0)
  |> Array.of_list

let closed () = st.closed

let totals_us () = Hashtbl.fold (fun k a acc -> (k, a.total_us) :: acc) st.by_name []

let self_us_by_layer () =
  Hashtbl.fold (fun k a acc -> (k, a.total_us) :: acc) st.by_layer []
  |> List.sort compare

let well_nested spans =
  let by_id = Hashtbl.create (Array.length spans) in
  Array.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let inside_parent s =
    s.start_ns <= s.end_ns
    &&
    match Hashtbl.find_opt by_id s.parent with
    | None -> s.parent = -1
    | Some p -> p.tid = s.tid && p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
  in
  let siblings = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      let key = (s.tid, s.parent) in
      Hashtbl.replace siblings key
        (s :: Option.value ~default:[] (Hashtbl.find_opt siblings key)))
    spans;
  let disjoint group =
    let sorted = List.sort (fun a b -> Float.compare a.start_ns b.start_ns) group in
    let rec ok = function
      | a :: (b :: _ as rest) -> a.end_ns <= b.start_ns && ok rest
      | [] | [ _ ] -> true
    in
    ok sorted
  in
  Array.for_all inside_parent spans
  && Hashtbl.fold (fun _ g acc -> acc && disjoint g) siblings true

let to_chrome ?(extra = []) spans =
  let t0 =
    Array.fold_left (fun acc s -> Float.min acc s.start_ns) infinity spans
  in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.cat);
        ("ph", Json.Str "X");
        ("ts", Json.Num ((s.start_ns -. t0) /. 1e3));
        ("dur", Json.Num ((s.end_ns -. s.start_ns) /. 1e3));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int s.tid));
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("arg", Json.Str s.arg);
            ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event (Array.to_list spans) @ extra));
      ("displayTimeUnit", Json.Str "ms");
    ]
