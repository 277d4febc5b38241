type t = {
  tile_size : int;
  ids : (Shape.t, int) Hashtbl.t;
  mutable shapes : Shape.t array;  (* indexed by id *)
  mutable rows : int array array;  (* indexed by id *)
  mutable count : int;
}

let create ~tile_size =
  if tile_size < 1 || tile_size > 8 then
    invalid_arg "Lut.create: tile_size must be within 1..8";
  {
    tile_size;
    ids = Hashtbl.create 64;
    shapes = Array.make 8 (Shape.Node (None, None));
    rows = Array.make 8 [||];
    count = 0;
  }

let tile_size t = t.tile_size

let compute_row t shape =
  let idx = Shape.index shape in
  Array.init (1 lsl t.tile_size) (fun bits ->
      Shape.navigate_index idx ~tile_size:t.tile_size ~bits)

let shape_id t shape =
  match Hashtbl.find_opt t.ids shape with
  | Some id -> id
  | None ->
    if Shape.size shape > t.tile_size then
      invalid_arg "Lut.shape_id: shape larger than tile size";
    let id = t.count in
    if id >= Array.length t.shapes then begin
      let grow a fill =
        let b = Array.make (2 * Array.length a) fill in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      t.shapes <- grow t.shapes (Shape.Node (None, None));
      t.rows <- grow t.rows [||]
    end;
    t.shapes.(id) <- shape;
    t.rows.(id) <- compute_row t shape;
    t.count <- id + 1;
    Hashtbl.add t.ids shape id;
    id

let shape_of_id t id =
  if id < 0 || id >= t.count then invalid_arg "Lut.shape_of_id: bad id";
  t.shapes.(id)

let num_shapes t = t.count

let lookup t ~shape_id ~bits = t.rows.(shape_id).(bits)

let row t ~shape_id =
  if shape_id < 0 || shape_id >= t.count then invalid_arg "Lut.row: bad id";
  t.rows.(shape_id)

let table t = Array.sub t.rows 0 t.count

let memory_bytes t = t.count * (1 lsl t.tile_size) * 2
