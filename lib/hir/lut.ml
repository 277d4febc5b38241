type t = {
  tile_size : int;
  ids : (int, int) Hashtbl.t;  (* shape code -> id *)
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

let intern t code shape_of_code =
  match Hashtbl.find_opt t.ids code with
  | Some id -> id
  | None ->
    let shape = shape_of_code code in
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
    t.rows.(id) <- Shape.exit_row shape ~tile_size:t.tile_size;
    t.count <- id + 1;
    Hashtbl.add t.ids code id;
    id

let shape_id_of_code t code = intern t code Shape.of_code
let shape_id t shape =
  (* Checked before coding: a shape of over 31 nodes has no int code. *)
  if Shape.size shape > t.tile_size then
    invalid_arg "Lut.shape_id: shape larger than tile size";
  intern t (Shape.code shape) (fun _ -> shape)

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
