type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at %d: %s" pos msg))

(* ------------------------------------------------------------------ *)
(* Pull reader                                                         *)
(* ------------------------------------------------------------------ *)

module Cursor = struct
  type t = {
    src : string;
    mutable pos : int;
    mutable first : bool;
        (* set on entering a container, cleared by its first
           [next_field]/[next_item]: a nested container always ends with
           it cleared, so one flag serves every depth *)
    buf : Buffer.t;  (* decoded string bodies *)
  }

  let of_string src = { src; pos = 0; first = false; buf = Buffer.create 16 }
  let pos c = c.pos
  let seek c pos = c.pos <- pos
  let error c msg = fail c.pos msg

  let skip_ws c =
    let s = c.src and n = String.length c.src in
    let i = ref c.pos in
    while
      !i < n
      && match String.unsafe_get s !i with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      incr i
    done;
    c.pos <- !i

  (* The byte at the cursor, or NUL at the end of input: no value starts
     with NUL, so both read as "unexpected". *)
  let[@inline] byte c =
    if c.pos < String.length c.src then String.unsafe_get c.src c.pos
    else '\000'

  let peek c =
    skip_ws c;
    byte c

  let unexpected c =
    if c.pos >= String.length c.src then error c "unexpected end of input"
    else error c (Printf.sprintf "unexpected %C" (byte c))

  let expect c ch =
    if byte c = ch then c.pos <- c.pos + 1
    else error c (Printf.sprintf "expected %C" ch)

  (* Called at the first byte of a value, for a value of the wrong type. *)
  let type_error c want =
    let got =
      match byte c with
      | '{' -> "object"
      | '[' -> "list"
      | '"' -> "string"
      | 't' | 'f' -> "bool"
      | 'n' -> "null"
      | '-' | '0' .. '9' -> "number"
      | _ -> unexpected c
    in
    error c (Printf.sprintf "expected %s, got %s" want got)

  let rec same_bytes s i w j =
    j = String.length w
    || String.unsafe_get s (i + j) = String.unsafe_get w j
       && same_bytes s i w (j + 1)

  let literal c word =
    if
      c.pos + String.length word <= String.length c.src
      && same_bytes c.src c.pos word 0
    then c.pos <- c.pos + String.length word
    else error c (Printf.sprintf "expected %s" word)

  (* Decodes the escape whose backslash is at [i - 1]; returns the index
     after it. *)
  let escape c i =
    let s = c.src and buf = c.buf in
    let add ch = Buffer.add_char buf ch; i + 1 in
    if i >= String.length s then fail i "bad escape"
    else
      match s.[i] with
      | 'n' -> add '\n'
      | 't' -> add '\t'
      | 'r' -> add '\r'
      | 'b' -> add '\b'
      | 'f' -> add '\012'
      | '"' -> add '"'
      | '\\' -> add '\\'
      | '/' -> add '/'
      | 'u' ->
        let i = i + 1 in
        if i + 4 > String.length s then fail i "bad \\u escape";
        let code =
          try int_of_string ("0x" ^ String.sub s i 4)
          with Failure _ -> fail i "bad \\u escape"
        in
        (* Encode the code point as UTF-8 (BMP only; no surrogate pairs). *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end;
        i + 4
      | _ -> fail i "bad escape"

  (* Copies a string body into [c.buf] up to its closing quote, decoding
     escapes: [start] is the first byte not yet copied, [i] the byte being
     scanned. Leaves the cursor past the quote. *)
  let rec string_chunk c start i =
    if i >= String.length c.src then fail i "unterminated string"
    else
      match String.unsafe_get c.src i with
      | '"' ->
        Buffer.add_substring c.buf c.src start (i - start);
        c.pos <- i + 1
      | '\\' ->
        Buffer.add_substring c.buf c.src start (i - start);
        let j = escape c (i + 1) in
        string_chunk c j j
      | _ -> string_chunk c start (i + 1)

  (* Called just past an opening quote. *)
  let string_body c =
    Buffer.clear c.buf;
    string_chunk c c.pos c.pos

  let string c =
    skip_ws c;
    if byte c <> '"' then type_error c "string";
    c.pos <- c.pos + 1;
    string_body c;
    Buffer.contents c.buf

  (* A number token is the maximal run of number bytes, converted by
     [float_of_string]: the token, not a JSON grammar, decides. *)
  let number_end c =
    let s = c.src and n = String.length c.src in
    let i = ref c.pos in
    while
      !i < n
      && match String.unsafe_get s !i with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr i
    done;
    !i

  let number c =
    let start = c.pos in
    let stop = number_end c in
    let text = String.sub c.src start (stop - start) in
    c.pos <- stop;
    match float_of_string text with
    | f -> f
    | exception Failure _ -> fail start (Printf.sprintf "bad number %S" text)

  let float c =
    match peek c with
    | '-' | '0' .. '9' -> number c
    | _ -> type_error c "number"

  (* Value of the decimal digits in [s.[i..stop)], or -1 if another byte
     is among them. *)
  let rec digits s i stop acc =
    if i = stop then acc
    else
      match String.unsafe_get s i with
      | '0' .. '9' as d -> digits s (i + 1) stop ((acc * 10) + Char.code d - 48)
      | _ -> -1

  let int c =
    match peek c with
    | '-' | '0' .. '9' ->
      let start = c.pos in
      let stop = number_end c in
      let lead = if String.unsafe_get c.src start = '-' then start + 1 else start in
      (* Up to 15 digits stay below 2^53, where [float_of_string] is exact:
         reading them directly gives the same integer. *)
      let v =
        if stop > lead && stop - lead <= 15 then digits c.src lead stop 0
        else -1
      in
      if v >= 0 then begin
        c.pos <- stop;
        if lead > start then -v else v
      end
      else
        let f = number c in
        if Float.is_integer f then int_of_float f
        else fail start (Printf.sprintf "expected integer, got %g" f)
    | _ -> type_error c "number"

  let enter c ch want =
    if peek c = ch then begin
      c.pos <- c.pos + 1;
      c.first <- true
    end
    else type_error c want

  let enter_object c = enter c '{' "object"
  let enter_list c = enter c '[' "list"

  let next c close =
    skip_ws c;
    if c.first then begin
      c.first <- false;
      if byte c = close then begin
        c.pos <- c.pos + 1;
        false
      end
      else true
    end
    else
      match byte c with
      | ',' ->
        c.pos <- c.pos + 1;
        true
      | ch when ch = close ->
        c.pos <- c.pos + 1;
        false
      | _ -> error c (Printf.sprintf "expected ',' or %C" close)

  let next_field c = next c '}'
  let next_item c = next c ']'

  let rec find_key s start len keys i =
    if i = Array.length keys then -1
    else
      let k = Array.unsafe_get keys i in
      if String.length k = len && same_bytes s start k 0 then i
      else find_key s start len keys (i + 1)

  let rec plain_end s i =
    if i >= String.length s then i
    else
      match String.unsafe_get s i with
      | '"' | '\\' -> i
      | _ -> plain_end s (i + 1)

  let field_index c keys =
    skip_ws c;
    expect c '"';
    let start = c.pos in
    let stop = plain_end c.src start in
    let k =
      if stop < String.length c.src && String.unsafe_get c.src stop = '"'
      then begin
        c.pos <- stop + 1;
        find_key c.src start (stop - start) keys 0
      end
      else begin
        (* Escapes: compare the decoded key. *)
        string_body c;
        let key = Buffer.contents c.buf in
        Option.value ~default:(-1) (Array.find_index (String.equal key) keys)
      end
    in
    skip_ws c;
    expect c ':';
    k

  let field_name c =
    skip_ws c;
    expect c '"';
    string_body c;
    let key = Buffer.contents c.buf in
    skip_ws c;
    expect c ':';
    key

  let rec skip c =
    match peek c with
    | '{' ->
      enter_object c;
      while next_field c do
        ignore (field_index c [||]);
        skip c
      done
    | '[' ->
      enter_list c;
      while next_item c do
        skip c
      done
    | '"' ->
      c.pos <- c.pos + 1;
      string_body c
    | 't' -> literal c "true"
    | 'f' -> literal c "false"
    | 'n' -> literal c "null"
    | '-' | '0' .. '9' -> ignore (number c)
    | _ -> unexpected c

  let finish c =
    skip_ws c;
    if c.pos <> String.length c.src then error c "trailing input"
end

let rec value c =
  match Cursor.peek c with
  | '{' ->
    Cursor.enter_object c;
    Obj (fields c [])
  | '[' ->
    Cursor.enter_list c;
    List (items c [])
  | '"' -> Str (Cursor.string c)
  | 't' -> Cursor.literal c "true"; Bool true
  | 'f' -> Cursor.literal c "false"; Bool false
  | 'n' -> Cursor.literal c "null"; Null
  | '-' | '0' .. '9' -> Num (Cursor.number c)
  | _ -> Cursor.unexpected c

and fields c acc =
  if Cursor.next_field c then
    let key = Cursor.field_name c in
    let v = value c in
    fields c ((key, v) :: acc)
  else List.rev acc

and items c acc =
  if Cursor.next_item c then
    let v = value c in
    items c (v :: acc)
  else List.rev acc

let of_string src =
  let c = Cursor.of_string src in
  let v = value c in
  Cursor.finish c;
  v

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let format_number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* %.17g round-trips any float. *)
    Printf.sprintf "%.17g" f

let to_string ?(indent = false) v =
  let buf = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (format_number f)
    | Str s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin Buffer.add_char buf ','; nl () end;
          pad (depth + 1);
          go (depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin Buffer.add_char buf ','; nl () end;
          pad (depth + 1);
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf (if indent then ": " else ":");
          go (depth + 1) item)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | List _ -> "list"
  | Obj _ -> "object"

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> raise (Parse_error (Printf.sprintf "missing field %S" key)))
  | v -> raise (Parse_error (Printf.sprintf "expected object, got %s" (type_name v)))

let to_float = function
  | Num f -> f
  | v -> raise (Parse_error (Printf.sprintf "expected number, got %s" (type_name v)))

let to_int v =
  let f = to_float v in
  if Float.is_integer f then int_of_float f
  else raise (Parse_error (Printf.sprintf "expected integer, got %g" f))

let to_str = function
  | Str s -> s
  | v -> raise (Parse_error (Printf.sprintf "expected string, got %s" (type_name v)))

let to_list = function
  | List items -> items
  | v -> raise (Parse_error (Printf.sprintf "expected list, got %s" (type_name v)))

let to_bool = function
  | Bool b -> b
  | v -> raise (Parse_error (Printf.sprintf "expected bool, got %s" (type_name v)))
