(** Minimal JSON reader/writer.

    Used for model serialization (Treebeard's input is a serialized
    ensemble). Supports the full JSON grammar except for surrogate escape
    pairs; numbers are parsed as OCaml floats, with an integer accessor for
    whole values.

    Two readers share one lexer, {!Cursor}: {!of_string} builds a DOM,
    and a schema reader (such as [Tb_model.Serialize.of_string]) pulls
    the values it expects straight into its own types. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised on malformed input, with a position message ["at N: ..."], and
    by the accessors below on a schema mismatch. *)

val of_string : string -> t
(** Parse a JSON document. Object members keep their order, duplicates
    included. @raise Parse_error on malformed input. *)

val to_string : ?indent:bool -> t -> string
(** Serialize; [indent] pretty-prints with two-space indentation. *)

(** {2 Accessors} — raise [Parse_error] with a descriptive message when the
    structure does not match, so loaders fail loudly on schema drift. *)

val member : string -> t -> t
(** The first member with this key. *)

val to_float : t -> float
val to_int : t -> int
val to_str : t -> string
val to_list : t -> t list
val to_bool : t -> bool

(** {2 Pull reader}

    A cursor over a source string that lexes one value at a time, so a
    reader that knows its schema builds no {!t}. Every function that
    reads a value skips the whitespace before it. Every function raises
    {!Parse_error}, with the byte offset, on malformed input or on a value
    of another type than it reads; the cursor's position is then
    unspecified.

    A number is the maximal run of the bytes [0-9+-.eE] that starts with
    [-] or a digit, converted by [float_of_string] — exactly as
    {!of_string} reads it.

    Objects and lists are read by entering them and then stepping through
    their members:
    {[
      Cursor.enter_object c;
      while Cursor.next_field c do
        match Cursor.field_index c keys with
        | 0 -> ... (* read the value of keys.(0) *)
        | _ -> Cursor.skip c
      done
    ]} *)
module Cursor : sig
  type t

  val of_string : string -> t
  (** A cursor at the start of the string. *)

  val pos : t -> int
  (** Byte offset of the cursor. *)

  val seek : t -> int -> unit
  (** Move back to an offset returned by {!pos}, such as the start of a
      value to read again. *)

  val error : t -> string -> 'a
  (** Raise {!Parse_error} at the cursor's offset. *)

  val peek : t -> char
  (** Skip whitespace and return the first byte of the next value without
      consuming it, or ['\000'] at the end of input. *)

  val enter_object : t -> unit
  (** Consume the [{] that opens an object. *)

  val next_field : t -> bool
  (** Step to the next member of the innermost object being read: [true]
      when a member follows (read it with {!field_index}, then its value),
      [false] once the closing [}] is consumed. *)

  val field_index : t -> string array -> int
  (** Read a member's key and its [:]; return the index of the key in
      [keys], or [-1] for any other key. Keys without escapes are compared
      in place, with no allocation. *)

  val enter_list : t -> unit
  (** Consume the [\[] that opens a list. *)

  val next_item : t -> bool
  (** Like {!next_field} for the innermost list: [true] when an element
      follows, [false] once the closing [\]] is consumed. *)

  val float : t -> float
  (** A number. *)

  val int : t -> int
  (** A number with an integral value, read exactly as {!to_int} would
      read it. Plain decimals of at most 15 digits are read without
      [float_of_string]. *)

  val string : t -> string
  (** A string, with its escapes decoded. *)

  val skip : t -> unit
  (** Read and discard one value of any type, checking it as
      {!of_string} would. *)

  val finish : t -> unit
  (** Check that only whitespace is left. *)
end
