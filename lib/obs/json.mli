(** Minimal JSON reader for our own exporters' output.

    Covers exactly the grammar the repo's hand-rolled emitters produce
    (bench [--json] snapshots, Chrome traces, JSONL event streams):
    objects, arrays, strings with standard escapes, numbers,
    [true]/[false]/[null].  [\u] escapes are validated but decoded to
    ['?'] — no exporter emits them.  Not a general-purpose JSON
    library and not tolerant of extensions (comments, trailing
    commas). *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Bad_json of string
(** Raised with a byte offset on malformed input. *)

val max_depth : int
(** Deepest nesting of arrays and objects {!parse} accepts (256). *)

val parse : string -> t
(** Parse one complete JSON value; trailing garbage is an error, and
    so is nesting deeper than {!max_depth}.
    @raise Bad_json on malformed input. *)

val field : string -> t -> t option
(** [field name j] looks up a member when [j] is an object. *)

val to_num : t -> float option

val to_str : t -> string option

val num_field : string -> t -> float option

val str_field : string -> t -> string option

val bool_field : string -> t -> bool option

val of_file : string -> t
(** Read and parse a whole file.
    @raise Bad_json or [Sys_error]. *)

val of_jsonl_file : string -> t list
(** Read a JSON-Lines file: one value per nonempty line. *)

val add_number : Buffer.t -> float -> unit
(** Append a float that reads back bit-exactly: the compact [%.12g]
    unless that loses ulps, then [%.17g], with [.0] added to an
    integral rendering so it stays a float.  Non-finite values are
    written as [null]. *)

val escape_string : string -> string
(** Escape a string's contents for embedding between double quotes in
    JSON output (quotes not included). *)
