(** Incremental JSONL reader tolerating torn tails.

    Feeds of arbitrary byte chunks are framed on newlines; bytes after
    the last newline stay buffered until their line completes, so a
    file being appended to (or truncated by a mid-run kill) never
    raises.  Complete lines that fail to parse are skipped and counted
    — the count is the caller's warning signal. *)

type t

val create : unit -> t

val feed : t -> string -> Json.t list
(** [feed t chunk] consumes the next bytes and returns the records
    whose lines completed within them, in order. *)

val finish : t -> Json.t list
(** Declare end-of-input: parses a buffered newline-less final line if
    it is complete JSON, otherwise counts it as torn.  The tailer is
    reusable afterwards (the buffer is drained either way). *)

val bad : t -> int
(** Lines skipped so far (torn tail or corrupt). *)

val read_file : string -> Json.t list * int
(** One-shot lenient read: [(records, skipped)].  Never raises on a
    truncated tail.
    @raise Sys_error if the file cannot be opened. *)
