(** Terminal dashboard state for [basched watch].

    The state is a pure fold over event records: no wall-clock reads,
    no dependence on how the byte stream was chunked.  Tailing a live
    file and replaying the finished file therefore reach identical
    states, and {!summary} prints the same final report either way —
    the property the watch tests pin down. *)

type t

val empty : t

val feed_all : t -> Json.t list -> t

val note_skipped : t -> int -> t
(** Record [n] torn/unparseable lines reported by the tailer. *)

val finished : t -> bool
(** Whether a terminal record ([run_done]) has been seen. *)

val summary : t -> string
(** Plain-text final report — identical for live and replay. *)

val render : ?width:int -> t -> string
(** One ANSI frame (cursor home + clear-to-end; no full clear, so the
    repaint does not flicker).  Hand-rolled escapes, no curses. *)
