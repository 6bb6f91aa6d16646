(** Leveled logging facade for library code.

    Library modules must never write to the terminal unconditionally;
    they log through this facade, which is {e quiet by default} — an
    embedding application (or [basched --verbose]) opts in by raising
    the level.  Messages are thunks, so a disabled level costs one
    atomic read and a comparison: no formatting, no allocation.

    Output goes to [stderr] by default; {!set_output} redirects it
    (used by tests, or to bridge into a host application's logger). *)

type level = Quiet | Error | Warn | Info | Debug

val set_level : level -> unit
(** Messages at severities above the set level are dropped.  [Quiet]
    (the default) drops everything. *)

val set_output : (string -> unit) -> unit
(** Replace the line consumer (default: write to [stderr] and flush).
    The consumer receives complete, already-prefixed lines. *)

val init_from_env : unit -> unit
(** Apply [BATSCHED_LOG] (["quiet"], ["error"], ["warn"], ["info"] or
    ["debug"]) if set; warns on stderr for an unrecognized value.
    {!Session.start} calls this, so cram tests and CI can raise the
    level without flags. *)

val debug : (unit -> string) -> unit
(** [debug (fun () -> ...)] — the thunk is only forced when the level
    admits the message. *)
