type level = Quiet | Error | Warn | Info | Debug

let severity = function
  | Quiet -> 0
  | Error -> 1
  | Warn -> 2
  | Info -> 3
  | Debug -> 4

let label = function
  | Quiet -> "quiet"
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let of_string = function
  | "quiet" -> Some Quiet
  | "error" -> Some Error
  | "warn" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let current = Atomic.make Quiet

let set_level l = Atomic.set current l

let enabled l = l <> Quiet && severity l <= severity (Atomic.get current)

let default_output line =
  prerr_string line;
  prerr_newline ();
  flush stderr

let output = Atomic.make default_output

let set_output f = Atomic.set output f

let log l msg =
  if enabled l then
    (Atomic.get output) (Printf.sprintf "basched: [%s] %s" (label l) (msg ()))

(* Environment hooks: cram tests and CI want telemetry without
   plumbing flags through every harness.  Unknown BATSCHED_LOG values
   are reported (at the requested-by-accident cost of one stderr line)
   rather than silently ignored. *)
let init_from_env () =
  match Sys.getenv_opt "BATSCHED_LOG" with
  | None | Some "" -> ()
  | Some s -> (
      match of_string s with
      | Some l -> set_level l
      | None ->
          default_output
            (Printf.sprintf "basched: [warn] BATSCHED_LOG=%s not a level" s))

let debug msg = log Debug msg
