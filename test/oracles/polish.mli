(** Reference for [Batsched.Polish]. *)

val two_swap :
  ?max_rounds:int -> Batsched.Config.t -> Batsched_taskgraph.Graph.t ->
  Batsched_sched.Schedule.t -> Batsched_sched.Schedule.t
(** The seed's pass: every candidate swap pays an O(n+e) topological
    check, a schedule construction and a full sigma evaluation.  Same
    first-improvement sweep and window re-fit as the shipped pass, which
    costs candidates on the incremental evaluator; results agree up to
    sigma round-off, which the 1e-9 improvement margin absorbs.  It
    emits no events and opens no span. *)

val polish :
  ?max_rounds:int -> Batsched.Config.t -> Batsched_taskgraph.Graph.t ->
  Batsched.Iterate.result -> Batsched.Iterate.result
(** {!two_swap} applied to an iterative result, as the shipped
    [polish] applies its own pass. *)
