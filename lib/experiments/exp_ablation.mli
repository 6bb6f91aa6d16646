(** Extension experiment: ablation of the suitability objective.

    The paper asserts that all five terms of B = SR + CR + ENR + CIF +
    DPF matter but never isolates them.  This experiment knocks each
    term out in turn (weight 0) and re-runs the full algorithm on the
    published instances, reporting the sigma degradation (negative
    values mean the knockout accidentally helped — informative too). *)

val name : string

type row = {
  knockout : string;  (** "none", "SR", "CR", "ENR", "CIF", "DPF" *)
  graph : string;
  deadline : float;
  sigma : float;
  delta_pct : float;  (** vs the full objective, positive = worse *)
}

val run : unit -> string
