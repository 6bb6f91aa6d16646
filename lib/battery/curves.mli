(** Discharge-curve tabulation and the classic nonlinear-battery
    demonstrations (rate-capacity and recovery effects).

    These drive the "curves" supporting experiment: they show that the
    substrate battery model really exhibits the two effects the paper's
    heuristic exploits. *)

val sigma_curve :
  model:Model.t -> Profile.t -> n:int -> (float * float) list
(** [sigma_curve ~model p ~n] samples [T -> sigma(T)] at [n] evenly
    spaced points of [[0, length p]], as [(T, sigma)] pairs in
    increasing [T]; the last [T] is exactly [length p].
    @raise Invalid_argument if [n < 2] or the profile is empty. *)

type rate_capacity_point = {
  current : float;        (** constant load, mA *)
  lifetime : float;       (** minutes until exhaustion *)
  delivered : float;      (** current * lifetime, mA*min *)
  efficiency : float;     (** delivered / alpha, in (0, 1] *)
}

val rate_capacity :
  cell:Cell.t -> currents:float list -> rate_capacity_point list
(** For each constant load, the lifetime and the fraction of the rated
    capacity actually delivered — higher loads deliver less (the
    rate-capacity effect).
    @raise Invalid_argument on non-positive currents. *)

type recovery_point = {
  idle : float;           (** inserted rest, minutes *)
  sigma_end : float;      (** apparent charge lost at completion *)
  recovered : float;      (** sigma(no rest) - sigma_end, >= 0 *)
}

val recovery :
  cell:Cell.t -> current:float -> burst:float -> idles:float list ->
  recovery_point list
(** Two [burst]-minute pulses of [current], separated by each idle gap
    in turn; reports the capacity recovered relative to back-to-back
    execution.  Demonstrates the recovery effect.
    @raise Invalid_argument on non-positive [current] or [burst], or
    negative idles. *)

val ordering_gap :
  cell:Cell.t -> (float * float) list -> float * float
(** [ordering_gap ~cell tasks] runs the task multiset
    [(current, duration) list] once in non-increasing and once in
    non-decreasing current order and returns
    [(sigma_decreasing, sigma_increasing)].  Per the theorem cited in
    the paper's Sec. 3, decreasing order is never worse. *)
