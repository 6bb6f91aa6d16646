(** Compensated (Kahan–Neumaier) floating-point summation.

    The Rakhmatov–Vrudhula charge function sums many exponential terms of
    widely varying magnitude; naive accumulation loses precision for long
    discharge profiles.  This module provides a small accumulator that
    keeps a running compensation term. *)

type t
(** A summation accumulator.  Immutable; [add] returns a new accumulator. *)

val zero : t
(** The empty sum. *)

val create : float -> t
(** [create x] is an accumulator holding exactly [x]. *)

val add : t -> float -> t
(** [add acc x] adds [x] to the running sum with Neumaier compensation. *)

val sum : t -> float
(** [sum acc] is the compensated value of the accumulated sum. *)

val sum_list : float list -> float
(** [sum_list xs] is the compensated sum of [xs]. *)

val sum_array : float array -> float
(** [sum_array xs] is the compensated sum of [xs]. *)

val sum_fn : int -> (int -> float) -> float
(** [sum_fn n f] is the compensated sum of [f 0 + ... + f (n-1)].
    Each [f i] returns its term boxed (2 minor words), as any float
    returned by a closure or by another module's function is; hot
    loops hand their terms to {!Acc.add_at} instead.
    @raise Invalid_argument if [n < 0]. *)

(** Mutable accumulator for allocation-sensitive inner loops.  The
    record is flat (all-float fields), so an add builds no record — the
    immutable {!t} above boxes a fresh one per [add].  Same Neumaier
    compensation, operation for operation. *)
module Acc : sig
  type t

  val create : unit -> t

  val reset : t -> unit
  (** Zero the accumulator for reuse. *)

  val add : t -> float -> unit

  val add_at : t -> float array -> int -> unit
  (** [add_at a xs i] is [add a xs.(i)].  A float passed to a function
      of another module is boxed (2 minor words); a loop elsewhere that
      hands its terms over in a float array cell allocates nothing per
      term. *)

  val sum : t -> float
  (** Compensated value accumulated since the last {!reset}. *)
end
