(** Peukert's-law battery model.

    The empirical rate-capacity model used by earlier battery-aware
    schedulers (Luo & Jha, DAC 2001): drawing current [I] for time
    [Delta] consumes apparent charge [k * I^p * Delta] where [p > 1]
    penalizes high discharge rates.  [k] normalizes so that a chosen
    reference current behaves ideally: [k = I_ref^(1-p)].  Peukert's law
    captures rate capacity but — unlike Rakhmatov–Vrudhula — no
    recovery; included as a comparison model and for ablations. *)

val model : ?exponent:float -> ?reference_current:float -> unit -> Model.t
(** Packaged as a {!Model.t} named ["peukert"], with Peukert exponent
    [exponent] (default 1.2) and the [reference_current] (default
    100 mA) at which the model agrees with the ideal one: one term per
    interval, [k * I^p * Delta], and no channels.
    @raise Invalid_argument if [exponent < 1] or
    [reference_current <= 0]. *)
