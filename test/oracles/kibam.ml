module Kibam = Batsched_battery.Kibam

type state = { available : float; bound : float }

let full (p : Kibam.params) =
  { available = p.c *. p.capacity; bound = (1.0 -. p.c) *. p.capacity }

(* Manwell–McGowan closed form for one constant-current interval.  With
   y0 the total charge at interval start and r = e^{-k' t}:
     y1(t) = y1 r + (y0 k' c - I)(1 - r)/k' - I c (k' t - 1 + r)/k'
     y2(t) = y0 - I t - y1(t)                (charge conservation)
   A zero-length interval is the identity: the input state is returned
   as-is (same record, bit-identical wells). *)
let step (p : Kibam.params) ({ available = y1; bound = y2 } as st) ~current
    ~duration =
  if current < 0.0 then invalid_arg "Kibam.step: negative current";
  if duration < 0.0 then invalid_arg "Kibam.step: negative duration";
  if duration = 0.0 then st
  else begin
    let k' = p.k_prime in
    let y0 = y1 +. y2 in
    let r = exp (-.k' *. duration) in
    let y1' =
      (y1 *. r)
      +. ((y0 *. k' *. p.c) -. current) *. (1.0 -. r) /. k'
      -. (current *. p.c *. ((k' *. duration) -. 1.0 +. r) /. k')
    in
    { available = y1'; bound = y0 -. (current *. duration) -. y1' }
  end

let state_at p profile ~at =
  if at < 0.0 then invalid_arg "Kibam.state_at: negative time";
  let clipped = Profile.truncate profile ~at in
  let advance (state, clock) (iv : Profile.interval) =
    (* idle gap before this interval, then the interval itself *)
    let rested =
      if iv.Profile.start > clock then
        step p state ~current:0.0 ~duration:(iv.Profile.start -. clock)
      else state
    in
    let after = step p rested ~current:iv.Profile.current ~duration:iv.Profile.duration in
    (after, iv.Profile.start +. iv.Profile.duration)
  in
  let state, clock =
    List.fold_left advance (full p, 0.0) (Profile.intervals clipped)
  in
  if at > clock then step p state ~current:0.0 ~duration:(at -. clock) else state

let sigma_reference ?(params = Kibam.default_params) profile ~at =
  let st = state_at params profile ~at in
  params.capacity -. (st.available /. params.c)
