
type params = {
  capacity : float;
  c : float;
  k_prime : float;
}

let make_params ~capacity ~c ~k_prime =
  if not (capacity > 0.0) then invalid_arg "Kibam.make_params: capacity <= 0";
  if not (c > 0.0 && c < 1.0) then invalid_arg "Kibam.make_params: c outside (0,1)";
  if not (k_prime > 0.0) then invalid_arg "Kibam.make_params: k_prime <= 0";
  { capacity; c; k_prime }

let default_params = make_params ~capacity:40375.0 ~c:0.5 ~k_prime:0.05

type state = { available : float; bound : float }

let full p = { available = p.c *. p.capacity; bound = (1.0 -. p.c) *. p.capacity }

(* Manwell–McGowan closed form for one constant-current interval.  With
   y0 the total charge at interval start and r = e^{-k' t}:
     y1(t) = y1 r + (y0 k' c - I)(1 - r)/k' - I c (k' t - 1 + r)/k'
     y2(t) = y0 - I t - y1(t)                (charge conservation)
   A zero-length interval is the identity: the input state is returned
   as-is (same record, bit-identical wells), so degenerate intervals
   from same-column repoints cannot introduce drift. *)
let step p ({ available = y1; bound = y2 } as st) ~current ~duration =
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

let sigma ?(params = default_params) profile ~at =
  let st = state_at params profile ~at in
  params.capacity -. (st.available /. params.c)

(* Suffix-time decomposition.  The per-interval affine maps above are
   simultaneously diagonalizable: total charge y0 = y1 + y2 follows
   y0' = y0 - I D (eigenvector (c, 1-c), eigenvalue 1), and the
   disequilibrium gamma = y1 - c y0 follows
     gamma' = r gamma - I (1-c)(1-r)/k'        with r = e^{-k' D}.
   A full battery starts at equilibrium (gamma = 0 exactly), so at the
   makespan of a gapless profile the recursion unrolls to a sum over
   intervals weighted by the product of the r's after each — i.e. by
   e^{-k' tail}.  Substituting into sigma = capacity - y1/c:

     sigma = sum_k [ I_k D_k
                     + ((1-c)/(c k')) I_k (1 - e^{-k' D_k}) e^{-k' tail_k} ]

   which is exactly the {!Model.incremental} contract: the charge
   integral plus a tail-weighted disequilibrium term.  A zero-duration
   interval contributes exactly 0 (the guard short-circuits; even
   without it, [1 -. exp 0.0] is exactly [0.]). *)
let incremental params =
  let k' = params.k_prime in
  let coef = (1.0 -. params.c) /. (params.c *. k') in
  { Model.term =
      (fun ~current ~duration ~tail ->
        if duration = 0.0 then 0.0
        else
          (current *. duration)
          +. (coef *. current
              *. (1.0 -. exp (-.k' *. duration))
              *. exp (-.k' *. tail)));
    tail_sensitive = true }

(* The eigen-split above is already a one-channel decay decomposition:
   the disequilibrium term relaxes at rate k' whatever follows the
   interval (rest included — zero current forces nothing), so the
   suffix-time identity extends verbatim to gapped profiles and to
   {!Periodic}'s repeated-cycle telescoping. *)
let decay params =
  let k' = params.k_prime in
  let coef = (1.0 -. params.c) /. (params.c *. k') in
  { Model.rates = [| k' |];
    weights =
      (fun ~current ~duration buf ->
        buf.(0) <- coef *. current *. (1.0 -. exp (-.k' *. duration)));
    charge = (fun ~current ~duration -> current *. duration) }

let model ?(params = default_params) () =
  { Model.name = "kibam"; sigma = (fun p ~at -> sigma ~params p ~at);
    incremental = Some (incremental params);
    stepper = None;
    decay = Some (decay params) }
