
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

(* Suffix-time decomposition of the two-well model.  Manwell–McGowan's
   closed form for one constant-current interval, with y0 = y1 + y2 the
   total charge at interval start and r = e^{-k' t}:
     y1(t) = y1 r + (y0 k' c - I)(1 - r)/k' - I c (k' t - 1 + r)/k'
     y2(t) = y0 - I t - y1(t)                (charge conservation)
   These per-interval affine maps are simultaneously diagonalizable:
   total charge follows y0' = y0 - I D (eigenvector (c, 1-c),
   eigenvalue 1), and the disequilibrium gamma = y1 - c y0 follows
     gamma' = r gamma - I (1-c)(1-r)/k'        with r = e^{-k' D}.
   A full battery starts at equilibrium (gamma = 0 exactly), so at the
   makespan of a gapless profile the recursion unrolls to a sum over
   intervals weighted by the product of the r's after each — i.e. by
   e^{-k' tail}.  Substituting into sigma = capacity - y1/c:

     sigma = sum_k [ I_k D_k
                     + ((1-c)/(c k')) I_k (1 - e^{-k' D_k}) e^{-k' tail_k} ]

   which is exactly the {!Model.channels} contract: the charge
   integral plus a tail-weighted disequilibrium term.  A zero-duration
   interval contributes exactly 0 (the guard short-circuits; even
   without it, [1 -. exp 0.0] is exactly [0.]).

   The eigen-split is a one-channel decomposition: the disequilibrium
   term relaxes at rate k' whatever follows the interval (rest
   included — zero current forces nothing), so the suffix-time
   identity extends verbatim to gapped profiles, to any observation
   instant and to {!Periodic}'s repeated-cycle telescoping.  It is the
   model's sigma, not an approximation of it; the tests check it
   against the two-well integration. *)
let channels params =
  let k' = params.k_prime in
  let coef = (1.0 -. params.c) /. (params.c *. k') in
  { Model.term =
      (fun buf j ->
        let current = buf.(j) and duration = buf.(j + 1) in
        let tail = buf.(j + 2) in
        buf.(j) <-
          (if duration = 0.0 then 0.0
           else
             (current *. duration)
             +. (coef *. current
                 *. (1.0 -. exp (-.k' *. duration))
                 *. exp (-.k' *. tail))));
    rates = [| k' |];
    weights =
      (fun ~current ~duration buf ->
        buf.(0) <- coef *. current *. (1.0 -. exp (-.k' *. duration)));
    charge = (fun ~current ~duration -> current *. duration) }

let model ?(params = default_params) () =
  { Model.name = "kibam"; kernel = Model.Channels (channels params) }
