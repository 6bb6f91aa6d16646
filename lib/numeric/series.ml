let default_terms = 10

let check_beta beta =
  if not (beta > 0.0) then invalid_arg "Series: beta must be positive"

let check_terms terms =
  if terms <= 0 then invalid_arg "Series: terms must be positive"

(* [buf.(i) <- F(buf.(i))] for the truncated series F.  The sum is
   [Kahan.sum_fn]'s, operation for operation, with its running pair in
   local variables and no closure per term, and the argument and
   result travel through [buf]: a float passed to or returned by a
   function that is not inlined is boxed.  Nothing is allocated.  The
   Neumaier step is spelled out here, not taken from [Kahan.Acc]: an
   accumulator and its boxed sum cost 5 words per memo miss, 2,100 of
   the ~50,000 a cold 126-task solve allocates. *)
let exp_sum_at ~terms ~beta buf i =
  let t = buf.(i) in
  let b2 = beta *. beta in
  let total = ref 0.0 and comp = ref 0.0 in
  for k = 0 to terms - 1 do
    let m = float_of_int (k + 1) in
    let m2 = m *. m in
    let x = exp (-.b2 *. m2 *. t) /. (b2 *. m2) in
    let s = !total +. x in
    comp :=
      !comp
      +. (if Float.abs !total >= Float.abs x then (!total -. s) +. x
          else (x -. s) +. !total);
    total := s
  done;
  buf.(i) <- 2.0 *. (!total +. !comp)

(* Memoized one-sided tails.  [kernel ~beta a b] telescopes as
   [F(a) - F(b)] over the one-sided tail F, so one memo table over F
   values shares endpoint evaluations: back-to-back profile intervals reuse
   each boundary twice, and the thousands of near-identical
   evaluations a window sweep makes hit the table directly.  The memo
   is an {!Fcache} keyed on (beta, terms-as-float, t) — a lookup hashes
   the raw float words, allocates nothing, and old entries expire half
   a table at a time instead of the former [Hashtbl.reset] cliff.  The
   table is domain-local (no locking, safe under [Pool] fan-out). *)
let cache : Fcache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Fcache.create ~label:"series-f" ~arity:3 ())

(* [buf.(i) <- F(buf.(i))] through the memo, allocating nothing. *)
let cached_at ~terms ~beta buf i =
  let t = buf.(i) in
  let tbl = Domain.DLS.get cache in
  let key = Fcache.key tbl in
  key.(0) <- beta;
  key.(1) <- float_of_int terms;
  key.(2) <- t;
  let probe = Probe.local () in
  if Fcache.find_into tbl buf i then
    probe.Probe.fmemo_hits <- probe.Probe.fmemo_hits + 1
  else begin
    probe.Probe.fmemo_misses <- probe.Probe.fmemo_misses + 1;
    exp_sum_at ~terms ~beta buf i;
    Fcache.add_from tbl buf i
  end

(* The tail at [b] is looked up before the one at [a].  The order
   fixes where each entry lands in the memo, and so the probe lengths
   that [--stats] reports. *)
let kernel_at ~terms ~beta buf i =
  check_beta beta;
  check_terms terms;
  let a = buf.(i) and b = buf.(i + 1) in
  if not (a >= 0.0 && b >= a) then
    invalid_arg "Series.kernel: need 0 <= a <= b";
  if a = b then buf.(i) <- 0.0
  else begin
    cached_at ~terms ~beta buf (i + 1);
    cached_at ~terms ~beta buf i;
    (* F is strictly decreasing, so the difference is >= 0 up to
       rounding; clamp the few-ulp negatives away. *)
    buf.(i) <- Float.max 0.0 (buf.(i) -. buf.(i + 1))
  end

let kernel ?(terms = default_terms) ~beta a b =
  let buf = [| a; b |] in
  kernel_at ~terms ~beta buf 0;
  buf.(0)
