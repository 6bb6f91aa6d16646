open Batsched_battery

type per_model = {
  mutable m_n : int;
  mutable m_censored : int;
  mutable m_total_cycles : int;
}

type t = {
  horizon : int;
  models : string array;
  deaths : int array;  (* deaths.(c) = devices whose lifetime is exactly c *)
  mutable n : int;
  mutable censored : int;
  mutable total_cycles : int;
  by_model : per_model array;
}

let create ~horizon ~models =
  if horizon < 1 then invalid_arg "Survival.create: horizon < 1";
  { horizon;
    models = Array.copy models;
    deaths = Array.make horizon 0;
    n = 0;
    censored = 0;
    total_cycles = 0;
    by_model =
      Array.init (Array.length models) (fun _ ->
          { m_n = 0; m_censored = 0; m_total_cycles = 0 }) }

let observe t ~model_index outcome =
  if model_index < 0 || model_index >= Array.length t.models then
    invalid_arg "Survival.observe: model index out of range";
  let pm = t.by_model.(model_index) in
  t.n <- t.n + 1;
  pm.m_n <- pm.m_n + 1;
  match outcome with
  | Periodic.Dies c ->
      if c < 0 || c >= t.horizon then
        invalid_arg "Survival.observe: death beyond the horizon";
      t.deaths.(c) <- t.deaths.(c) + 1;
      t.total_cycles <- t.total_cycles + c;
      pm.m_total_cycles <- pm.m_total_cycles + c
  | Periodic.Censored h ->
      if h <> t.horizon then
        invalid_arg "Survival.observe: foreign censoring horizon";
      t.censored <- t.censored + 1;
      t.total_cycles <- t.total_cycles + h;
      pm.m_censored <- pm.m_censored + 1;
      pm.m_total_cycles <- pm.m_total_cycles + h

let compatible a b =
  a.horizon = b.horizon
  && Array.length a.models = Array.length b.models
  && Array.for_all2 ( = ) a.models b.models

let merge ~into src =
  if not (compatible into src) then
    invalid_arg "Survival.merge: mismatched accumulators";
  for c = 0 to into.horizon - 1 do
    into.deaths.(c) <- into.deaths.(c) + src.deaths.(c)
  done;
  into.n <- into.n + src.n;
  into.censored <- into.censored + src.censored;
  into.total_cycles <- into.total_cycles + src.total_cycles;
  Array.iteri
    (fun i (pm : per_model) ->
      let dst = into.by_model.(i) in
      dst.m_n <- dst.m_n + pm.m_n;
      dst.m_censored <- dst.m_censored + pm.m_censored;
      dst.m_total_cycles <- dst.m_total_cycles + pm.m_total_cycles)
    src.by_model

let n t = t.n

let censored t = t.censored

let mean_cycles t =
  if t.n = 0 then Float.nan
  else float_of_int t.total_cycles /. float_of_int t.n

let per_model t =
  Array.mapi
    (fun i pm ->
      let mean =
        if pm.m_n = 0 then Float.nan
        else float_of_int pm.m_total_cycles /. float_of_int pm.m_n
      in
      (t.models.(i), pm.m_n, pm.m_censored, mean))
    t.by_model

let quantile t p =
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Survival.quantile: p outside [0, 100]";
  if t.n = 0 then invalid_arg "Survival.quantile: empty accumulator";
  let rank =
    Stdlib.max 1
      (Stdlib.min t.n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n))))
  in
  let rec walk c acc =
    if c >= t.horizon then t.horizon
    else begin
      let acc = acc + t.deaths.(c) in
      if acc >= rank then c else walk (c + 1) acc
    end
  in
  walk 0 0

let survival t =
  let nf = float_of_int (Stdlib.max 1 t.n) in
  let rec walk c alive acc =
    if c >= t.horizon then List.rev acc
    else begin
      let d = t.deaths.(c) in
      if d = 0 then walk (c + 1) alive acc
      else begin
        let alive = alive - d in
        (* lifetime exactly c: the drop lands between c and c + 1, so
           the fraction with lifetime >= c + 1 is alive/n *)
        walk (c + 1) alive ((c + 1, float_of_int alive /. nf) :: acc)
      end
    end
  in
  walk 0 t.n [ (0, 1.0) ]

(* FNV-1a 64 over a canonical little-endian encoding of every counter.
   Not cryptographic — a cheap fingerprint CI can pin. *)
let checksum t =
  let h = ref 0xCBF29CE484222325L in
  let feed v =
    let x = ref v in
    for _ = 0 to 7 do
      let byte = Int64.to_int (Int64.logand !x 0xFFL) in
      h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001B3L;
      x := Int64.shift_right_logical !x 8
    done
  in
  let feed_int v = feed (Int64.of_int v) in
  feed_int t.horizon;
  feed_int t.n;
  feed_int t.censored;
  feed_int t.total_cycles;
  Array.iter feed_int t.deaths;
  Array.iter
    (fun pm ->
      feed_int pm.m_n;
      feed_int pm.m_censored;
      feed_int pm.m_total_cycles)
    t.by_model;
  Printf.sprintf "sv1-%016Lx" !h

let to_json t buf =
  let open Printf in
  let add fmt = ksprintf (Buffer.add_string buf) fmt in
  (* non-finite means "undefined" (empty tally): emit null, keep the
     output parseable *)
  let num v = if Float.is_finite v then sprintf "%.6g" v else "null" in
  add "{\"devices\": %d, \"censored\": %d, \"horizon\": %d" t.n t.censored
    t.horizon;
  add ", \"mean_cycles\": %s"
    (num
       (if t.n = 0 then Float.nan
        else float_of_int t.total_cycles /. float_of_int t.n));
  if t.n > 0 then begin
    add ", \"quantiles\": {";
    List.iteri
      (fun i (label, p) ->
        add "%s\"%s\": %d" (if i = 0 then "" else ", ") label (quantile t p))
      [ ("p1", 1.0); ("p5", 5.0); ("p50", 50.0); ("p90", 90.0);
        ("p99", 99.0) ];
    add "}"
  end;
  add ", \"survival\": [";
  List.iteri
    (fun i (c, s) -> add "%s[%d, %.6g]" (if i = 0 then "" else ", ") c s)
    (survival t);
  add "]";
  add ", \"models\": [";
  Array.iteri
    (fun i pm ->
      add "%s{\"model\": \"%s\", \"devices\": %d, \"censored\": %d"
        (if i = 0 then "" else ", ")
        (Batsched_obs.Json.escape_string t.models.(i))
        pm.m_n pm.m_censored;
      add ", \"mean_cycles\": %s}"
        (num
           (if pm.m_n = 0 then Float.nan
            else float_of_int pm.m_total_cycles /. float_of_int pm.m_n)))
    t.by_model;
  add "]";
  add ", \"checksum\": \"%s\"}" (checksum t)
