open Batsched_battery
open Periodic

(* The checks [Periodic.Batch.run] makes of every device. *)
let check_inputs ~alpha ~period cycle =
  if not (alpha > 0.0) then invalid_arg "Periodic: alpha must be positive";
  if not (period > 0.0) then invalid_arg "Periodic: period must be positive";
  if Profile.length cycle > period +. 1e-9 then
    invalid_arg "Periodic: cycle longer than the period"

(* The peak of sigma inside a cycle occurs at one of its active-interval
   end points (sigma relaxes during idle), so death within cycle k is
   detected by probing those ends against the history built so far.

   Materialize the growing full history and probe it with the model's
   own [sigma].  O(cycles^2) interval work, kept verbatim from the
   original implementation of [Periodic]. *)
let reference_run ~max_cycles ~model ~alpha ~period cycle =
  let base =
    List.map
      (fun (iv : Profile.interval) ->
        (iv.Profile.start, iv.Profile.duration, iv.Profile.current))
      (Profile.intervals cycle)
  in
  let rec go k acc =
    if k >= max_cycles then (Censored max_cycles, Float.nan)
    else begin
      let offset = float_of_int k *. period in
      let shifted = List.map (fun (s, d, c) -> (s +. offset, d, c)) base in
      let profile = Profile.of_intervals (List.rev_append acc shifted) in
      let fatal =
        List.find_map
          (fun (s, d, _) ->
            let sg = model.Model.sigma profile ~at:(s +. d) in
            if sg >= alpha then Some sg else None)
          shifted
      in
      match fatal with
      | Some sg -> (Dies k, sg)
      | None -> go (k + 1) (List.rev_append shifted acc)
    end
  in
  go 0 []

let result_reference ?(max_cycles = default_max_cycles)
    (d : Periodic.device) =
  check_inputs ~alpha:d.alpha ~period:d.period d.cycle;
  let outcome, fatal_sigma =
    reference_run ~max_cycles ~model:d.model ~alpha:d.alpha ~period:d.period
      d.cycle
  in
  { Batch.outcome; fatal_sigma }

let cycles_to_death_reference ?max_cycles ~model ~alpha ~period cycle =
  match (result_reference ?max_cycles { model; alpha; period; cycle }) with
  | { Batch.outcome = Dies 0; fatal_sigma } -> raise (Unsustainable fatal_sigma)
  | { Batch.outcome; _ } -> outcome
