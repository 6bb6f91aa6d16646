open Batsched_taskgraph
open Batsched_sched
open Batsched_battery

type placement = {
  after_position : int;
  amount : float;
}

type result = {
  placements : placement list;
  profile : Profile.t;
  peak_gapped : float;
  peak_packed : float;
  improvement : float;
}

let peak_sigma model profile =
  List.fold_left
    (fun acc (iv : Profile.interval) ->
      Float.max acc
        (Model.sigma model profile ~at:(iv.Profile.start +. iv.Profile.duration)))
    0.0
    (Profile.intervals profile)

(* Rebuild the sequential profile with per-gap idle time.  gaps.(i) is
   the rest inserted after sequence position i. *)
let gapped_profile g (sched : Schedule.t) gaps =
  let _, triples =
    List.fold_left
      (fun (clock, acc) (pos, task) ->
        let p = Assignment.chosen_point g sched.Schedule.assignment task in
        let acc = (clock, p.Task.duration, p.Task.current) :: acc in
        let rest = if pos < Array.length gaps then gaps.(pos) else 0.0 in
        (clock +. p.Task.duration +. rest, acc))
      (0.0, [])
      (List.mapi (fun pos t -> (pos, t)) sched.Schedule.sequence)
  in
  Profile.of_intervals (List.rev triples)

(* granules the slack is split into *)
let chunks = 16

let optimize (cfg : Config.t) g sched =
  let d = cfg.Config.deadline in
  let finish = Schedule.finish_time g sched in
  if finish > d +. 1e-9 then
    invalid_arg "Idle.optimize: schedule misses the deadline";
  let n = List.length sched.Schedule.sequence in
  let gaps = Array.make (Stdlib.max 0 (n - 1)) 0.0 in
  let peak_of gaps = peak_sigma cfg.Config.model (gapped_profile g sched gaps) in
  let peak_packed = peak_of gaps in
  let slack = d -. finish in
  let granule = slack /. float_of_int chunks in
  let current_peak = ref peak_packed in
  if granule > 1e-9 && n > 1 then begin
    let continue = ref true in
    let remaining = ref chunks in
    while !continue && !remaining > 0 do
      (* try one granule in every gap; keep the best strict improvement *)
      let best = ref None in
      for i = 0 to n - 2 do
        gaps.(i) <- gaps.(i) +. granule;
        let s = peak_of gaps in
        gaps.(i) <- gaps.(i) -. granule;
        (match !best with
        | Some (_, bs) when bs <= s -> ()
        | _ -> if s < !current_peak -. 1e-9 then best := Some (i, s))
      done;
      match !best with
      | None -> continue := false
      | Some (i, s) ->
          gaps.(i) <- gaps.(i) +. granule;
          current_peak := s;
          decr remaining
    done
  end;
  let placements =
    Array.to_list gaps
    |> List.mapi (fun after_position amount -> { after_position; amount })
    |> List.filter (fun p -> p.amount > 1e-12)
  in
  let profile = gapped_profile g sched gaps in
  { placements;
    profile;
    peak_gapped = !current_peak;
    peak_packed;
    improvement = peak_packed -. !current_peak }

let survivable_alphas r = (r.peak_gapped, r.peak_packed)
