open Batsched_numeric
open Batsched_obs

let model_labels (spec : Spec.t) =
  Array.of_list (List.map (fun m -> m.Spec.label) spec.Spec.models)

let run ?(pool = Pool.sequential) ?(events = Events.noop) ?(block = 256)
    ~(spec : Spec.t) ~devices ~seed () =
  if devices < 0 then invalid_arg "Engine.run: negative device count";
  if block < 1 then invalid_arg "Engine.run: block must be positive";
  let labels = model_labels spec in
  let base = Sampler.base ~seed in
  let total = Survival.create ~horizon:spec.Spec.horizon ~models:labels in
  let mutex = Mutex.create () in
  let completed = ref 0 in
  let events_on = Events.is_active events in
  let hist_on = !Histogram.observing in
  Pool.for_range pool ~n:devices (fun lo hi ->
      let acc = Survival.create ~horizon:spec.Spec.horizon ~models:labels in
      let probe = Probe.local () in
      let b = ref lo in
      while !b < hi do
        let e = Stdlib.min hi (!b + block) in
        let count = e - !b in
        (* materialize the block once: Batch.run pulls each device a
           single time, and the histogram observation below reuses the
           same sample *)
        let sampled = Array.make count None in
        let device j =
          let d = Sampler.device spec ~base (!b + j) in
          sampled.(j) <- Some d;
          d.Sampler.periodic
        in
        let results =
          Batsched_battery.Periodic.Batch.run ~max_cycles:spec.Spec.horizon
            ~n:count ~device ()
        in
        let deaths = ref 0 in
        Array.iteri
          (fun j (r : Batsched_battery.Periodic.Batch.result) ->
            let d =
              match sampled.(j) with Some d -> d | None -> assert false
            in
            Survival.observe acc ~model_index:d.Sampler.model_index
              r.Batsched_battery.Periodic.Batch.outcome;
            (match r.Batsched_battery.Periodic.Batch.outcome with
            | Batsched_battery.Periodic.Dies _ -> incr deaths
            | Batsched_battery.Periodic.Censored _ -> ());
            if hist_on then
              Histogram.observe
                ("fleet/eol_cycles/" ^ labels.(d.Sampler.model_index))
                (float_of_int
                   (Batsched_battery.Periodic.cycles
                      r.Batsched_battery.Periodic.Batch.outcome)))
          results;
        Probe.bump_named probe "fleet/devices" count;
        Probe.bump_named probe "fleet/deaths" !deaths;
        Probe.bump_named probe "fleet/censored" (count - !deaths);
        if events_on then begin
          let done_now =
            Mutex.lock mutex;
            completed := !completed + count;
            let v = !completed in
            Mutex.unlock mutex;
            v
          in
          Events.emit events "fleet-block"
            [ ("lo", Events.I !b); ("hi", Events.I e);
              ("done", Events.I done_now); ("total", Events.I devices);
              ("worker", Events.I (Pool.worker_index ())) ]
        end;
        b := e
      done;
      Mutex.lock mutex;
      Survival.merge ~into:total acc;
      Mutex.unlock mutex);
  if events_on then
    Events.emit events "fleet-done"
      [ ("devices", Events.I (Survival.n total));
        ("censored", Events.I (Survival.censored total));
        ("checksum", Events.S (Survival.checksum total)) ];
  total
