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
      let models = Array.make (Int.min block (hi - lo)) 0 in
      let b = ref lo in
      while !b < hi do
        let e = Int.min hi (!b + block) in
        let count = e - !b in
        (* Batch.run pulls each device a single time and runs it to its
           end before it pulls the next; only the model index is kept,
           for the tally below, so nothing else of a device outlives
           its run *)
        let device j =
          let d = Sampler.device spec ~base (!b + j) in
          models.(j) <- d.Sampler.model_index;
          d.Sampler.periodic
        in
        let results =
          Batsched_battery.Periodic.Batch.run ~max_cycles:spec.Spec.horizon
            ~n:count ~device ()
        in
        let deaths = ref 0 in
        Array.iteri
          (fun j (r : Batsched_battery.Periodic.Batch.result) ->
            Survival.observe acc ~model_index:models.(j)
              r.Batsched_battery.Periodic.Batch.outcome;
            (match r.Batsched_battery.Periodic.Batch.outcome with
            | Batsched_battery.Periodic.Dies _ -> incr deaths
            | Batsched_battery.Periodic.Censored _ -> ());
            if hist_on then
              Histogram.observe
                ("fleet/eol_cycles/" ^ labels.(models.(j)))
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
