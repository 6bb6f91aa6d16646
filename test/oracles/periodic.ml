let strip model =
  { model with Batsched_battery.Model.decay = None; stepper = None }

let cycles_to_death_reference ?max_cycles ~model ~alpha ~period cycle =
  Batsched_battery.Periodic.cycles_to_death ?max_cycles ~model:(strip model)
    ~alpha ~period cycle

let result_reference ?max_cycles (d : Batsched_battery.Periodic.device) =
  (Batsched_battery.Periodic.Batch.run ?max_cycles ~n:1
     ~device:(fun _ -> { d with model = strip d.model })
     ()).(0)
