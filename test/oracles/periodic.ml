let cycles_to_death_reference ?max_cycles ~model ~alpha ~period cycle =
  let model =
    { model with Batsched_battery.Model.decay = None; stepper = None }
  in
  Batsched_battery.Periodic.cycles_to_death ?max_cycles ~model ~alpha ~period
    cycle
