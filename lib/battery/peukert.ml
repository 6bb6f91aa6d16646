let check_params exponent reference_current =
  if exponent < 1.0 then invalid_arg "Peukert.model: exponent must be >= 1";
  if reference_current <= 0.0 then
    invalid_arg "Peukert.model: reference current must be positive"

(* k I^p D.  Inlined into the term, so that no float is boxed. *)
let[@inline] cost ~k ~exponent current duration =
  if current = 0.0 then 0.0 else k *. (current ** exponent) *. duration

(* Rate-dependence only, no memory of the rest of the schedule: the
   term ignores its tail and there are no channels, like the ideal
   model. *)
let channels ~exponent ~reference_current =
  let k = reference_current ** (1.0 -. exponent) in
  { Model.term = (fun buf j -> buf.(j) <- cost ~k ~exponent buf.(j) buf.(j + 1));
    rates = [||];
    weights = (fun ~current:_ ~duration:_ _ -> ());
    charge = (fun ~current ~duration -> cost ~k ~exponent current duration) }

let model ?(exponent = 1.2) ?(reference_current = 100.0) () =
  check_params exponent reference_current;
  { Model.name = "peukert";
    kernel = Model.Channels (channels ~exponent ~reference_current) }
