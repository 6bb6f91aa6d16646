(* sigma is the plain charge integral: no memory at all, so the
   per-interval term ignores how much load follows (no channels) and
   every local-search move is O(1) to re-cost. *)
let channels =
  { Model.term = (fun buf j -> buf.(j) <- buf.(j) *. buf.(j + 1));
    rates = [||];
    weights = (fun ~current:_ ~duration:_ _ -> ());
    charge = (fun ~current ~duration -> current *. duration) }

let model = { Model.name = "ideal"; kernel = Model.Channels channels }
