let g3_factors = [ 1.0; 0.85; 0.68; 0.51; 0.33 ]

let check_positive name x =
  if not (x > 0.0) then invalid_arg ("Designpoints: non-positive " ^ name)

let check_factors factors =
  if factors = [] then invalid_arg "Designpoints: empty factor list";
  List.iter (check_positive "factor") factors

let cube_law ~base_current ~base_duration ~factors () =
  check_positive "base current" base_current;
  check_positive "base duration" base_duration;
  check_factors factors;
  let pairs =
    List.map
      (fun s -> (base_current *. (s ** 3.0), base_duration /. s))
      factors
  in
  (pairs, factors)

let linear_duration_law ~base_current ~fastest_duration ~slowest_duration
    ~factors () =
  check_positive "base current" base_current;
  check_positive "fastest duration" fastest_duration;
  if fastest_duration >= slowest_duration then
    invalid_arg "Designpoints.linear_duration_law: need fastest < slowest";
  check_factors factors;
  (* Sort factors descending so index 0 is the fastest point. *)
  let sorted = List.sort (fun a b -> compare b a) factors in
  let m = List.length sorted in
  let duration i =
    if m = 1 then fastest_duration
    else
      fastest_duration
      +. (slowest_duration -. fastest_duration)
         *. float_of_int i /. float_of_int (m - 1)
  in
  let top = List.hd sorted in
  let pairs =
    List.mapi
      (fun i s -> (base_current *. ((s /. top) ** 3.0), duration i))
      sorted
  in
  let voltages = List.map (fun s -> s /. top) sorted in
  (pairs, voltages)
