open Batsched_taskgraph

let dpf_static g a ~free ~window_start =
  let m = Graph.num_points g in
  if window_start < 0 || window_start >= m then
    invalid_arg "Metrics.dpf_static: window_start out of range";
  let x = List.length free in
  if x = 0 || window_start = m - 1 then 0.0
  else begin
    let span = float_of_int (m - 1 - window_start) in
    let weight k =
      if k < window_start then
        invalid_arg "Metrics.dpf_static: free task assigned outside the window"
      else float_of_int (m - 1 - k) /. span
    in
    let contribution v = weight (Assignment.column a v) in
    Batsched_numeric.Kahan.sum_list (List.map contribution free)
    /. float_of_int x
  end
