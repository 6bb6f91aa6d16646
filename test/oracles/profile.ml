include Batsched_battery.Profile

let fold_until t ~at ~init ~f =
  let buf = Array.make 3 0.0 in
  let acc = ref init in
  iter_until t ~at buf (fun () ->
      acc := f !acc ~start:buf.(0) ~duration:buf.(1) ~current:buf.(2));
  !acc

let truncate t ~at =
  of_intervals
    (List.rev
       (fold_until t ~at ~init:[] ~f:(fun acc ~start ~duration ~current ->
            (start, duration, current) :: acc)))
