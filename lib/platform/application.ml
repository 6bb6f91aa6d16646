open Batsched_taskgraph

type workload = {
  name : string;
  megacycles : float;
}

type t = {
  workloads : workload list;
  edges : (int * int) list;
}

let make ~workloads ~edges =
  if workloads = [] then invalid_arg "Application.make: no workloads";
  List.iter
    (fun w ->
      if not (w.megacycles > 0.0) then
        invalid_arg "Application.make: megacycles <= 0")
    workloads;
  { workloads; edges }

let workloads t = t.workloads

let compile ?(label = "") t ~cpu =
  let tasks =
    List.mapi
      (fun id w ->
        Task.make ~id ~name:w.name (Cpu.design_points cpu ~megacycles:w.megacycles))
      t.workloads
  in
  Graph.make ~label ~edges:t.edges tasks

let video_pipeline =
  make
    ~workloads:
      [ { name = "capture"; megacycles = 40_000.0 };
        { name = "entropy"; megacycles = 90_000.0 };
        { name = "itransform"; megacycles = 70_000.0 };
        { name = "mc-top"; megacycles = 60_000.0 };
        { name = "mc-bottom"; megacycles = 60_000.0 };
        { name = "render"; megacycles = 50_000.0 } ]
    ~edges:[ (0, 1); (1, 2); (2, 3); (2, 4); (3, 5); (4, 5) ]

let sensor_fusion =
  make
    ~workloads:
      [ { name = "sample"; megacycles = 25_000.0 };
        { name = "imu-filter"; megacycles = 45_000.0 };
        { name = "gps-filter"; megacycles = 35_000.0 };
        { name = "mag-filter"; megacycles = 30_000.0 };
        { name = "fuse"; megacycles = 80_000.0 };
        { name = "classify"; megacycles = 65_000.0 };
        { name = "log"; megacycles = 20_000.0 };
        { name = "compress"; megacycles = 55_000.0 };
        { name = "transmit"; megacycles = 35_000.0 } ]
    ~edges:
      [ (0, 1); (0, 2); (0, 3); (1, 4); (2, 4); (3, 4); (4, 5); (4, 6);
        (5, 7); (6, 7); (7, 8) ]
