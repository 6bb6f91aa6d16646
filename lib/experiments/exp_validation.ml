open Batsched_taskgraph
open Batsched_battery

let name = "validation"

let loads =
  [ ("const 800 mA, 20 min, at end", Profile.constant ~current:800.0 ~duration:20.0, 20.0);
    ("same, 40 min after the load", Profile.constant ~current:800.0 ~duration:20.0, 60.0);
    ("const 100 mA, 100 min", Profile.constant ~current:100.0 ~duration:100.0, 100.0);
    ("two bursts, 30-min gap",
     Profile.of_intervals [ (0.0, 20.0, 800.0); (50.0, 20.0, 800.0) ], 70.0);
    ("staircase 900/600/200",
     Profile.sequential [ (900.0, 5.0); (600.0, 10.0); (200.0, 20.0) ], 35.0) ]

let convergence_rows () =
  let p = Profile.constant ~current:800.0 ~duration:20.0 in
  let pde = Model.sigma (Diffusion.model ()) p ~at:20.0 in
  List.map
    (fun terms ->
      let a = Model.sigma (Rakhmatov.model ~terms ()) p ~at:20.0 in
      [ string_of_int terms;
        Tables.f1 a;
        Tables.pct (100.0 *. (a -. pde) /. pde) ])
    [ 10; 50; 200; 1000; 5000 ]
  @ [ [ "PDE"; Tables.f1 pde; "-" ] ]

let agreement_rows () =
  let rv10 = Rakhmatov.model () in
  let rv5000 = Rakhmatov.model ~terms:5000 () in
  let diffusion = Diffusion.model () in
  List.map
    (fun (label, p, at) ->
      let a10 = Model.sigma rv10 p ~at in
      let a5000 = Model.sigma rv5000 p ~at in
      let pde = Model.sigma diffusion p ~at in
      [ label;
        Tables.f1 a10;
        Tables.f1 a5000;
        Tables.f1 pde;
        Tables.pct (100.0 *. (a5000 -. pde) /. pde) ])
    loads

(* does the truncation ever flip a schedule comparison? evaluate every
   published point's "ours vs baseline [1]" verdict under 10 terms and
   under the PDE *)
let verdict_agreement () =
  let cases =
    [ (Instances.g2, 75.0); (Instances.g2, 95.0); (Instances.g3, 230.0) ]
  in
  List.for_all
    (fun (g, deadline) ->
      let model10 = Rakhmatov.model () in
      let ours =
        (Batsched.Iterate.run (Batsched.Config.make ~deadline ()) g)
          .Batsched.Iterate.schedule
      in
      let baseline =
        (Batsched_baselines.Dp_energy.run ~model:model10 g ~deadline)
          .Batsched_baselines.Solution.schedule
      in
      let verdict m =
        Batsched_sched.Schedule.battery_cost ~model:m g ours
        < Batsched_sched.Schedule.battery_cost ~model:m g baseline
      in
      let pde =
        Diffusion.model
          ~params:(Diffusion.make_params ~nodes:48 ~dt:0.05 ~alpha:40375.0
                     ~beta:Rakhmatov.default_beta ())
          ()
      in
      verdict model10 = verdict pde)
    cases

let run () =
  Printf.sprintf
    "Validation of Eq. 1 against the diffusion PDE it approximates\n\n\
     Series convergence (const 800 mA for 20 min, observed at the end):\n%s\n\
     Agreement across load shapes (10 terms = the paper's setting):\n%s\n\
     reading: with enough terms the analytical model matches the PDE to \
     <0.01%%; the paper's 10-term truncation undercounts sigma during \
     active discharge by the series tail (~2/(beta^2 m) per unit \
     current) and is exact again after rest.  The bias is common to all \
     candidate schedules evaluated at similar completion times, so \
     schedule comparisons are unaffected: verdict agreement on the \
     published points: %b\n"
    (Tables.render ~headers:[ "terms"; "sigma"; "vs PDE" ]
       ~rows:(convergence_rows ()))
    (Tables.render
       ~headers:[ "load"; "10 terms"; "5000 terms"; "PDE"; "5000 vs PDE" ]
       ~rows:(agreement_rows ()))
    (verdict_agreement ())
