(* Tests for the experiment harness: table/CSV rendering, the registry,
   and the shape assertions embedded in each paper reproduction. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else go (i + 1)
  in
  go 0

(* --- Tables --- *)

let test_tables_render_aligns () =
  let s =
    Batsched_experiments.Tables.render ~headers:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has header" true (contains ~needle:"| a " s);
  Alcotest.(check bool) "has separator" true (contains ~needle:"+=" s);
  Alcotest.(check bool) "has value" true (contains ~needle:"333" s)

let test_tables_pads_short_rows () =
  let s =
    Batsched_experiments.Tables.render ~headers:[ "a"; "b"; "c" ]
      ~rows:[ [ "1" ] ]
  in
  Alcotest.(check bool) "renders" true (contains ~needle:"| 1 " s)

let test_tables_rejects_long_rows () =
  Alcotest.check_raises "long row"
    (Invalid_argument "Tables.render: row longer than header") (fun () ->
      ignore
        (Batsched_experiments.Tables.render ~headers:[ "a" ]
           ~rows:[ [ "1"; "2" ] ]))

let test_tables_formatters () =
  Alcotest.(check string) "f1" "228.3" (Batsched_experiments.Tables.f1 228.34);
  Alcotest.(check string) "f0" "16353" (Batsched_experiments.Tables.f0 16353.2);
  Alcotest.(check string) "pct" "+15.6%" (Batsched_experiments.Tables.pct 15.6)

(* --- Registry --- *)

let test_registry_has_all_paper_artifacts () =
  List.iter
    (fun id ->
      match Batsched_experiments.Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "missing experiment %s" id)
    [ "table1"; "table2"; "table3"; "table4"; "fig3"; "fig4"; "fig5";
      "curves"; "validation"; "ablation"; "mechanisms"; "models"; "idle"; "beta";
      "endurance"; "platform"; "baselines"; "scaling" ]

let test_registry_find_unknown () =
  Alcotest.(check bool) "unknown" true
    (Batsched_experiments.Registry.find "nope" = None)

(* --- experiment shape checks --- *)

let test_table2_mentions_all_tasks () =
  let out = Batsched_experiments.Exp_table2.run () in
  Alcotest.(check bool) "T15 present" true (contains ~needle:"T15" out);
  Alcotest.(check bool) "weighted rows present" true (contains ~needle:"S1w" out)

let test_table3_shape_checks_pass () =
  let out = Batsched_experiments.Exp_table3.run () in
  Alcotest.(check bool) "monotone check recorded" true
    (contains ~needle:"monotone non-increasing: true" out);
  Alcotest.(check bool) "deadline check recorded" true
    (contains ~needle:"meets the deadline: true" out)

let test_table4_reproduces_win () =
  let rows = Batsched_experiments.Exp_table4.compute () in
  Alcotest.(check int) "six points" 6 (List.length rows);
  List.iter
    (fun (r : Batsched_experiments.Exp_table4.row) ->
      Alcotest.(check bool) "ours wins" true (r.ours <= r.baseline +. 1e-6);
      (* our reimplementation lands within 5% of the paper's "ours" *)
      Alcotest.(check bool) "near paper" true
        (Float.abs (r.ours -. r.paper_ours) /. r.paper_ours < 0.05))
    rows

let test_fig4_worked_example_matches () =
  let out = Batsched_experiments.Exp_figures.run_fig4 () in
  Alcotest.(check bool) "match" true (contains ~needle:"MATCH" out)

let test_table1_cube_law_tight () =
  let out = Batsched_experiments.Exp_figures.run_table1 () in
  Alcotest.(check bool) "917 present" true (contains ~needle:"917" out)

let test_fig5_lists_g2 () =
  let out = Batsched_experiments.Exp_figures.run_fig5 () in
  Alcotest.(check bool) "938 present" true (contains ~needle:"938" out);
  Alcotest.(check bool) "dot present" true (contains ~needle:"digraph" out)

let test_curves_shape_checks_pass () =
  let out = Batsched_experiments.Exp_curves.run () in
  Alcotest.(check bool) "rate capacity ok" true
    (contains ~needle:"load rises: true" out);
  Alcotest.(check bool) "recovery ok" true
    (contains ~needle:"idle gap: true" out)

let test_idle_shape_checks_pass () =
  let out = Batsched_experiments.Exp_idle.run () in
  Alcotest.(check bool) "never raises peak" true
    (contains ~needle:"never raises the peak: true" out)

let test_beta_win_shrinks () =
  let out = Batsched_experiments.Exp_beta.run () in
  Alcotest.(check bool) "shrinks" true (contains ~needle:": true" out)

let test_platform_prediction_exact () =
  let out = Batsched_experiments.Exp_platform.run () in
  Alcotest.(check bool) "exact match" true
    (contains ~needle:"matches the analytic prediction exactly: true" out);
  Alcotest.(check bool) "overheads accounted" true
    (contains ~needle:"accounted overhead: true" out)

let test_multiproc_ordering_holds () =
  let out = Batsched_experiments.Exp_multiproc.run () in
  Alcotest.(check bool) "aware <= downscale" true
    (contains ~needle:"every feasible point: true" out)

let test_endurance_shape_checks () =
  let out = Batsched_experiments.Exp_endurance.run () in
  Alcotest.(check bool) "budget ordering" true
    (contains ~needle:"charge budget ordering: true" out);
  Alcotest.(check bool) "ceiling respected" true
    (contains ~needle:"ideal ceiling: true" out)

let test_mechanisms_report_degradation () =
  let out = Batsched_experiments.Exp_mechanisms.run () in
  Alcotest.(check bool) "mean line present" true
    (contains ~needle:"mean degradation" out)

let test_models_reports_win_counts () =
  let out = Batsched_experiments.Exp_models.run () in
  Alcotest.(check bool) "rv always wins" true
    (contains ~needle:"rakhmatov 6/6" out)

let () =
  Alcotest.run "experiments"
    [ ( "tables",
        [ Alcotest.test_case "render aligns" `Quick test_tables_render_aligns;
          Alcotest.test_case "pads short rows" `Quick test_tables_pads_short_rows;
          Alcotest.test_case "rejects long rows" `Quick test_tables_rejects_long_rows;
          Alcotest.test_case "formatters" `Quick test_tables_formatters ] );
      ( "registry",
        [ Alcotest.test_case "all artifacts" `Quick test_registry_has_all_paper_artifacts;
          Alcotest.test_case "unknown" `Quick test_registry_find_unknown ] );
      ( "reproductions",
        [ Alcotest.test_case "table2 tasks" `Quick test_table2_mentions_all_tasks;
          Alcotest.test_case "table3 shape" `Quick test_table3_shape_checks_pass;
          Alcotest.test_case "table4 win" `Quick test_table4_reproduces_win;
          Alcotest.test_case "fig4 worked example" `Quick test_fig4_worked_example_matches;
          Alcotest.test_case "table1 data" `Quick test_table1_cube_law_tight;
          Alcotest.test_case "fig5 g2" `Quick test_fig5_lists_g2;
          Alcotest.test_case "curves shapes" `Quick test_curves_shape_checks_pass;
          Alcotest.test_case "idle shapes" `Slow test_idle_shape_checks_pass;
          Alcotest.test_case "beta win shrinks" `Slow test_beta_win_shrinks;
          Alcotest.test_case "platform prediction" `Slow test_platform_prediction_exact;
          Alcotest.test_case "multiproc ordering" `Slow test_multiproc_ordering_holds;
          Alcotest.test_case "endurance shapes" `Slow test_endurance_shape_checks;
          Alcotest.test_case "models win counts" `Slow test_models_reports_win_counts;
          Alcotest.test_case "mechanisms degradation" `Slow test_mechanisms_report_degradation ] ) ]
