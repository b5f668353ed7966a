(* Smoke and contract tests for the experiment drivers (prediction-side
   paths only; the heavy simulation paths run in bench/main.exe). *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let has_row (out : Experiments.Output.t) key =
  List.exists (fun (k, _) -> k = key) out.rows

let check_row out key =
  Alcotest.(check bool) (Printf.sprintf "row %S present" key) true (has_row out key)

let row_float (out : Experiments.Output.t) key =
  match List.assoc_opt key out.rows with
  | Some v -> float_of_string v
  | None -> Alcotest.failf "row %S missing" key

(* Bench record schema *)

let test_bench_json_meta_round_trip () =
  let entry =
    {
      Experiments.Bench_json.name = "rt_check";
      jobs = 4;
      wall_s = 0.25;
      speedup_vs_seq = 2.0;
      extra =
        [
          ("newton_iters", 128.0);
          ("worst_ratio", Float.infinity);
          ("best_ratio", Float.neg_infinity);
        ];
      meta =
        [
          ("host_domains", "8");
          ("ocaml_version", "5.1.1");
          ("path", "a\rb\tc/d");
        ];
    }
  in
  let back =
    Experiments.Bench_json.parse (Experiments.Bench_json.to_json entry)
  in
  Alcotest.(check string) "name" entry.name back.Experiments.Bench_json.name;
  Alcotest.(check (list (pair string (float 0.0))))
    "extra" entry.extra back.Experiments.Bench_json.extra;
  Alcotest.(check (list (pair string string)))
    "meta preserved" entry.meta back.Experiments.Bench_json.meta;
  (* escapes a hand-edited record may carry: a non-ASCII \u escape
     decodes to UTF-8, an escaped solidus to '/' *)
  let hand =
    Experiments.Bench_json.parse
      {|{"name": "x", "jobs": 1, "wall_s": 1.0, "speedup_vs_seq": 1.0,
         "host": "caf\u00e9 a\/b"}|}
  in
  Alcotest.(check (list (pair string string)))
    "\\u00e9 decodes to UTF-8" [ ("host", "caf\xc3\xa9 a/b") ]
    hand.Experiments.Bench_json.meta

let test_bench_json_host_meta () =
  let meta = Experiments.Bench_json.host_meta () in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k meta))
    [ "host_domains"; "ocaml_version"; "os_type" ];
  Unix.putenv "OSHIL_DSA_FINDINGS" "0";
  let with_env = Experiments.Bench_json.host_meta () in
  Unix.putenv "OSHIL_DSA_FINDINGS" "";
  Alcotest.(check (option string))
    "dsa_findings picked up from env" (Some "0")
    (List.assoc_opt "dsa_findings" with_env);
  let without = Experiments.Bench_json.host_meta () in
  Alcotest.(check (option string))
    "empty env var omitted" None
    (List.assoc_opt "dsa_findings" without)

(* Output plumbing *)

let test_output_print () =
  let out =
    Experiments.Output.make ~id:"T0" ~title:"demo"
      ~rows:[ ("alpha", "1"); ("beta long key", "2") ]
      ()
  in
  let text = Format.asprintf "%a" Experiments.Output.print out in
  Alcotest.(check bool) "banner" true (contains text "=== [T0] demo");
  Alcotest.(check bool) "keys aligned and present" true
    (contains text "alpha" && contains text "beta long key")

let test_output_write_figures () =
  let dir = Filename.temp_file "oshil" "figs" in
  Sys.remove dir;
  let fig = Plotkit.Fig.add_line (Plotkit.Fig.create ()) ~xs:[| 0.; 1. |] ~ys:[| 0.; 1. |] in
  let out =
    Experiments.Output.make ~id:"T0" ~title:"demo" ~figures:[ ("line", fig) ] ()
  in
  match Experiments.Output.write_figures ~dir out with
  | [ path ] ->
    Alcotest.(check bool) "file written" true (Sys.file_exists path);
    Alcotest.(check bool) "named by id and stem" true (contains path "T0_line.svg");
    Sys.remove path
  | _ -> Alcotest.fail "expected one figure path"

(* Tanh experiments (fast paths) *)

let test_fig3 () =
  let out =
    Experiments.Tanh_experiments.fig3_natural ~validate:false
      Experiments.Tanh_experiments.default_setup
  in
  Alcotest.(check (float 1e-3)) "predicted A" 1.1582
    (row_float out "predicted A (V)");
  Alcotest.(check bool) "one figure" true (List.length out.figures = 1)

let test_fig6 () =
  let out = Experiments.Tanh_experiments.fig6_tank Experiments.Tanh_experiments.default_setup in
  Alcotest.(check (float 1.0)) "fc" 1e6 (row_float out "f_c (Hz)");
  Alcotest.(check (float 1e-6)) "Q" 10.0 (row_float out "Q");
  Alcotest.(check int) "two figures" 2 (List.length out.figures)

let test_fig7 () =
  let out = Experiments.Tanh_experiments.fig7_solutions Experiments.Tanh_experiments.default_setup in
  check_row out "number of locks";
  Alcotest.(check string) "two locks" "2" (List.assoc "number of locks" out.rows)

let test_fig9 () =
  let out = Experiments.Tanh_experiments.fig9_states Experiments.Tanh_experiments.default_setup in
  Alcotest.(check (float 1e-6)) "spacing 2pi/3"
    (2.0 *. Float.pi /. 3.0)
    (row_float out "state spacing (rad)")

let test_fig10_prediction_only () =
  let out =
    Experiments.Tanh_experiments.fig10_lock_range ~validate:false
      Experiments.Tanh_experiments.default_setup
  in
  let lo = row_float out "f_inj low (Hz)" and hi = row_float out "f_inj high (Hz)" in
  Alcotest.(check bool) "band straddles 3 MHz" true (lo < 3e6 && 3e6 < hi)

(* Benches (construction + prediction side) *)

let test_diff_pair_bench () =
  let b = Experiments.Osc_experiments.diff_pair () in
  Alcotest.(check (float 1.0)) "fc" Circuits.Diff_pair.fc_paper b.fc;
  let out = Experiments.Osc_experiments.fig_fv b in
  Alcotest.(check string) "id F12a" "F12a" out.id;
  let out2, lr = Experiments.Osc_experiments.table_lock_range ~predict_only:true b in
  Alcotest.(check string) "id T1" "T1" out2.id;
  Alcotest.(check (float 100.0)) "calibrated lock range" 17670.0 lr.delta_f_inj

let test_tongue_monotone () =
  (* the lock band must widen monotonically with injection strength and
     contain 3 f_c at every strength *)
  let osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default in
  let pts, failures =
    Experiments.Tongue_experiment.compute ~points:256
      ~vis:[ 0.01; 0.05; 0.15 ] osc ~n:3
  in
  Alcotest.(check bool) "no holes" true
    (Resilience.Summary.is_clean failures);
  let widths = List.map (fun (p : Experiments.Tongue_experiment.point) -> p.delta_f_inj) pts in
  (match widths with
  | [ a; b; c ] ->
    Alcotest.(check bool) "monotone widening" true (a < b && b < c)
  | _ -> Alcotest.fail "expected three points");
  List.iter
    (fun (p : Experiments.Tongue_experiment.point) ->
      Alcotest.(check bool) "band contains 3 fc" true
        (p.f_inj_low < 3e6 && 3e6 < p.f_inj_high))
    pts

let test_fhil_ablation () =
  let out = Experiments.Fhil_experiment.run ~vis:[ 0.01 ] () in
  Alcotest.(check string) "id" "A3" out.id;
  Alcotest.(check bool) "has the sweep row" true (has_row out "Vi = 0.01")

let () =
  Alcotest.run "experiments"
    [
      ( "bench_json",
        [
          Alcotest.test_case "meta round-trip" `Quick
            test_bench_json_meta_round_trip;
          Alcotest.test_case "host meta keys" `Quick test_bench_json_host_meta;
        ] );
      ( "output",
        [
          Alcotest.test_case "print" `Quick test_output_print;
          Alcotest.test_case "write figures" `Quick test_output_write_figures;
        ] );
      ( "tanh",
        [
          Alcotest.test_case "fig3" `Quick test_fig3;
          Alcotest.test_case "fig6" `Quick test_fig6;
          Alcotest.test_case "fig7" `Slow test_fig7;
          Alcotest.test_case "fig9" `Slow test_fig9;
          Alcotest.test_case "fig10 prediction" `Slow test_fig10_prediction_only;
        ] );
      ( "benches",
        [
          Alcotest.test_case "diff pair" `Slow test_diff_pair_bench;
          Alcotest.test_case "fhil ablation" `Slow test_fhil_ablation;
          Alcotest.test_case "arnold tongue" `Slow test_tongue_monotone;
        ] );
    ]
