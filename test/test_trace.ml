(* Tests for the synthetic smartphone trace substrate. *)

module Gen = Midrr_trace.Gen
module Concurrent = Midrr_trace.Concurrent
module App_model = Midrr_trace.App_model

let close ?(tol = 1e-9) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.6g, got %.6g" what expected got

let iv start stop = { Gen.start; stop }

(* --- occupancy sweep ------------------------------------------------------ *)

let test_occupancy_simple () =
  (* [0,10) one flow; [5,10) a second: 5 s at 1, 5 s at 2. *)
  let occ = Concurrent.occupancy [ iv 0.0 10.0; iv 5.0 10.0 ] in
  close "at 1" 5.0 (List.assoc 1 occ);
  close "at 2" 5.0 (List.assoc 2 occ)

let test_occupancy_gap () =
  let occ = Concurrent.occupancy [ iv 0.0 2.0; iv 5.0 7.0 ] in
  close "idle gap" 3.0 (List.assoc 0 occ);
  close "active" 4.0 (List.assoc 1 occ)

let test_occupancy_horizon_tail () =
  let occ = Concurrent.occupancy ~horizon:10.0 [ iv 0.0 2.0 ] in
  close "idle includes tail" 8.0 (List.assoc 0 occ)

let test_occupancy_touching_intervals () =
  (* One ends exactly when the other starts: never 2 concurrent. *)
  let occ = Concurrent.occupancy [ iv 0.0 5.0; iv 5.0 10.0 ] in
  Alcotest.(check bool) "no overlap counted" false (List.mem_assoc 2 occ);
  close "continuous activity" 10.0 (List.assoc 1 occ)

let test_max_concurrent () =
  let trace = [ iv 0.0 10.0; iv 1.0 9.0; iv 2.0 8.0; iv 3.0 4.0 ] in
  Alcotest.(check int) "max" 4 (Concurrent.max_concurrent trace)

let test_fraction_at_least () =
  (* 5 s at 1 flow, 5 s at 2 flows. *)
  let trace = [ iv 0.0 10.0; iv 5.0 10.0 ] in
  close "P(>=1)" 1.0 (Concurrent.fraction_at_least trace 1);
  close "P(>=2)" 0.5 (Concurrent.fraction_at_least trace 2);
  close "P(>=3)" 0.0 (Concurrent.fraction_at_least trace 3)

let test_active_cdf () =
  let trace = [ iv 0.0 10.0; iv 5.0 10.0 ] in
  let cdf = Concurrent.active_cdf trace in
  close "P(X<=1)" 0.5 (Midrr_stats.Cdf.eval cdf 1.0);
  close "P(X<=2)" 1.0 (Midrr_stats.Cdf.eval cdf 2.0)

let test_active_fraction () =
  let trace = [ iv 0.0 4.0 ] in
  close "half active" 0.5 (Concurrent.active_fraction ~horizon:8.0 trace)

(* --- generator ------------------------------------------------------------ *)

let small_params =
  { Gen.default_params with horizon = 86400.0 (* one day *) }

let test_generate_deterministic () =
  let a = Gen.generate ~seed:5 small_params in
  let b = Gen.generate ~seed:5 small_params in
  Alcotest.(check int) "same count" (Gen.total_flows a) (Gen.total_flows b);
  Alcotest.(check bool) "identical traces" true (a = b)

let test_generate_seed_sensitivity () =
  let a = Gen.generate ~seed:5 small_params in
  let b = Gen.generate ~seed:6 small_params in
  Alcotest.(check bool) "different traces" false (a = b)

let test_generate_within_horizon () =
  let trace = Gen.generate ~seed:7 small_params in
  List.iter
    (fun (i : Gen.interval) ->
      if i.start < 0.0 || i.stop > small_params.horizon || i.stop <= i.start
      then Alcotest.failf "bad interval [%f, %f)" i.start i.stop)
    trace

let test_generate_produces_flows () =
  let trace = Gen.generate ~seed:8 small_params in
  if Gen.total_flows trace < 500 then
    Alcotest.failf "suspiciously few flows: %d" (Gen.total_flows trace)

let test_diurnal_pattern () =
  (* Sessions concentrate in waking hours: activity at 3am should be well
     below activity at 3pm. *)
  let trace = Gen.generate ~seed:9 { small_params with horizon = 7.0 *. 86400.0 } in
  let in_window h0 h1 (i : Gen.interval) =
    let hour = Float.rem (i.start /. 3600.0) 24.0 in
    hour >= h0 && hour < h1
  in
  let night = List.length (List.filter (in_window 2.0 5.0) trace) in
  let day = List.length (List.filter (in_window 14.0 17.0) trace) in
  if day <= 3 * night then
    Alcotest.failf "no diurnal pattern: day=%d night=%d" day night

(* The headline calibration: the defaults reproduce the paper's two
   statistics within tolerance. *)
let test_calibration_matches_paper () =
  let trace = Gen.generate ~seed:11 Gen.default_params in
  let p7 = Concurrent.fraction_at_least trace 7 in
  if p7 < 0.05 || p7 > 0.20 then
    Alcotest.failf "P(>=7 | active) = %.3f outside [0.05, 0.20]" p7;
  let m = Concurrent.max_concurrent trace in
  if m < 20 || m > 60 then Alcotest.failf "max concurrent %d outside [20, 60]" m

let test_app_mix_sane () =
  List.iter
    (fun (p : App_model.profile) ->
      if p.burst_lo < 1 || p.burst_hi < p.burst_lo then
        Alcotest.failf "%s: bad burst range" (App_model.name p.kind);
      if p.popularity <= 0.0 then
        Alcotest.failf "%s: non-positive popularity" (App_model.name p.kind))
    App_model.default_mix

(* --- trace statistics -------------------------------------------------- *)

let test_stats_generated_diurnal_peak () =
  let trace = Gen.generate ~seed:4 Gen.default_params in
  let starts = Array.make 24 0 in
  List.iter
    (fun (i : Gen.interval) ->
      let hour = int_of_float (Float.rem (i.start /. 3600.0) 24.0) in
      starts.(hour) <- starts.(hour) + 1)
    trace;
  let peak = ref 0 in
  Array.iteri (fun h c -> if c > starts.(!peak) then peak := h) starts;
  (* Defaults wake at 07:00 and sleep at 23:00: the peak must be inside. *)
  if !peak < 7 || !peak >= 23 then Alcotest.failf "peak hour %d at night" !peak

let () =
  Alcotest.run "trace"
    [
      ( "concurrent",
        [
          Alcotest.test_case "occupancy simple" `Quick test_occupancy_simple;
          Alcotest.test_case "occupancy gap" `Quick test_occupancy_gap;
          Alcotest.test_case "horizon tail" `Quick test_occupancy_horizon_tail;
          Alcotest.test_case "touching intervals" `Quick
            test_occupancy_touching_intervals;
          Alcotest.test_case "max concurrent" `Quick test_max_concurrent;
          Alcotest.test_case "fraction at least" `Quick test_fraction_at_least;
          Alcotest.test_case "active cdf" `Quick test_active_cdf;
          Alcotest.test_case "active fraction" `Quick test_active_fraction;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_generate_seed_sensitivity;
          Alcotest.test_case "within horizon" `Quick
            test_generate_within_horizon;
          Alcotest.test_case "produces flows" `Quick
            test_generate_produces_flows;
          Alcotest.test_case "diurnal pattern" `Slow test_diurnal_pattern;
          Alcotest.test_case "calibration matches paper" `Slow
            test_calibration_matches_paper;
          Alcotest.test_case "app mix sane" `Quick test_app_mix_sane;
        ] );
      ( "stats",
        [
          Alcotest.test_case "generated diurnal peak" `Slow
            test_stats_generated_diurnal_peak;
        ] );
    ]
