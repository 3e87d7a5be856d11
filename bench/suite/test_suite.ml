open Bench_suite
module Scenario = Midrr_sim.Scenario

(* A fake clock: each read returns the current time, then advances it by
   [delta] ns (the read's own cost); [advance] simulates work. *)
let fake_clock ~delta =
  let now = ref 0 in
  let clock () =
    let v = !now in
    now := v + delta;
    v
  in
  (clock, fun ns -> now := !now + ns)

let fake_words () =
  let w = ref 0 in
  ((fun () -> !w), fun n -> w := !w + n)

let close = Alcotest.float 1e-6

let tracer_with ?sample_every ~delta () =
  let clock, advance = fake_clock ~delta in
  let words, alloc = fake_words () in
  let kinds = [ "decide"; "sink" ] in
  let overhead = Tracer.calibrate ~clock ~words ~root:"netsim" kinds () in
  let t =
    Tracer.create ~overhead ?sample_every ~clock ~words ~root:"netsim" kinds
  in
  (t, advance, alloc, overhead)

let test_calibration () =
  let _, _, _, o = tracer_with ~delta:10 () in
  Alcotest.(check int) "timed span = two reads" 20_000 o.span_ps;
  Alcotest.(check int) "untimed span reads nothing" 0 o.skip_ps;
  Alcotest.(check int) "no words" 0 o.span_words

(* root (3) -> decide (5) -> sink (7) -> decide (11) -> root (13), in ns
   of simulated work, with 2 words allocated by the sink. *)
let test_nested_self_times () =
  let t, advance, alloc, _ = tracer_with ~delta:10 () in
  let root = Tracer.root t
  and decide = Tracer.kind t "decide"
  and sink = Tracer.kind t "sink" in
  Tracer.enter t root;
  advance 3;
  Tracer.enter t decide;
  advance 5;
  Tracer.enter t sink;
  advance 7;
  alloc 2;
  Tracer.exit t sink;
  advance 11;
  Tracer.exit t decide;
  advance 13;
  Tracer.exit t root;
  Alcotest.check close "sink self" 7.0 (Tracer.self_ns t sink);
  Alcotest.check close "decide self" 16.0 (Tracer.self_ns t decide);
  Alcotest.check close "residual (root) self" 16.0 (Tracer.self_ns t root);
  Alcotest.check close "decide inclusive" 23.0 (Tracer.incl_ns t decide);
  Alcotest.check close "total" 39.0 (Tracer.total_self_ns t);
  Alcotest.check close "sink words" 2.0 (Tracer.self_words t sink);
  Alcotest.check close "decide words" 0.0 (Tracer.self_words t decide);
  Alcotest.(check int) "calls" 1 (Tracer.calls t sink)

(* With one root child in 4 timed, identical calls are estimated
   exactly: the untimed ones are scaled in, and the root's residual
   excludes them. *)
let test_sampled_estimates () =
  let t, advance, _, _ = tracer_with ~sample_every:4 ~delta:10 () in
  let root = Tracer.root t
  and decide = Tracer.kind t "decide"
  and sink = Tracer.kind t "sink" in
  let n = 1000 in
  Tracer.enter t root;
  for _ = 1 to n do
    advance 2;
    Tracer.enter t decide;
    advance 5;
    Tracer.enter t sink;
    advance 7;
    Tracer.exit t sink;
    Tracer.exit t decide
  done;
  Tracer.exit t root;
  Alcotest.(check int) "decide calls exact" n (Tracer.calls t decide);
  Alcotest.(check int) "sink calls exact" n (Tracer.calls t sink);
  let per_call ns = ns *. Float.of_int n in
  Alcotest.check close "decide self" (per_call 5.0) (Tracer.self_ns t decide);
  Alcotest.check close "sink self" (per_call 7.0) (Tracer.self_ns t sink);
  Alcotest.check close "residual" (per_call 2.0) (Tracer.self_ns t root);
  Alcotest.check close "decide p50" 12.0
    (Float.round (Tracer.quantile_ns t decide 0.5))

let test_unbalanced () =
  let t, _, _, _ = tracer_with ~delta:1 () in
  Alcotest.check_raises "child without root"
    (Invalid_argument "Tracer.enter: only the root kind opens at depth 0")
    (fun () -> Tracer.enter t (Tracer.kind t "decide"));
  Tracer.enter t (Tracer.root t);
  Tracer.enter t (Tracer.kind t "decide");
  Alcotest.check_raises "wrong kind closed"
    (Invalid_argument "Tracer.exit: unbalanced span") (fun () ->
      Tracer.exit t (Tracer.kind t "sink"))

(* --- output checks ------------------------------------------------------ *)

let smoke =
  { Harness.seed = 1; seconds = 10; smoke = true; scenarios = "../../scenarios" }

let perturb_report (r : Scenario.report) =
  match r.windows with
  | w :: rest -> (
      match w.rates with
      | (name, rate) :: rates ->
          let w = { w with rates = (name, rate +. 0.5) :: rates } in
          { r with windows = w :: rest }
      | [] -> Alcotest.fail "report window without rates")
  | [] -> Alcotest.fail "report without windows"

let perturb : Workloads.outcome -> Workloads.outcome = function
  | Report { report; serves } ->
      Report { report = perturb_report report; serves }
  | Stats st -> Stats { st with rs_decisions = st.rs_decisions + 1 }
  | Phases (w :: rest) ->
      let b = 1.5 *. Float.max w.(0) w.(2) in
      Phases (Array.mapi (fun i g -> if Int.equal i 1 then b else g) w :: rest)
  | Phases [] -> Alcotest.fail "no phase windows"

(* One genuine output passes; the same output perturbed fails, and the
   rep loop's failure count sees exactly that one. *)
let test_check name () =
  let p = Workloads.prepare smoke name in
  let good = p.rep () in
  Alcotest.(check bool) "genuine output passes" true (p.check good);
  Alcotest.(check int) "perturbed output counted" 1
    (Harness.failures ~check:p.check [| good; perturb good |])

let () =
  Alcotest.run "bench_suite"
    [
      ( "tracer",
        [
          Alcotest.test_case "calibration" `Quick test_calibration;
          Alcotest.test_case "nested self times" `Quick test_nested_self_times;
          Alcotest.test_case "sampled estimates" `Quick test_sampled_estimates;
          Alcotest.test_case "unbalanced spans" `Quick test_unbalanced;
        ] );
      ( "checks",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_check name))
          Workloads.names );
    ]
