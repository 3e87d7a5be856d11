(* Integration tests: the experiment harness reproduces the paper's
   headline shapes. *)

module E = Midrr_experiments

let close ?(tol = 0.05) what expected got =
  if Float.abs (expected -. got) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.4f, got %.4f" what expected got

(* --- Fig. 1 ---------------------------------------------------------------- *)

let fig1 = lazy (E.Fig1.run ~horizon:20.0 ())

let find label =
  List.find (fun (s : E.Fig1.scenario) -> s.label = label) (Lazy.force fig1)

let test_fig1c_shapes () =
  let s = find "fig1c" in
  let midrr = List.assoc "midrr" s.measured in
  let drr = List.assoc "drr-naive" s.measured in
  let wfq = List.assoc "wfq" s.measured in
  close "midrr a" 1.0 midrr.(0);
  close "midrr b" 1.0 midrr.(1);
  close "naive drr a" 1.5 drr.(0);
  close "naive drr b" 0.5 drr.(1);
  close "wfq a" 1.5 wfq.(0);
  close "wfq b" 0.5 wfq.(1);
  close "reference a" 1.0 s.reference.(0)

let test_fig1_weighted_infeasible () =
  let s = find "fig1c-weighted" in
  let midrr = List.assoc "midrr" s.measured in
  close "work conservation beats rate pref (a)" 1.0 midrr.(0);
  close "work conservation beats rate pref (b)" 1.0 midrr.(1)

let test_fig1_no_pref_cases () =
  let a = find "fig1a" and b = find "fig1b" in
  List.iter
    (fun (s : E.Fig1.scenario) ->
      List.iter
        (fun (algo, rates) ->
          close (s.label ^ "/" ^ algo ^ " a") 1.0 rates.(0);
          close (s.label ^ "/" ^ algo ^ " b") 1.0 rates.(1))
        s.measured)
    [ a; b ]

(* --- Theorem 1 --------------------------------------------------------------- *)

let test_theorem1_order_flips () =
  let r = E.Theorem1.run () in
  Alcotest.(check bool) "order flips" true r.order_flips;
  Alcotest.(check bool) "scenario 1: b first" true
    (r.without_arrivals.first = `B);
  Alcotest.(check bool) "scenario 2: a first" true (r.with_arrivals.first = `A)

(* --- Fig. 6 / 8 ---------------------------------------------------------------- *)

let fig6 = lazy (E.Fig6.run ())

(* Measured Mb/s of the [i]-th flow a phase judges, in id order. *)
let mbps (p : E.Fig6.phase) i = Midrr_core.Types.to_mbps p.window.rates.(i)

let test_fig6_shape () =
  let r = Lazy.force fig6 in
  close ~tol:0.03 "a completes" 66.0 r.completion_a;
  close ~tol:0.03 "b completes" 85.0 r.completion_b;
  match r.phases with
  | [ p1; p2; p3 ] ->
      close "p1 a" 3.0 (mbps p1 0);
      close "p1 b" 6.67 (mbps p1 1);
      close "p1 c" 3.33 (mbps p1 2);
      close "p2 b" 8.67 (mbps p2 0);
      close "p2 c" 4.33 (mbps p2 1);
      close "p3 c" 10.0 (mbps p3 0);
      List.iter
        (fun (p : E.Fig6.phase) ->
          Alcotest.(check int)
            (p.label ^ " clustering clean")
            0
            (List.length p.window.violations))
        [ p1; p2; p3 ]
  | _ -> Alcotest.fail "expected three phases"

let test_fig8_cluster_structure () =
  let r = Lazy.force fig6 in
  match List.map (fun (p : E.Fig6.phase) -> p.window.clusters) r.phases with
  | [ p1; p2; p3 ] ->
      (* Phase 1: {a | if1} and {b, c | if2}. *)
      Alcotest.(check int) "p1 two clusters" 2 (List.length p1);
      (* Phase 2: one cluster spanning both interfaces. *)
      let spanning =
        List.exists
          (fun (c : Midrr_flownet.Cluster.t) -> List.length c.ifaces = 2)
          p2
      in
      Alcotest.(check bool) "p2 spans both interfaces" true spanning;
      (* Phase 3: c alone on interface 2; interface 1 idle. *)
      let c_cluster = Midrr_flownet.Cluster.find_cluster_of_flow p3 0 in
      close ~tol:0.02 "p3 c at 10" 10.0
        (Midrr_core.Types.to_mbps c_cluster.norm_rate)
  | _ -> Alcotest.fail "expected three phases"

let test_fig6_transient_converges () =
  let r = Lazy.force fig6 in
  (* Fig. 6(c): within the first five seconds the rates settle near the
     fair allocation; check the last transient bin for flow b. *)
  let b_series = List.assoc E.Fig6.flow_b r.transient in
  let _, last = b_series.(Array.length b_series - 1) in
  close ~tol:0.15 "b transient settles" 6.67 last

(* --- Fig. 7 ------------------------------------------------------------------------ *)

let test_fig7_statistics () =
  let r = E.Fig7.run ~days:3.0 () in
  if r.fraction_ge_7 < 0.03 || r.fraction_ge_7 > 0.25 then
    Alcotest.failf "P(>=7) = %.3f out of band" r.fraction_ge_7;
  if r.max_concurrent < 15 || r.max_concurrent > 70 then
    Alcotest.failf "max = %d out of band" r.max_concurrent;
  (* CDF is conditioned on being active: nothing below one flow. *)
  close ~tol:1e-9 "P(X<=0)" 0.0 (Midrr_stats.Cdf.eval r.cdf 0.0)

(* --- Fig. 9 ------------------------------------------------------------------------ *)

let test_fig9_shape () =
  let rows = E.Fig9.run ~quick:true ~iface_counts:[ 4; 16 ] () in
  match rows with
  | [ four; sixteen ] ->
      (* Decisions stay in the microsecond range even at 16 interfaces
         (paper: < 2.5 us on 2008 hardware; generous bound here). *)
      if sixteen.summary.median > 25_000.0 then
        Alcotest.failf "16-iface median %.0f ns too slow"
          sixteen.summary.median;
      if four.summary.median <= 0.0 then Alcotest.fail "empty samples";
      (* Sustained rate comfortably above the paper's 3 Gb/s claim. *)
      if sixteen.supported_gbps < 1.0 then
        Alcotest.failf "supported rate %.2f Gb/s too low"
          sixteen.supported_gbps
  | _ -> Alcotest.fail "expected two rows"

(* --- Fig. 10 / 11 ------------------------------------------------------------------- *)

let test_fig10_b_tracks_faster () =
  let r = E.Fig10.run () in
  List.iter
    (fun (p : E.Fig10.phase) ->
      if not p.b_tracks_faster then
        Alcotest.failf "%s: b does not track the faster flow" p.label)
    r.phases;
  (* The faster restricted flow alternates with the link speeds. *)
  let fast = List.map (fun (p : E.Fig10.phase) -> p.fast_flow) r.phases in
  Alcotest.(check (list string)) "alternation" [ "a"; "c"; "a"; "c" ] fast

let test_fig11_cluster_swap () =
  let r = E.Fig10.run () in
  match r.phases with
  | p1 :: p2 :: _ ->
      let b_with flow_idx (p : E.Fig10.phase) =
        let c =
          Midrr_flownet.Cluster.find_cluster_of_flow p.window.clusters 1
        in
        List.mem flow_idx c.flows
      in
      Alcotest.(check bool) "phase 1: b with a" true (b_with 0 p1);
      Alcotest.(check bool) "phase 2: b with c" true (b_with 2 p2)
  | _ -> Alcotest.fail "expected phases"

(* --- extended studies ---------------------------------------------------- *)

let test_granularity_shape () =
  let rows = E.Granularity.run ~chunk_sizes:[ 65536 ] () in
  match rows with
  | [ packets; chunks ] ->
      (* Counter-flag scheduling is near-exact at packet and chunk level;
         the 1-bit flag deviates on this cross-cluster topology at every
         granularity (the documented fidelity limit). *)
      if packets.max_deviation_pct > 3.0 then
        Alcotest.failf "packet-level counter dev %.1f%% too high"
          packets.max_deviation_pct;
      if chunks.max_deviation_pct > 5.0 then
        Alcotest.failf "chunk-level counter dev %.1f%% too high"
          chunks.max_deviation_pct;
      if chunks.max_deviation_one_bit_pct < 5.0 then
        Alcotest.failf "1-bit dev %.1f%% unexpectedly small"
          chunks.max_deviation_one_bit_pct
  | _ -> Alcotest.fail "expected two rows"

let test_convergence_shape () =
  let rows = E.Convergence.run ~quanta:[ 1000; 24000 ] () in
  match rows with
  | [ small; large ] ->
      (* Ripple grows with the quantum; decision cost falls. *)
      if not (large.ripple_pct > small.ripple_pct) then
        Alcotest.failf "ripple not increasing: %.2f vs %.2f" small.ripple_pct
          large.ripple_pct;
      if not (large.decisions_per_mb < small.decisions_per_mb) then
        Alcotest.fail "decision cost not decreasing";
      (* Both settle within the first seconds. *)
      if Float.is_nan small.settling_time || small.settling_time > 5.0 then
        Alcotest.failf "small quantum did not settle (%.2f)"
          small.settling_time
  | _ -> Alcotest.fail "expected two rows"

let test_churn_fairness () =
  let r = E.Churn.run ~seed:17 ~horizon:120.0 () in
  if r.windows < 5 then Alcotest.failf "only %d windows measured" r.windows;
  if r.mean_jain < 0.95 then
    Alcotest.failf "mean Jain %.4f below 0.95" r.mean_jain;
  if r.min_jain < 0.85 then Alcotest.failf "min Jain %.4f below 0.85" r.min_jain;
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check int) "no starvation" 0 r.starved_windows

let test_inbound_both_track () =
  let r = E.Inbound.run () in
  if r.mean_err_in_network > 2.0 then
    Alcotest.failf "in-network error %.2f%% too high" r.mean_err_in_network;
  if r.mean_err_client_http > 5.0 then
    Alcotest.failf "client-HTTP error %.2f%% too high" r.mean_err_client_http;
  (* The ideal deployment is at least as accurate as the compromise. *)
  if r.mean_err_in_network > r.mean_err_client_http +. 0.5 then
    Alcotest.fail "in-network less accurate than client HTTP"

let test_aggregation_efficiency () =
  let rows = E.Aggregation.run ~iface_counts:[ 1; 4; 8 ] () in
  List.iter
    (fun (r : E.Aggregation.row) ->
      if r.efficiency < 0.98 then
        Alcotest.failf "%d ifaces: efficiency %.4f below 0.98" r.n_ifaces
          r.efficiency;
      let err =
        Float.abs (r.aggregator_rate -. r.aggregator_reference)
        /. Float.max r.aggregator_reference 0.1
      in
      if err > 0.05 then
        Alcotest.failf "%d ifaces: aggregator off by %.1f%%" r.n_ifaces
          (100.0 *. err))
    rows

(* The flag-policy ablation: both flows' reference is 5 Mb/s.  Counter
   flags recover it; the paper's 1-bit flag, per turn or per send,
   over-serves the multi-homed flow D.  (test_midrr checks the
   multi-homed instance.) *)
let test_ablation_flag_policy () =
  let rows = (E.Ablation.run ()).flag_policy in
  let rates label =
    (List.find (fun (r : E.Ablation.row) -> String.equal r.label label) rows)
      .rates
  in
  List.iter
    (fun label -> Array.iter (close ~tol:0.03 label 5.0) (rates label))
    [ "midrr counter-4"; "midrr counter-16" ];
  List.iter
    (fun label ->
      let d = (rates label).(0) in
      if d < 5.5 then Alcotest.failf "%s: D = %.3f, expected over 5.5" label d)
    [ "midrr 1-bit (paper)"; "midrr 1-bit per-send"; "naive per-iface DRR" ]

(* Regression for the quantum-sensitivity finding: with quantum below the
   packet size, the published 1-bit flag collapses flow a's share on the
   paper's own Fig. 6 topology, while counter flags stay exact. *)
let test_subpacket_quantum_sensitivity () =
  let measure counter_max =
    let sched =
      Midrr_core.Midrr.packed
        (Midrr_core.Midrr.create ~base_quantum:300 ~counter_max ())
    in
    let sim = Midrr_sim.Netsim.create ~sched () in
    Midrr_sim.Netsim.add_iface sim 1
      (Midrr_sim.Link.constant (Midrr_core.Types.mbps 3.0));
    Midrr_sim.Netsim.add_iface sim 2
      (Midrr_sim.Link.constant (Midrr_core.Types.mbps 10.0));
    Midrr_sim.Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 1 ]
      (Midrr_sim.Netsim.Backlogged { pkt_size = 1000 });
    Midrr_sim.Netsim.add_flow sim 1 ~weight:2.0 ~allowed:[ 1; 2 ]
      (Midrr_sim.Netsim.Backlogged { pkt_size = 1000 });
    Midrr_sim.Netsim.add_flow sim 2 ~weight:1.0 ~allowed:[ 2 ]
      (Midrr_sim.Netsim.Backlogged { pkt_size = 1000 });
    Midrr_sim.Netsim.run sim ~until:30.0;
    Midrr_sim.Netsim.avg_rate sim 0 ~t0:10.0 ~t1:30.0
  in
  let one_bit = measure 1 and counter = measure 4 in
  close ~tol:0.03 "counter flags exact" 3.0 counter;
  if one_bit > 2.0 then
    Alcotest.failf
      "1-bit with sub-packet quantum gave %.3f — expected the documented \
       collapse below 2.0"
      one_bit

let () =
  Alcotest.run "experiments"
    [
      ( "fig1",
        [
          Alcotest.test_case "fig1c shapes" `Slow test_fig1c_shapes;
          Alcotest.test_case "weighted infeasible" `Slow
            test_fig1_weighted_infeasible;
          Alcotest.test_case "no-preference cases" `Slow
            test_fig1_no_pref_cases;
        ] );
      ( "theorem1",
        [ Alcotest.test_case "order flips" `Quick test_theorem1_order_flips ] );
      ( "fig6",
        [
          Alcotest.test_case "phases and completions" `Slow test_fig6_shape;
          Alcotest.test_case "fig8 clusters" `Slow test_fig8_cluster_structure;
          Alcotest.test_case "transient converges" `Slow
            test_fig6_transient_converges;
        ] );
      ( "fig7",
        [ Alcotest.test_case "statistics in band" `Slow test_fig7_statistics ]
      );
      ("fig9", [ Alcotest.test_case "overhead shape" `Slow test_fig9_shape ]);
      ( "fig10",
        [
          Alcotest.test_case "b tracks faster" `Slow test_fig10_b_tracks_faster;
          Alcotest.test_case "fig11 cluster swap" `Slow test_fig11_cluster_swap;
        ] );
      ( "studies",
        [
          Alcotest.test_case "granularity shape" `Slow test_granularity_shape;
          Alcotest.test_case "convergence shape" `Slow test_convergence_shape;
          Alcotest.test_case "churn fairness" `Slow test_churn_fairness;
          Alcotest.test_case "sub-packet quantum regression" `Slow
            test_subpacket_quantum_sensitivity;
          Alcotest.test_case "inbound ideal vs http" `Slow
            test_inbound_both_track;
          Alcotest.test_case "aggregation efficiency" `Slow
            test_aggregation_efficiency;
          Alcotest.test_case "ablation flag policy" `Slow
            test_ablation_flag_policy;
        ] );
    ]
