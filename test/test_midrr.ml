(* Tests for the miDRR scheduler: the paper's worked examples, service-flag
   behavior, and the deficit/fairness bounds of Section 4. *)

open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Meter = Midrr_sim.Meter
module Cluster = Midrr_flownet.Cluster

let check_close ?(tol = 0.05) what expected got =
  if Float.abs (expected -. got) > tol *. Float.max 1.0 (Float.abs expected)
  then
    Alcotest.failf "%s: expected %.4f, got %.4f (tol %.3g)" what expected got
      tol

(* Run backlogged flows over interfaces for [horizon] seconds and return the
   measured steady-state rate of each flow in Mb/s, skipping the first
   [warmup] seconds. *)
let measure_rates ?(horizon = 30.0) ?(warmup = 5.0) ~sched ~ifaces ~flows () =
  let sim = Netsim.create ~bin:0.5 ~sched () in
  List.iter (fun (j, rate) -> Netsim.add_iface sim j (Link.constant rate)) ifaces;
  List.iter
    (fun (f, weight, allowed) ->
      Netsim.add_flow sim f ~weight ~allowed (Backlogged { pkt_size = 1000 }))
    flows;
  Netsim.run sim ~until:horizon;
  List.map
    (fun (f, _, _) -> (f, Netsim.avg_rate sim f ~t0:warmup ~t1:horizon))
    flows

(* --- Figure 1 golden cases --------------------------------------------- *)

(* Fig. 1(a): one 2 Mb/s interface, two equal flows -> 1 Mb/s each. *)
let test_fig1a () =
  let sched = Midrr.packed (Midrr.create ()) in
  let rates =
    measure_rates ~sched
      ~ifaces:[ (0, Types.mbps 2.0) ]
      ~flows:[ (0, 1.0, [ 0 ]); (1, 1.0, [ 0 ]) ]
      ()
  in
  List.iter (fun (f, r) -> check_close (Printf.sprintf "flow %d" f) 1.0 r) rates

(* Fig. 1(b): two 1 Mb/s interfaces, both flows willing to use both ->
   1 Mb/s each. *)
let test_fig1b () =
  let sched = Midrr.packed (Midrr.create ()) in
  let rates =
    measure_rates ~sched
      ~ifaces:[ (0, Types.mbps 1.0); (1, Types.mbps 1.0) ]
      ~flows:[ (0, 1.0, [ 0; 1 ]); (1, 1.0, [ 0; 1 ]) ]
      ()
  in
  List.iter (fun (f, r) -> check_close (Printf.sprintf "flow %d" f) 1.0 r) rates

(* Fig. 1(c): flow a may use both interfaces, flow b only interface 2.
   miDRR must find the max-min allocation of 1 Mb/s each (not WFQ's
   1.5 / 0.5 split). *)
let test_fig1c_midrr () =
  let sched = Midrr.packed (Midrr.create ()) in
  let rates =
    measure_rates ~sched
      ~ifaces:[ (0, Types.mbps 1.0); (1, Types.mbps 1.0) ]
      ~flows:[ (0, 1.0, [ 0; 1 ]); (1, 1.0, [ 1 ]) ]
      ()
  in
  List.iter (fun (f, r) -> check_close (Printf.sprintf "flow %d" f) 1.0 r) rates

(* Same topology under naive per-interface DRR: flow a should get ~1.5 and
   flow b ~0.5 — the failure the paper's introduction demonstrates. *)
let test_fig1c_naive_drr () =
  let sched = Drr.packed (Drr.create ()) in
  let rates =
    measure_rates ~sched
      ~ifaces:[ (0, Types.mbps 1.0); (1, Types.mbps 1.0) ]
      ~flows:[ (0, 1.0, [ 0; 1 ]); (1, 1.0, [ 1 ]) ]
      ()
  in
  check_close "flow a (naive)" 1.5 (List.assoc 0 rates);
  check_close "flow b (naive)" 0.5 (List.assoc 1 rates)

(* §1's infeasible rate preference: phi_b = 2 phi_a but b only uses
   interface 2.  Work conservation wins: both get 1 Mb/s. *)
let test_infeasible_rate_pref () =
  let sched = Midrr.packed (Midrr.create ()) in
  let rates =
    measure_rates ~sched
      ~ifaces:[ (0, Types.mbps 1.0); (1, Types.mbps 1.0) ]
      ~flows:[ (0, 1.0, [ 0; 1 ]); (1, 2.0, [ 1 ]) ]
      ()
  in
  check_close "flow a" 1.0 (List.assoc 0 rates);
  check_close "flow b" 1.0 (List.assoc 1 rates)

(* Weighted sharing on one interface: weights 1:2 -> 1/3 and 2/3. *)
let test_weighted_single_iface () =
  let sched = Midrr.packed (Midrr.create ()) in
  let rates =
    measure_rates ~sched
      ~ifaces:[ (0, Types.mbps 3.0) ]
      ~flows:[ (0, 1.0, [ 0 ]); (1, 2.0, [ 0 ]) ]
      ()
  in
  check_close "flow a" 1.0 (List.assoc 0 rates);
  check_close "flow b" 2.0 (List.assoc 1 rates)

(* --- Figure 6: the paper's 3-flow / 2-interface simulation -------------- *)

let fig6_sim () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~bin:1.0 ~sched () in
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 3.0));
  Netsim.add_iface sim 2 (Link.constant (Types.mbps 10.0));
  (* Sizes chosen so flow a completes near t=66 s (3 Mb/s * 66 s) and
     flow b near t=85 s (20/3 Mb/s * 66 s + 26/3 Mb/s * 19 s). *)
  let mb_to_bytes mb = int_of_float (mb *. 1e6 /. 8.0) in
  Netsim.add_flow sim 10 ~weight:1.0 ~allowed:[ 1 ]
    (Finite { total_bytes = mb_to_bytes 198.0; pkt_size = 1500 });
  Netsim.add_flow sim 11 ~weight:2.0 ~allowed:[ 1; 2 ]
    (Finite { total_bytes = mb_to_bytes 604.67; pkt_size = 1500 });
  Netsim.add_flow sim 12 ~weight:1.0 ~allowed:[ 2 ]
    (Backlogged { pkt_size = 1500 });
  Netsim.run sim ~until:100.0;
  sim

let test_fig6_phases () =
  let sim = fig6_sim () in
  (* Phase 1 (steady part): a=3, b=6.67, c=3.33. *)
  check_close "a phase1" 3.0 (Netsim.avg_rate sim 10 ~t0:10.0 ~t1:60.0);
  check_close "b phase1" 6.67 (Netsim.avg_rate sim 11 ~t0:10.0 ~t1:60.0);
  check_close "c phase1" 3.33 (Netsim.avg_rate sim 12 ~t0:10.0 ~t1:60.0);
  (* Completion times. *)
  (match Netsim.completion_time sim 10 with
  | Some t -> check_close ~tol:0.03 "a completion" 66.0 t
  | None -> Alcotest.fail "flow a never completed");
  (match Netsim.completion_time sim 11 with
  | Some t -> check_close ~tol:0.03 "b completion" 85.0 t
  | None -> Alcotest.fail "flow b never completed")

let test_fig6_phase2_and_3 () =
  let sim = fig6_sim () in
  let a_done = Option.get (Netsim.completion_time sim 10) in
  let b_done = Option.get (Netsim.completion_time sim 11) in
  (* Phase 2: b aggregates both interfaces at 8.67, c rises to 4.33. *)
  check_close "b phase2" 8.67
    (Netsim.avg_rate sim 11 ~t0:(a_done +. 2.0) ~t1:(b_done -. 2.0));
  check_close "c phase2" 4.33
    (Netsim.avg_rate sim 12 ~t0:(a_done +. 2.0) ~t1:(b_done -. 2.0));
  (* Phase 3: c alone on interface 2 at 10 Mb/s. *)
  check_close "c phase3" 10.0
    (Netsim.avg_rate sim 12 ~t0:(b_done +. 2.0) ~t1:99.0)

(* --- service flag mechanics -------------------------------------------- *)

(* In the Fig. 1(c) steady state, interface 1 serves only flow a, so flow
   a's flag at interface 2 should be repeatedly set. *)
let test_service_flags_separate_clusters () =
  let m = Midrr.create () in
  let sched = Midrr.packed m in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 1.0));
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 1.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0; 1 ]
    (Backlogged { pkt_size = 1000 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1 ]
    (Backlogged { pkt_size = 1000 });
  Netsim.run sim ~until:20.0;
  (* Steady state: interface 1 carries (nearly) only flow b. *)
  let a_on_1 = Netsim.served_cell sim ~flow:0 ~iface:1 in
  let b_on_1 = Netsim.served_cell sim ~flow:1 ~iface:1 in
  if a_on_1 * 10 > b_on_1 then
    Alcotest.failf "interface 1 served flow a too much: a=%dB b=%dB" a_on_1
      b_on_1;
  (* And flow a's service at interface 0 keeps the flag for (a, iface 1)
     set in steady state. *)
  Alcotest.(check bool)
    "flag(a, if1) set" true
    (Drr_engine.service_flag m ~flow:0 ~iface:1)

(* Deficit counter bound (Lemma 3): each interface runs its own DRR, so
   every per-link deficit counter DC_ij stays within
   [0, Q_i + MaxSize) at all times. *)
let test_deficit_bounds () =
  let m = Midrr.create ~base_quantum:1500 () in
  Drr_engine.add_iface m 0;
  Drr_engine.add_iface m 1;
  Drr_engine.add_flow m ~flow:0 ~weight:1.0 ~allowed:[ 0; 1 ];
  Drr_engine.add_flow m ~flow:1 ~weight:2.0 ~allowed:[ 1 ];
  Drr_engine.add_flow m ~flow:2 ~weight:1.0 ~allowed:[ 0 ];
  let rng = Midrr_stats.Rng.create ~seed:42 in
  for _ = 1 to 5000 do
    (* Random arrivals keep queues partially loaded. *)
    if Midrr_stats.Rng.bool rng then begin
      let flow = Midrr_stats.Rng.int rng ~bound:3 in
      let size = 64 + Midrr_stats.Rng.int rng ~bound:1436 in
      ignore
        (Drr_engine.enqueue m (Packet.create ~flow ~size ~arrival:0.0))
    end;
    let iface = Midrr_stats.Rng.int rng ~bound:2 in
    ignore (Drr_engine.next_packet m iface);
    List.iter
      (fun f ->
        let q = Drr_engine.quantum m f in
        List.iter
          (fun j ->
            let dc = Drr_engine.deficit_on m ~flow:f ~iface:j in
            if dc < 0.0 || dc > q +. 1500.0 then
              Alcotest.failf
                "deficit out of bounds: flow %d iface %d dc=%.1f q=%.1f" f j
                dc q)
          [ 0; 1 ])
      (Drr_engine.flows m)
  done

(* Interface preferences are sacrosanct: packets only appear on allowed
   interfaces (checked against the naive baseline too). *)
let test_preferences_respected () =
  List.iter
    (fun sched ->
      let sim = Netsim.create ~sched () in
      Netsim.add_iface sim 0 (Link.constant (Types.mbps 5.0));
      Netsim.add_iface sim 1 (Link.constant (Types.mbps 2.0));
      Netsim.add_iface sim 2 (Link.constant (Types.mbps 1.0));
      Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
        (Backlogged { pkt_size = 700 });
      Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1; 2 ]
        (Backlogged { pkt_size = 900 });
      Netsim.add_flow sim 2 ~weight:3.0 ~allowed:[ 0; 2 ]
        (Backlogged { pkt_size = 1200 });
      Netsim.run sim ~until:10.0;
      List.iter
        (fun (f, banned) ->
          List.iter
            (fun j ->
              let b = Netsim.served_cell sim ~flow:f ~iface:j in
              if b > 0 then
                Alcotest.failf "flow %d served %dB on banned interface %d" f b
                  j)
            banned)
        [ (0, [ 1; 2 ]); (1, [ 0 ]); (2, [ 1 ]) ])
    [ Midrr.packed (Midrr.create ()); Drr.packed (Drr.create ()) ]

(* Dynamic behavior: adding an interface mid-run raises rates (property 4:
   use new capacity). *)
let test_new_interface_capacity () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 2.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0; 1 ]
    (Backlogged { pkt_size = 1000 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 0; 1 ]
    (Backlogged { pkt_size = 1000 });
  Netsim.at sim 20.0 (fun () ->
      Netsim.add_iface sim 1 (Link.constant (Types.mbps 4.0)));
  Netsim.run sim ~until:40.0;
  check_close "flow 0 before" 1.0 (Netsim.avg_rate sim 0 ~t0:5.0 ~t1:19.0);
  check_close "flow 0 after" 3.0 (Netsim.avg_rate sim 0 ~t0:25.0 ~t1:39.0);
  check_close "flow 1 after" 3.0 (Netsim.avg_rate sim 1 ~t0:25.0 ~t1:39.0)

(* The Fig. 6 phase-1 topology, backlogged, judged over 5-35 s. *)
let fig6_phase1 =
  lazy
    (let sched = Midrr.packed (Midrr.create ()) in
     let sim = Netsim.create ~sched () in
     Netsim.add_iface sim 0 (Link.constant (Types.mbps 3.0));
     Netsim.add_iface sim 1 (Link.constant (Types.mbps 10.0));
     Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
       (Backlogged { pkt_size = 1500 });
     Netsim.add_flow sim 1 ~weight:2.0 ~allowed:[ 0; 1 ]
       (Backlogged { pkt_size = 1500 });
     Netsim.add_flow sim 2 ~weight:1.0 ~allowed:[ 1 ]
       (Backlogged { pkt_size = 1500 });
     let judged = Netsim.window sim ~t0:5.0 ~t1:35.0 ~judge:(fun _ -> true) in
     Netsim.run sim ~until:35.0;
     (sim, judged ()))

(* Measured allocation satisfies the rate clustering property (Theorem 2). *)
let test_rate_clustering_measured () =
  let _, { Meter.instance; share; rates; _ } = Lazy.force fig6_phase1 in
  (* Allow 2% tolerance: packetization wobbles around the fluid rates. *)
  let violations = Cluster.check ~tol:0.02 instance ~share ~rates in
  match violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "rate clustering violated: %a" Cluster.pp_violation v

(* The measured rates match the water-filling reference on the same
   instance. *)
let test_matches_reference () =
  let sim, { Meter.reference; _ } = Lazy.force fig6_phase1 in
  List.iteri
    (fun i f ->
      let measured = Netsim.avg_rate sim f ~t0:5.0 ~t1:35.0 in
      check_close
        (Printf.sprintf "flow %d vs reference" f)
        (Types.to_mbps reference.rates.(i))
        measured)
    [ 0; 1; 2 ]

(* Lemma 6: two flows served by the same interface (same cluster) keep
   their weighted service difference bounded by a constant — it must not
   grow with the measurement window.  Flows b (phi = 2) and c (phi = 1)
   share interface 2 in the Fig. 6 topology; over a 60 s window they move
   ~50 MB, while |FM| must stay within a few packets. *)
let test_lemma6_service_bound () =
  let m = Midrr.create ~base_quantum:1500 () in
  let sched = Midrr.packed m in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 3.0));
  Netsim.add_iface sim 2 (Link.constant (Types.mbps 10.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 1 ]
    (Netsim.Backlogged { pkt_size = 1500 });
  Netsim.add_flow sim 1 ~weight:2.0 ~allowed:[ 1; 2 ]
    (Netsim.Backlogged { pkt_size = 1500 });
  Netsim.add_flow sim 2 ~weight:1.0 ~allowed:[ 2 ]
    (Netsim.Backlogged { pkt_size = 1500 });
  (* Skip the convergence transient, then measure cumulative service. *)
  let served f = Sched_intf.Packed.served_bytes sched f in
  let base = ref (0, 0) in
  Netsim.at sim 5.0 (fun () -> base := (served 1, served 2));
  Netsim.run sim ~until:65.0;
  let s_b = served 1 - fst !base and s_c = served 2 - snd !base in
  (* Definition 3: FM_{b->c} = S_b/phi_b - S_c/phi_c, with phi_b = 2. *)
  let fm = (Float.of_int s_b /. 2.0) -. Float.of_int s_c in
  if s_b < 40_000_000 then Alcotest.failf "too little service: %d" s_b;
  (* Bound: one quantum per interface per flow plus two max packets, with
     2x slack for the shared-cluster drift across both interfaces. *)
  if Float.abs fm > 20_000.0 then
    Alcotest.failf "Lemma 6 bound violated: |FM| = %.0f bytes over %d bytes"
      (Float.abs fm) s_b

(* Theorem 2's conditions, judged on every 5 s window of [0, 30] as
   fig6's phases are: quiet on miDRR, violated by the unfair
   per-interface DRR split in the same scenario.  Returns each window's
   violations.  The 3% tolerance is 30 kb/s per unit weight here. *)
let run_with_monitor sched =
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 1.0));
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 1.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0; 1 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  let windows =
    List.init 6 (fun k ->
        let t0 = Float.of_int k *. 5.0 in
        Netsim.window sim ~t0 ~t1:(t0 +. 5.0) ~judge:(fun _ -> true))
  in
  Netsim.run sim ~until:31.0;
  List.map (fun w -> (w ()).Meter.violations) windows

let test_clustering_quiet_on_midrr () =
  let windows = run_with_monitor (Midrr.packed (Midrr.create ())) in
  Alcotest.(check int) "windows ran" 6 (List.length windows);
  List.iter
    (function
      | [] -> ()
      | v :: _ -> Alcotest.failf "violation: %a" Cluster.pp_violation v)
    windows

let test_clustering_flags_naive_drr () =
  let windows = run_with_monitor (Drr.packed (Drr.create ())) in
  (* Naive DRR gives 1.5/0.5 while both flows draw from interface 1: the
     same-cluster equality condition is violated every window. *)
  let violating = List.length (List.filter (fun vs -> vs <> []) windows) in
  Alcotest.(check bool) "violations raised" true (violating >= 3);
  let spread =
    List.fold_left
      (List.fold_left (fun acc -> function
         | Cluster.Unequal_rates_in_cluster { spread; _ } -> Float.max acc spread
         | _ -> acc))
      0.0 windows
  in
  (* 160 kb/s per unit weight: 100 kB per unit weight per 5 s window. *)
  Alcotest.(check bool) "violation magnitude" true (spread > 160e3)

(* Regression: the adversarial instance where the published 1-bit flag
   deviates from max-min (the fully multi-homed ablation).  Every flow of
   the slow interfaces is also served on the fast one, so Algorithm 3.2's
   skip loop consumes all flags in one lap and falls back to round robin.
   The counter-flag extension (counter_max = 4) recovers the reference
   allocation exactly; the published algorithm must stay strictly better
   than naive DRR.  Rates in Mb/s. *)
module Ablation = Midrr_experiments.Ablation

let deviation measured reference =
  let acc = ref 0.0 in
  Array.iteri
    (fun i r -> acc := !acc +. Float.abs (r -. reference.(i)))
    measured;
  !acc

let test_adversarial_one_bit_bounded () =
  let reference = Ablation.multihomed_reference () in
  let measured = Ablation.multihomed_rates (Midrr.packed (Midrr.create ())) in
  let naive = Ablation.multihomed_rates (Drr.packed (Drr.create ())) in
  (* The 1-bit flag deviates here (documented fidelity limit) but beats the
     uncoordinated baseline. *)
  let d_midrr = deviation measured reference in
  let d_naive = deviation naive reference in
  if d_midrr >= d_naive then
    Alcotest.failf "1-bit midrr (%.3f) not better than naive (%.3f)" d_midrr
      d_naive

let test_adversarial_counter_exact () =
  let reference = Ablation.multihomed_reference () in
  let measured =
    Ablation.multihomed_rates (Midrr.packed (Midrr.create ~counter_max:4 ()))
  in
  Array.iteri
    (fun i r ->
      check_close ~tol:0.03
        (Printf.sprintf "counter-flag flow %d" i)
        reference.(i) r)
    measured

let () =
  Alcotest.run "midrr"
    [
      ( "figure1",
        [
          Alcotest.test_case "fig1a single iface" `Quick test_fig1a;
          Alcotest.test_case "fig1b no prefs" `Quick test_fig1b;
          Alcotest.test_case "fig1c midrr max-min" `Quick test_fig1c_midrr;
          Alcotest.test_case "fig1c naive drr fails" `Quick
            test_fig1c_naive_drr;
          Alcotest.test_case "infeasible rate pref" `Quick
            test_infeasible_rate_pref;
          Alcotest.test_case "weighted single iface" `Quick
            test_weighted_single_iface;
        ] );
      ( "figure6",
        [
          Alcotest.test_case "phase rates and completions" `Slow
            test_fig6_phases;
          Alcotest.test_case "phases 2 and 3" `Slow test_fig6_phase2_and_3;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "service flags cluster split" `Quick
            test_service_flags_separate_clusters;
          Alcotest.test_case "deficit bounds" `Quick test_deficit_bounds;
          Alcotest.test_case "preferences respected" `Quick
            test_preferences_respected;
          Alcotest.test_case "new interface capacity" `Quick
            test_new_interface_capacity;
          Alcotest.test_case "rate clustering measured" `Quick
            test_rate_clustering_measured;
          Alcotest.test_case "matches water-filling reference" `Quick
            test_matches_reference;
        ] );
      ( "lemmas",
        [
          Alcotest.test_case "lemma 6 service bound" `Quick
            test_lemma6_service_bound;
        ] );
      ( "fairmon",
        [
          Alcotest.test_case "quiet on midrr" `Quick test_clustering_quiet_on_midrr;
          Alcotest.test_case "flags naive drr" `Quick
            test_clustering_flags_naive_drr;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "one-bit beats naive" `Slow
            test_adversarial_one_bit_bounded;
          Alcotest.test_case "counter flags exact" `Slow
            test_adversarial_counter_exact;
        ] );
    ]
