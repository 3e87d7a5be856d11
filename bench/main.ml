(* Benchmark and reproduction harness.

   Part 1 regenerates every figure of the paper's evaluation (there are no
   result tables in the paper; Table 1 is pseudocode) and prints the series
   each figure plots.  Part 2 runs bechamel micro-benchmarks of the
   scheduling decision (the quantity Fig. 9 profiles), the baselines, the
   flag-policy ablation, and the supporting substrates.

   Run with: dune exec bench/main.exe [-- --quick] *)

open Bechamel
module E = Midrr_experiments
open Midrr_core

let quick =
  Array.exists (fun a -> a = "--quick" || a = "-q") Sys.argv

let section title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

(* Run each part's body on the domain pool and print the rendered sections
   in declaration order.  Only for simulation-correctness parts — timing
   sections (bechamel, Fig. 9, the fast-path sweep) must keep the machine
   to themselves and stay serial. *)
let render_sections parts =
  let bodies = Midrr_par.Par.map (fun (_, render) -> render ()) parts in
  Array.iteri
    (fun i body ->
      section (fst parts.(i));
      Format.printf "%s" body)
    bodies

(* --- Part 1: figure reproductions ------------------------------------- *)

let reproduce_figures () =
  render_sections
    [|
      ( "Figure 1 / Section 1 examples",
        fun () -> Format.asprintf "%a@." E.Fig1.print (E.Fig1.run ()) );
      ( "Theorem 1 (Section 2.1) counterexample",
        fun () -> Format.asprintf "%a@." E.Theorem1.print (E.Theorem1.run ()) );
      ( "Figures 6 and 8: simulation of 3 flows over 2 interfaces",
        fun () ->
          let fig6 = E.Fig6.run () in
          Format.asprintf "%a@.%a@." E.Fig6.print fig6 E.Fig6.print_clusters
            fig6 );
      ( "Figure 7: concurrent flows on a smartphone",
        fun () -> Format.asprintf "%a@." E.Fig7.print (E.Fig7.run ()) );
      ( "Figures 10 and 11: HTTP proxy over fluctuating links",
        fun () ->
          let fig10 = E.Fig10.run () in
          Format.asprintf "%a@.%a@." E.Fig10.print fig10 E.Fig10.print_clusters
            fig10 );
    |];
  (* Fig. 9 measures decision latency: serial, after the pool is idle. *)
  section "Figure 9: scheduling overhead";
  Format.printf "%a@." E.Fig9.print (E.Fig9.run ~quick ());
  Format.printf "%a@." E.Fig9.print_flow_scaling
    (E.Fig9.run_flow_scaling ~quick ())

(* --- Part 2a: flag-policy ablation (rates, not time) ------------------- *)

(* The regime where the 1-bit service flag is stressed: asymmetric
   interface capacities and a cluster spanning both interfaces.  Reference
   max-min gives both flows 5 Mb/s. *)
let ablation_flag_policy () =
  section "Ablation: service-flag policy on asymmetric interfaces";
  Format.printf
    "Topology: if1 = 6 Mb/s (flows D, B), if2 = 4 Mb/s (flow D only).@.";
  Format.printf "Water-filling reference: D = 5.000, B = 5.000 Mb/s.@.";
  let run_with ?flag_policy ?counter_max label =
    let sched = Midrr.packed (Midrr.create ?flag_policy ?counter_max ()) in
    let sim = Midrr_sim.Netsim.create ~sched () in
    Midrr_sim.Netsim.add_iface sim 1
      (Midrr_sim.Link.constant (Types.mbps 6.0));
    Midrr_sim.Netsim.add_iface sim 2
      (Midrr_sim.Link.constant (Types.mbps 4.0));
    Midrr_sim.Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 1; 2 ]
      (Midrr_sim.Netsim.Backlogged { pkt_size = 1400 });
    Midrr_sim.Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1 ]
      (Midrr_sim.Netsim.Backlogged { pkt_size = 1000 });
    Midrr_sim.Netsim.run sim ~until:40.0;
    Format.printf "  %-22s D=%.3f B=%.3f Mb/s@." label
      (Midrr_sim.Netsim.avg_rate sim 0 ~t0:10.0 ~t1:40.0)
      (Midrr_sim.Netsim.avg_rate sim 1 ~t0:10.0 ~t1:40.0)
  in
  run_with "midrr 1-bit (paper)";
  run_with ~flag_policy:Drr_engine.Per_send "midrr 1-bit per-send";
  run_with ~counter_max:4 "midrr counter-4";
  run_with ~counter_max:16 "midrr counter-16";
  let sched = Drr.packed (Drr.create ()) in
  let sim = Midrr_sim.Netsim.create ~sched () in
  Midrr_sim.Netsim.add_iface sim 1 (Midrr_sim.Link.constant (Types.mbps 6.0));
  Midrr_sim.Netsim.add_iface sim 2 (Midrr_sim.Link.constant (Types.mbps 4.0));
  Midrr_sim.Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 1; 2 ]
    (Midrr_sim.Netsim.Backlogged { pkt_size = 1400 });
  Midrr_sim.Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1 ]
    (Midrr_sim.Netsim.Backlogged { pkt_size = 1000 });
  Midrr_sim.Netsim.run sim ~until:40.0;
  Format.printf "  %-22s D=%.3f B=%.3f Mb/s@." "naive per-iface DRR"
    (Midrr_sim.Netsim.avg_rate sim 0 ~t0:10.0 ~t1:40.0)
    (Midrr_sim.Netsim.avg_rate sim 1 ~t0:10.0 ~t1:40.0);
  Format.printf
    "(The paper's 1-bit flag deviates when a cluster spans interfaces of \
     unequal speed; the counter-flag@. extension recovers the reference \
     exactly — see EXPERIMENTS.md fidelity notes.)@."

(* The 4-flow instance where every flow of the slow interfaces is also
   served on the fast one: Algorithm 3.2's skip loop consumes every flag in
   one lap and degenerates to round robin.  Compares coordination schemes
   against the water-filling reference. *)
let ablation_adversarial () =
  section "Ablation: fully multi-homed flows on asymmetric interfaces";
  let weights = [| 2.32112; 2.16673; 2.96835; 3.61532 |] in
  let caps = [| 3.4666e6; 1.98332e7; 3.87589e6 |] in
  let allowed =
    [|
      [| false; true; true |];
      [| true; true; true |];
      [| true; true; false |];
      [| true; false; true |];
    |]
  in
  let inst = Midrr_flownet.Instance.make ~weights ~capacities:caps ~allowed in
  let reference = Midrr_flownet.Maxmin.solve inst in
  Format.printf "  %-22s" "reference";
  Array.iter (fun r -> Format.printf " %7.3f" (Types.to_mbps r)) reference.rates;
  Format.printf " Mb/s@.";
  let run_case label sched =
    let sim = Midrr_sim.Netsim.create ~sched () in
    Array.iteri
      (fun j c -> Midrr_sim.Netsim.add_iface sim j (Midrr_sim.Link.constant c))
      caps;
    Array.iteri
      (fun i w ->
        let al = List.filter (fun j -> allowed.(i).(j)) [ 0; 1; 2 ] in
        Midrr_sim.Netsim.add_flow sim i ~weight:w ~allowed:al
          (Midrr_sim.Netsim.Backlogged { pkt_size = 1000 }))
      weights;
    Midrr_sim.Netsim.run sim ~until:25.0;
    Format.printf "  %-22s" label;
    for i = 0 to 3 do
      Format.printf " %7.3f" (Midrr_sim.Netsim.avg_rate sim i ~t0:5.0 ~t1:25.0)
    done;
    Format.printf " Mb/s@."
  in
  run_case "midrr 1-bit (paper)" (Midrr.packed (Midrr.create ()));
  run_case "midrr counter-4" (Midrr.packed (Midrr.create ~counter_max:4 ()));
  run_case "midrr counter-16" (Midrr.packed (Midrr.create ~counter_max:16 ()));
  run_case "naive per-iface DRR" (Drr.packed (Drr.create ()));
  run_case "wfq per-iface" (Prog_wfq.packed (Prog_wfq.create ()));
  run_case "oracle (full info)"
    (Oracle.packed (Oracle.create ~capacity:(fun j -> caps.(j)) ()))

(* --- Part 2b: bechamel micro-benchmarks -------------------------------- *)

(* A scheduler kept in steady state: every popped packet is replaced by a
   fresh one for the same flow, so queue occupancy is invariant across
   benchmark iterations. *)
let steady_scheduler ?counter_max ~mode ~n_ifaces ~n_flows () =
  let t = Drr_engine.create ?counter_max mode in
  for j = 0 to n_ifaces - 1 do
    Drr_engine.add_iface t j
  done;
  for f = 0 to n_flows - 1 do
    Drr_engine.add_flow t ~flow:f ~weight:1.0
      ~allowed:(List.init n_ifaces Fun.id)
  done;
  let rng = Midrr_stats.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let flow = Midrr_stats.Rng.int rng ~bound:n_flows in
    ignore (Drr_engine.enqueue t (Packet.create ~flow ~size:1000 ~arrival:0.0))
  done;
  let iface = ref 0 in
  fun () ->
    let j = !iface in
    iface := (j + 1) mod n_ifaces;
    match Drr_engine.next_packet t j with
    | Some pkt ->
        ignore
          (Drr_engine.enqueue t
             (Packet.create ~flow:pkt.flow ~size:1000 ~arrival:0.0))
    | None -> ()

let steady_wfq ~n_ifaces ~n_flows =
  let t = Prog_wfq.create () in
  for j = 0 to n_ifaces - 1 do
    Prog_wfq.add_iface t j
  done;
  for f = 0 to n_flows - 1 do
    Prog_wfq.add_flow t ~flow:f ~weight:1.0 ~allowed:(List.init n_ifaces Fun.id)
  done;
  for f = 0 to n_flows - 1 do
    for _ = 1 to 1000 / n_flows do
      ignore (Prog_wfq.enqueue t (Packet.create ~flow:f ~size:1000 ~arrival:0.0))
    done
  done;
  let iface = ref 0 in
  fun () ->
    let j = !iface in
    iface := (j + 1) mod n_ifaces;
    match Prog_wfq.next_packet t j with
    | Some pkt ->
        ignore
          (Prog_wfq.enqueue t (Packet.create ~flow:pkt.flow ~size:1000 ~arrival:0.0))
    | None -> ()

let maxmin_instance n_flows n_ifaces seed =
  let rng = Midrr_stats.Rng.create ~seed in
  let weights =
    Array.init n_flows (fun _ -> Midrr_stats.Rng.uniform rng ~lo:1.0 ~hi:4.0)
  in
  let capacities =
    Array.init n_ifaces (fun _ ->
        Midrr_stats.Rng.uniform rng ~lo:1e6 ~hi:1e7)
  in
  let allowed =
    Array.init n_flows (fun _ ->
        let row =
          Array.init n_ifaces (fun _ -> Midrr_stats.Rng.bool rng)
        in
        if Array.for_all not row then row.(0) <- true;
        row)
  in
  Midrr_flownet.Instance.make ~weights ~capacities ~allowed

let tests () =
  let decision =
    Test.make_grouped ~name:"decision"
      (List.map
         (fun n ->
           Test.make
             ~name:(Printf.sprintf "midrr-%02dif" n)
             (Staged.stage
                (steady_scheduler ~mode:Drr_engine.Service_flags ~n_ifaces:n
                   ~n_flows:32 ())))
         [ 4; 8; 12; 16 ])
  in
  let baselines =
    Test.make_grouped ~name:"baseline"
      [
        Test.make ~name:"drr-naive-08if"
          (Staged.stage
             (steady_scheduler ~mode:Drr_engine.Plain ~n_ifaces:8 ~n_flows:32
                ()));
        Test.make ~name:"midrr-counter4-08if"
          (Staged.stage
             (steady_scheduler ~counter_max:4 ~mode:Drr_engine.Service_flags
                ~n_ifaces:8 ~n_flows:32 ()));
        Test.make ~name:"wfq-08if"
          (Staged.stage (steady_wfq ~n_ifaces:8 ~n_flows:32));
      ]
  in
  let solver =
    Test.make_grouped ~name:"maxmin"
      (List.map
         (fun (nf, ni) ->
           let inst = maxmin_instance nf ni 17 in
           Test.make
             ~name:(Printf.sprintf "solve-%02df-%02di" nf ni)
             (Staged.stage (fun () ->
                  ignore (Midrr_flownet.Maxmin.solve inst))))
         [ (8, 3); (24, 6) ])
  in
  let solver_exact =
    let inst =
      Midrr_flownet.Instance.make ~weights:[| 1.0; 2.0; 1.0; 3.0 |]
        ~capacities:[| 3e6; 1e7; 5e6 |]
        ~allowed:
          [|
            [| true; false; true |];
            [| true; true; false |];
            [| false; true; true |];
            [| true; true; true |];
          |]
    in
    Test.make ~name:"exact-rational-04f-03i"
      (Staged.stage (fun () ->
           ignore (Midrr_flownet.Maxmin_exact.solve_floats inst)))
  in
  let generators =
    Test.make_grouped ~name:"generator"
      [
        Test.make ~name:"rng-splitmix64"
          (let rng = Midrr_stats.Rng.create ~seed:9 in
           Staged.stage (fun () -> ignore (Midrr_stats.Rng.bits64 rng)));
        Test.make ~name:"trace-day"
          (Staged.stage (fun () ->
               ignore
                 (Midrr_trace.Gen.generate ~seed:2
                    { Midrr_trace.Gen.default_params with horizon = 86400.0 })));
        Test.make ~name:"cdf-1k-samples"
          (let rng = Midrr_stats.Rng.create ~seed:10 in
           let samples =
             Array.init 1000 (fun _ -> Midrr_stats.Rng.float rng)
           in
           Staged.stage (fun () ->
               ignore (Midrr_stats.Cdf.of_samples samples)));
      ]
  in
  let substrates =
    let vif_src =
      Midrr_bridge.Vif.addr ~mac:0x02_00_00_00_00_01L ~ip:0x0A000001l
    in
    let vif_dst =
      Midrr_bridge.Vif.addr ~mac:0x02_00_00_00_00_02L ~ip:0x0A000002l
    in
    let frame =
      Midrr_bridge.Vif.make ~src:vif_src ~dst:vif_dst
        (Packet.create ~flow:0 ~size:1500 ~arrival:0.0)
    in
    Test.make_grouped ~name:"substrate"
      [
        Test.make ~name:"event-queue-push-pop"
          (let q = Midrr_sim.Event_queue.create () in
           let rng = Midrr_stats.Rng.create ~seed:5 in
           for _ = 1 to 256 do
             Midrr_sim.Event_queue.push q
               ~time:(Midrr_stats.Rng.float rng)
               ()
           done;
           Staged.stage (fun () ->
               match Midrr_sim.Event_queue.pop q with
               | Some (t, ()) ->
                   Midrr_sim.Event_queue.push q ~time:(t +. 1.0) ()
               | None -> ()));
        Test.make ~name:"header-rewrite"
          (Staged.stage (fun () ->
               ignore
                 (Midrr_bridge.Vif.rewrite frame ~src:vif_dst ~dst:vif_src)));
        Test.make ~name:"enqueue"
          (let t = Drr_engine.create Drr_engine.Service_flags in
           Drr_engine.add_iface t 0;
           Drr_engine.add_flow t ~flow:0 ~weight:1.0 ~allowed:[ 0 ];
           Staged.stage (fun () ->
               ignore
                 (Drr_engine.enqueue t
                    (Packet.create ~flow:0 ~size:100 ~arrival:0.0));
               ignore (Drr_engine.next_packet t 0)));
      ]
  in
  Test.make_grouped ~name:"midrr"
    [
      decision;
      baselines;
      Test.make_grouped ~name:"maxmin-all" [ solver; solver_exact ];
      generators;
      substrates;
    ]

let run_benchmarks () =
  section "Micro-benchmarks (bechamel; ns per call, OLS estimate)";
  let quota = if quick then Time.millisecond 200. else Time.second 1. in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~stabilize:true () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances (tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort compare
  in
  Format.printf "  %-40s %12s %8s@." "benchmark" "ns/call" "r^2";
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> e
        | _ -> Float.nan
      in
      let r2 =
        Option.value (Analyze.OLS.r_square result) ~default:Float.nan
      in
      Format.printf "  %-40s %12.1f %8.4f@." name estimate r2)
    rows

(* --- Part 2c: observability overhead ----------------------------------- *)

(* Acceptance gate for the event bus: with no sink installed, the
   per-decision cost must be indistinguishable from the pre-bus engine
   (the emission site is one mutable-field match); with a sink attached,
   the cost of allocating and delivering the events is what's measured.
   Results go to BENCH_obs.json for machine consumption. *)
let bench_obs_overhead () =
  section "Observability: per-decision cost, sink disabled vs attached";
  let decisions = if quick then 5_000 else 50_000 in
  let measure ?sink label =
    let r = Midrr_bridge.Profiler.run ~n_ifaces:8 ~decisions ?sink () in
    let s = Midrr_bridge.Profiler.summary r in
    Format.printf "  %-14s median=%7.1f ns  p99=%8.1f ns@." label s.median
      s.p99;
    s
  in
  (* Warm up caches and the allocator so both variants see the same state. *)
  ignore (Midrr_bridge.Profiler.run ~n_ifaces:8 ~decisions:2_000 ());
  let off = measure "sink off" in
  let delivered = ref 0 in
  let on = measure ~sink:(fun _ -> incr delivered) "sink attached" in
  Format.printf "  events delivered with sink attached: %d@." !delivered;
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\"decisions\":%d,\"sink_disabled\":{\"median_ns\":%.1f,\"p99_ns\":%.1f},\"sink_attached\":{\"median_ns\":%.1f,\"p99_ns\":%.1f},\"events_delivered\":%d}\n"
    decisions off.median off.p99 on.median on.p99 !delivered;
  close_out oc;
  Format.printf "  written to BENCH_obs.json@."

(* --- Part 2d: fast-path sweep ------------------------------------------ *)

(* Decisions/sec of the two DRR engines as the *total* flow population
   grows with the *active* (backlogged) population held small — the regime
   the O(active) rewrite targets: a phone with thousands of registered
   flows but a handful transmitting.  The workload maximizes ring churn
   (each served flow drains and is immediately re-enqueued, so every
   decision exercises unlink + relink + cursor repositioning), which is
   where the intrusive rings and dense slot arrays beat the reference
   engine's allocated ring nodes and hashtable lookups.  Results go to
   BENCH_fastpath.json; the CI smoke job checks it parses. *)

module type ENGINE = sig
  type mode = Plain | Service_flags
  type flag_policy = Per_turn | Per_send
  type t

  val create :
    ?base_quantum:int ->
    ?queue_capacity:int ->
    ?flag_policy:flag_policy ->
    ?counter_max:int ->
    mode ->
    t

  val add_iface : t -> int -> unit
  val add_flow : t -> flow:int -> weight:float -> allowed:int list -> unit
  val enqueue : t -> Packet.t -> bool
  val next_packet : t -> int -> Packet.t option
end

let fastpath_engines : (string * (module ENGINE)) list =
  [ ("fast", (module Drr_engine)); ("ref", (module Drr_engine_ref)) ]

(* One measurement: [total] registered flows, [active] of them backlogged
   (spread evenly across the id space), [decisions] serve decisions round-
   robined over the interfaces.  Returns (ns, minor words) per decision —
   the workload itself allocates (a fresh packet per serve), so the words
   figure profiles the whole serve/re-enqueue loop, not the bare decision;
   [fastpath_alloc_gate] isolates the latter. *)
let fastpath_measure (module En : ENGINE) ~total ~active ~n_ifaces ~decisions =
  let t = En.create En.Service_flags in
  let all_ifaces = List.init n_ifaces Fun.id in
  for j = 0 to n_ifaces - 1 do
    En.add_iface t j
  done;
  for f = 0 to total - 1 do
    En.add_flow t ~flow:f ~weight:1.0 ~allowed:all_ifaces
  done;
  let stride = total / active in
  for i = 0 to active - 1 do
    ignore
      (En.enqueue t (Packet.create ~flow:(i * stride) ~size:1000 ~arrival:0.0))
  done;
  let serve_one j =
    match En.next_packet t j with
    | Some pkt ->
        (* The served flow drained (one packet per flow): re-enqueueing it
           replays the drain/reactivate transition every decision. *)
        ignore
          (En.enqueue t (Packet.create ~flow:pkt.flow ~size:1000 ~arrival:0.0))
    | None -> ()
  in
  (* Warm up structures and branch predictors outside the timed window. *)
  for d = 0 to (decisions / 10) - 1 do
    serve_one (d mod n_ifaces)
  done;
  let w0 = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  for d = 0 to decisions - 1 do
    serve_one (d mod n_ifaces)
  done;
  let t1 = Monotonic_clock.now () in
  let w1 = Gc.minor_words () in
  ( Int64.to_float (Int64.sub t1 t0) /. float_of_int decisions,
    (w1 -. w0) /. float_of_int decisions )

(* The allocation gate behind the BENCH_fastpath acceptance criterion: a
   sinkless fast-engine decision must allocate zero minor words.  Queues
   are prefilled deeper than the decision count so no flow drains inside
   the measured window — every decision is a pure pop (plus turn top-ups
   and flag advancement) through [next_packet_noalloc].  [Gc.minor_words]
   itself boxes the float it returns, so the per-decision figure carries a
   vanishing constant; below a hundredth of a word is genuinely
   allocation-free and reported as 0. *)
let fastpath_alloc_gate () =
  let n_flows = 64 and n_ifaces = 4 in
  let decisions = if quick then 20_000 else 100_000 in
  let t = Drr_engine.create Drr_engine.Service_flags in
  for j = 0 to n_ifaces - 1 do
    Drr_engine.add_iface t j
  done;
  let all_ifaces = List.init n_ifaces Fun.id in
  for f = 0 to n_flows - 1 do
    Drr_engine.add_flow t ~flow:f ~weight:1.0 ~allowed:all_ifaces
  done;
  let warmup = decisions / 10 in
  let per_flow = ((decisions + warmup) / n_flows) + 64 in
  for f = 0 to n_flows - 1 do
    for _ = 1 to per_flow do
      ignore
        (Drr_engine.enqueue t (Packet.create ~flow:f ~size:1000 ~arrival:0.0))
    done
  done;
  for d = 0 to warmup - 1 do
    ignore (Drr_engine.next_packet_noalloc t (d mod n_ifaces))
  done;
  let w0 = Gc.minor_words () in
  for d = 0 to decisions - 1 do
    ignore (Drr_engine.next_packet_noalloc t (d mod n_ifaces))
  done;
  let w1 = Gc.minor_words () in
  let per_decision = (w1 -. w0) /. float_of_int decisions in
  Format.printf
    "  sinkless pure decision: %.4f minor words/decision over %d decisions@."
    per_decision decisions;
  if per_decision < 0.01 then 0.0 else per_decision

let bench_fastpath () =
  section "Fast path: decisions/sec vs total flows at small active sets";
  let n_ifaces = 4 in
  let decisions = if quick then 20_000 else 200_000 in
  let totals = if quick then [ 64; 1_000 ] else [ 64; 1_000; 10_000 ] in
  let fractions = [ 0.01; 0.05 ] in
  let grid =
    List.concat_map
      (fun total ->
        List.filter_map
          (fun frac ->
            let active =
              Stdlib.max 2 (int_of_float (float_of_int total *. frac))
            in
            if active >= total then None else Some (total, active))
          fractions)
      totals
    |> List.sort_uniq compare
  in
  Format.printf "  %-6s %10s %10s %14s %16s %14s@." "engine" "flows" "active"
    "ns/decision" "decisions/sec" "words/decision";
  let rows =
    List.concat_map
      (fun (total, active) ->
        List.map
          (fun (label, engine) ->
            let ns, mw =
              fastpath_measure engine ~total ~active ~n_ifaces ~decisions
            in
            Format.printf "  %-6s %10d %10d %14.1f %16.0f %14.2f@." label total
              active ns (1e9 /. ns) mw;
            (label, total, active, ns, mw))
          fastpath_engines)
      grid
  in
  (* Headline numbers: scaling flatness of the fast engine and its speedup
     over the reference at the largest total / smallest active point. *)
  let ns_of label total active =
    List.find_map
      (fun (l, t, a, ns, _) ->
        if l = label && t = total && a = active then Some ns else None)
      rows
  in
  let min_total = List.fold_left (fun m (t, _) -> Stdlib.min m t) max_int grid
  and max_total = List.fold_left (fun m (t, _) -> Stdlib.max m t) 0 grid in
  let small_active total =
    List.filter_map (fun (t, a) -> if t = total then Some a else None) grid
    |> List.fold_left Stdlib.min max_int
  in
  (match
     ( ns_of "fast" min_total (small_active min_total),
       ns_of "fast" max_total (small_active max_total),
       ns_of "ref" max_total (small_active max_total) )
   with
  | Some ns_small, Some ns_big, Some ns_ref ->
      Format.printf
        "  fast-engine scaling %dx flows: %.2fx ns/decision (gate: <= 2x)@."
        (max_total / min_total) (ns_big /. ns_small);
      Format.printf "  speedup over ref at %d flows / %d active: %.2fx@."
        max_total (small_active max_total) (ns_ref /. ns_big)
  | _ -> ());
  let sinkless_words = fastpath_alloc_gate () in
  let oc = open_out "BENCH_fastpath.json" in
  Printf.fprintf oc
    "{\"decisions\":%d,\"n_ifaces\":%d,\"sinkless_minor_words_per_decision\":%.2f,\"results\":["
    decisions n_ifaces sinkless_words;
  List.iteri
    (fun i (label, total, active, ns, mw) ->
      Printf.fprintf oc
        "%s{\"engine\":%S,\"total_flows\":%d,\"active_flows\":%d,\"ns_per_decision\":%.1f,\"decisions_per_sec\":%.0f,\"minor_words_per_decision\":%.2f}"
        (if i = 0 then "" else ",")
        label total active ns (1e9 /. ns) mw)
    rows;
  Printf.fprintf oc "]}\n";
  close_out oc;
  Format.printf "  written to BENCH_fastpath.json@.";
  if sinkless_words >= 0.5 then begin
    Format.printf
      "  FAIL: sinkless fast-engine decision allocates (%.2f minor \
       words/decision; gate < 0.5)@."
      sinkless_words;
    exit 1
  end

(* --- Part 2e: parallel sweep speedup ----------------------------------- *)

(* Wall-clock of a scenario sweep at increasing domain counts, with the
   hard gate that every jobs level renders byte-identical output to
   jobs=1.

   The grid must be large enough that domain-spawn cost (paid once per
   [Par.run]) is amortized: early revisions measured a 16-point grid,
   which on fast machines sits right at the spawn threshold and reported
   speedups below 1.0x that were fixed cost, not contention.  Two things
   fix that at the root: the main grid is measured past the threshold
   (32 points), and a break-even scan over grid prefixes (4/8/16/32
   points) reports the smallest grid where jobs=2 pays for its spawns —
   so a sub-1.0x reading is attributable from the JSON alone.  On
   multi-core machines speedup >= 1.0x at jobs=2 on the full grid is a
   hard gate; [recommended_domains] is recorded so a single-core box
   reporting ~1.0x is distinguishable from a regression.  Results go to
   BENCH_par.json. *)
let bench_par () =
  section "Parallel sweep: wall-clock vs --jobs";
  let scn_steady =
    "scheduler midrr\n\
     iface 1 constant 10Mb\n\
     iface 2 constant 5Mb\n\
     flow a weight=1 ifaces=1 backlogged pkt=1500\n\
     flow b weight=2 ifaces=1,2 poisson rate=8Mb pkt=1200\n\
     flow c weight=1 ifaces=2 cbr rate=2Mb pkt=1000\n\
     measure 2 28\n\
     run 30\n"
  and scn_churn =
    "scheduler midrr counter=4\n\
     iface 1 steps 8Mb 10:4Mb 20:12Mb\n\
     iface 2 constant 6Mb\n\
     flow a weight=1 ifaces=1,2 poisson rate=6Mb pkt=1400\n\
     flow b weight=3 ifaces=2 finite bytes=9MB pkt=1500\n\
     flow c weight=1 ifaces=1 poisson rate=3Mb pkt=600\n\
     at 15 weight a 2\n\
     measure 2 28\n\
     run 30\n"
  in
  let scenario label text =
    match Midrr_sim.Scenario.parse text with
    | Ok s -> (label, s)
    | Error e -> failwith (Printf.sprintf "bench_par %s: %s" label e)
  in
  let scenarios =
    [ scenario "steady" scn_steady; scenario "churn" scn_churn ]
  in
  let all_seeds = Midrr_sim.Sweep.derived_seeds ~seed:42 8 in
  let engines = [ Midrr_sim.Scenario.Engine_fast; Midrr_sim.Scenario.Engine_ref ] in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  let sweep_at ~seeds jobs =
    let t0 = Monotonic_clock.now () in
    let outcomes = Midrr_sim.Sweep.run ~jobs ~scenarios ~seeds ~engines () in
    let t1 = Monotonic_clock.now () in
    (Midrr_sim.Sweep.render outcomes, Int64.to_float (Int64.sub t1 t0) /. 1e9)
  in
  (* Untimed warm-up so jobs=1 doesn't pay first-run costs the others skip. *)
  ignore (sweep_at ~seeds:(take 1 all_seeds) 1);
  let recommended = Midrr_par.Par.recommended_jobs () in
  (* Break-even scan: the same sweep over growing seed prefixes, timed at
     jobs=1 vs jobs=2.  The smallest grid whose jobs=2 speedup reaches
     1.0x is the spawn-amortization threshold on this machine. *)
  let per_seed = List.length scenarios * List.length engines in
  Format.printf "  break-even scan (jobs=2 vs 1):@.";
  Format.printf "  %-8s %10s %10s %10s@." "points" "1-job s" "2-job s" "speedup";
  let scan =
    List.map
      (fun n ->
        let seeds = take n all_seeds in
        let points = per_seed * n in
        let _, s1 = sweep_at ~seeds 1 in
        let _, s2 = sweep_at ~seeds 2 in
        Format.printf "  %-8d %10.3f %10.3f %9.2fx@." points s1 s2 (s1 /. s2);
        (points, s1 /. s2))
      [ 1; 2; 4; 8 ]
  in
  let break_even =
    match List.find_opt (fun (_, sp) -> sp >= 1.0) scan with
    | Some (points, _) -> points
    | None -> -1
  in
  (* The gated measurement: the full grid, past the threshold. *)
  let seeds = all_seeds in
  let baseline, base_s = sweep_at ~seeds 1 in
  let grid_points = per_seed * List.length seeds in
  Format.printf "  grid: %d points, recommended domains: %d, break-even: %d \
                 points@."
    grid_points recommended break_even;
  Format.printf "  %-8s %10s %10s %10s@." "jobs" "wall s" "speedup" "identical";
  Format.printf "  %-8d %10.3f %10s %10s@." 1 base_s "1.00x" "-";
  let runs =
    List.map
      (fun jobs ->
        let rendered, wall_s = sweep_at ~seeds jobs in
        let identical = String.equal rendered baseline in
        Format.printf "  %-8d %10.3f %9.2fx %10s@." jobs wall_s
          (base_s /. wall_s)
          (if identical then "yes" else "NO");
        (jobs, wall_s, identical))
      [ 2; 4 ]
  in
  let oc = open_out "BENCH_par.json" in
  Printf.fprintf oc
    "{\"grid_points\":%d,\"recommended_domains\":%d,\"break_even_points\":%d,\"break_even_scan\":["
    grid_points recommended break_even;
  List.iteri
    (fun i (points, sp) ->
      Printf.fprintf oc "%s{\"points\":%d,\"speedup_jobs2\":%.2f}"
        (if i = 0 then "" else ",")
        points sp)
    scan;
  Printf.fprintf oc
    "],\"runs\":[{\"jobs\":1,\"wall_s\":%.3f,\"speedup_vs_jobs1\":1.0,\"identical_output\":true}"
    base_s;
  List.iter
    (fun (jobs, wall_s, identical) ->
      Printf.fprintf oc
        ",{\"jobs\":%d,\"wall_s\":%.3f,\"speedup_vs_jobs1\":%.2f,\"identical_output\":%b}"
        jobs wall_s (base_s /. wall_s) identical)
    runs;
  Printf.fprintf oc "]}\n";
  close_out oc;
  Format.printf "  written to BENCH_par.json@.";
  if List.exists (fun (_, _, identical) -> not identical) runs then begin
    Format.printf "  FAIL: parallel sweep output differs from --jobs 1@.";
    exit 1
  end;
  (match List.find_opt (fun (jobs, _, _) -> jobs = 2) runs with
  | Some (_, wall_s, _) when recommended >= 2 && base_s /. wall_s < 1.0 ->
      Format.printf
        "  FAIL: jobs=2 speedup %.2fx < 1.00x on the %d-point grid (%d \
         domains available)@."
        (base_s /. wall_s) grid_points recommended;
      exit 1
  | _ -> ())

(* --- Part 2e': sharded engine scaling ----------------------------------- *)

(* Decisions/sec of the sharded engine vs the single-domain fast engine
   on the Fleet workload (~1M registered flows full-scale; [--quick]
   scales the population down ~20x, same op mix).  Both sides replay the
   identical op array; the sharded run is checked to produce the same
   aggregate counters as the baseline before any timing is believed.
   The scaling gates (>= 1.6x at 2 shards, >= 2.5x at 4) only apply
   when the machine has enough domains to host the workers plus the
   router (shards + 1); below that the ratios are recorded but ungated,
   with [recommended_domains] in the JSON telling the two cases apart.
   Results go to BENCH_shard.json. *)
let bench_shard () =
  section "Sharded engine: decisions/sec vs shards on the fleet workload";
  let params =
    if quick then Midrr_trace.Fleet.(scale million_params 0.05)
    else Midrr_trace.Fleet.million_params
  in
  let ops = Midrr_trace.Fleet.ops params in
  let n_ops = Array.length ops in
  let registered = Midrr_trace.Fleet.registered_flows params in
  let recommended = Midrr_par.Par.recommended_jobs () in
  Format.printf
    "  workload: %d ops, %d registered flows, recommended domains: %d@." n_ops
    registered recommended;
  let timed f =
    let t0 = Monotonic_clock.now () in
    let st = f () in
    let t1 = Monotonic_clock.now () in
    (st, Int64.to_float (Int64.sub t1 t0) /. 1e9)
  in
  let base_st, base_s =
    timed (fun () ->
        let e = Drr_engine.create Drr_engine.Service_flags in
        Shard_engine.run_ops_single e ops)
  in
  let base_rate = float_of_int base_st.Shard_engine.rs_decisions /. base_s in
  Format.printf "  %-8s %10s %14s %9s %7s@." "engine" "wall s" "decisions/s"
    "speedup" "match";
  Format.printf "  %-8s %10.3f %14.0f %9s %7s@." "single" base_s base_rate
    "1.00x" "-";
  let shard_counts = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun shards ->
        let st, wall_s =
          timed (fun () ->
              let t =
                Shard_engine.create ~shards ~strict:true
                  Drr_engine.Service_flags
              in
              Shard_engine.run_ops ~mailbox:65_536 t ops)
        in
        let matches =
          st.Shard_engine.rs_decisions = base_st.Shard_engine.rs_decisions
          && st.rs_sent = base_st.rs_sent
          && st.rs_sent_bytes = base_st.rs_sent_bytes
          && st.rs_enqueued = base_st.rs_enqueued
          && st.rs_dropped = base_st.rs_dropped
        in
        let rate = float_of_int st.Shard_engine.rs_decisions /. wall_s in
        Format.printf "  %-8d %10.3f %14.0f %8.2fx %7s@." shards wall_s rate
          (rate /. base_rate)
          (if matches then "yes" else "NO");
        (shards, wall_s, rate, matches))
      shard_counts
  in
  let oc = open_out "BENCH_shard.json" in
  Printf.fprintf oc
    "{\"registered_flows\":%d,\"ops\":%d,\"recommended_domains\":%d,\"quick\":%b,\"single\":{\"wall_s\":%.3f,\"decisions\":%d,\"decisions_per_sec\":%.0f},\"sharded\":["
    registered n_ops recommended quick base_s base_st.Shard_engine.rs_decisions
    base_rate;
  List.iteri
    (fun i (shards, wall_s, rate, matches) ->
      Printf.fprintf oc
        "%s{\"shards\":%d,\"wall_s\":%.3f,\"decisions_per_sec\":%.0f,\"speedup_vs_single\":%.2f,\"stats_match\":%b,\"gated\":%b}"
        (if i = 0 then "" else ",")
        shards wall_s rate (rate /. base_rate) matches
        (recommended >= shards + 1))
    rows;
  Printf.fprintf oc "]}\n";
  close_out oc;
  Format.printf "  written to BENCH_shard.json@.";
  if List.exists (fun (_, _, _, matches) -> not matches) rows then begin
    Format.printf
      "  FAIL: sharded aggregate counters differ from the single-domain run@.";
    exit 1
  end;
  let gate shards need =
    match List.find_opt (fun (s, _, _, _) -> s = shards) rows with
    | Some (_, _, rate, _) when recommended >= shards + 1 ->
        let sp = rate /. base_rate in
        if sp < need then begin
          Format.printf
            "  FAIL: %d-shard speedup %.2fx < %.1fx (machine has %d domains)@."
            shards sp need recommended;
          exit 1
        end
    | _ ->
        Format.printf
          "  note: %d-shard gate skipped (needs %d domains, machine \
           recommends %d)@."
          shards (shards + 1) recommended
  in
  gate 2 1.6;
  gate 4 2.5

(* --- Part 2f: telemetry plane overhead ---------------------------------- *)

module Metrics = Midrr_obs.Metrics
module Busmetrics = Midrr_obs.Busmetrics

(* (ns, minor words) per call of [op], amortized over [ops] iterations.
   As in [fastpath_alloc_gate], [Gc.minor_words] boxes the float it
   returns, so below a hundredth of a word per op is genuinely
   allocation-free and reported as 0. *)
let metrics_op_measure ~ops op =
  for i = 0 to (ops / 10) - 1 do
    op i
  done;
  let w0 = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  for i = 0 to ops - 1 do
    op i
  done;
  let t1 = Monotonic_clock.now () in
  let w1 = Gc.minor_words () in
  let words = (w1 -. w0) /. float_of_int ops in
  ( Int64.to_float (Int64.sub t1 t0) /. float_of_int ops,
    if words < 0.01 then 0.0 else words )

(* The [fastpath_alloc_gate] decision loop (prefilled queues, every
   decision a pure pop) with an event-sink variant installed: nothing,
   a stamped null sink, or the stamped [Busmetrics] fold.  The Serve
   event record and the stamp clock's boxed timestamp are allocated
   identically under the last two, so the difference between them
   isolates what the metrics fold itself allocates per decision. *)
let metrics_decision_measure ~decisions sink =
  let n_flows = 64 and n_ifaces = 4 in
  let t = Drr_engine.create Drr_engine.Service_flags in
  let tick = [| 0.0 |] in
  let clock () =
    (* synthetic microsecond clock so enqueue-to-serve delays are real *)
    tick.(0) <- tick.(0) +. 1e-6;
    tick.(0)
  in
  (match sink with
  | None -> ()
  | Some s -> Drr_engine.set_sink t (Some (Midrr_obs.Sink.stamp ~clock s)));
  for j = 0 to n_ifaces - 1 do
    Drr_engine.add_iface t j
  done;
  let all_ifaces = List.init n_ifaces Fun.id in
  for f = 0 to n_flows - 1 do
    Drr_engine.add_flow t ~flow:f ~weight:1.0 ~allowed:all_ifaces
  done;
  let warmup = decisions / 10 in
  let per_flow = ((decisions + warmup) / n_flows) + 64 in
  for f = 0 to n_flows - 1 do
    for _ = 1 to per_flow do
      ignore
        (Drr_engine.enqueue t (Packet.create ~flow:f ~size:1000 ~arrival:0.0))
    done
  done;
  for d = 0 to warmup - 1 do
    ignore (Drr_engine.next_packet_noalloc t (d mod n_ifaces))
  done;
  let w0 = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  for d = 0 to decisions - 1 do
    ignore (Drr_engine.next_packet_noalloc t (d mod n_ifaces))
  done;
  let t1 = Monotonic_clock.now () in
  let w1 = Gc.minor_words () in
  ( Int64.to_float (Int64.sub t1 t0) /. float_of_int decisions,
    (w1 -. w0) /. float_of_int decisions )

(* The acceptance gate behind BENCH_metrics: every registry hot op is
   allocation-free, and attaching the metrics fold to the decision loop
   adds no allocation over an equally-stamped null sink.  The dynamic
   counterpart of the R7 static proof over the same modules. *)
let bench_metrics () =
  section "Telemetry: registry op cost and metrics-sink decision overhead";
  let ops = if quick then 200_000 else 2_000_000 in
  let decisions = if quick then 20_000 else 100_000 in
  let reg = Metrics.create () in
  let c = Metrics.counter reg "bench_ops" in
  let g = Metrics.gauge reg "bench_level" in
  let h = Metrics.histogram reg "bench_lat" in
  let micro =
    [
      ("counter_incr", fun _ -> Metrics.incr reg c);
      ("counter_add", fun i -> Metrics.add reg c (i land 7));
      ("gauge_set", fun _ -> Metrics.set_gauge reg g 1.0);
      (* a float literal is static data: no caller-side boxing *)
      ("hist_observe_const", fun _ -> Metrics.observe reg h 0.5);
      (* computed values cross the boundary as int nanoseconds *)
      ( "hist_observe_ns",
        fun i -> Metrics.observe_ns reg h ((i land 0xfffff) + 1) );
    ]
  in
  Format.printf "  %-20s %10s %16s@." "op" "ns/op" "minor words/op";
  let micro_rows =
    List.map
      (fun (label, op) ->
        let ns, words = metrics_op_measure ~ops op in
        Format.printf "  %-20s %10.1f %16.2f@." label ns words;
        (label, ns, words))
      micro
  in
  let m = Busmetrics.create () in
  let ns_none, w_none = metrics_decision_measure ~decisions None in
  let w_none = if w_none < 0.01 then 0.0 else w_none in
  let ns_null, w_null =
    metrics_decision_measure ~decisions (Some Midrr_obs.Sink.null)
  in
  let ns_m, w_m =
    metrics_decision_measure ~decisions (Some (Busmetrics.sink m))
  in
  Format.printf "  %-14s %14s %16s@." "decision sink" "ns/decision"
    "words/decision";
  Format.printf "  %-14s %14.1f %16.2f@." "none" ns_none w_none;
  Format.printf "  %-14s %14.1f %16.2f@." "null" ns_null w_null;
  Format.printf "  %-14s %14.1f %16.2f@." "busmetrics" ns_m w_m;
  let extra =
    let x = w_m -. w_null in
    if x < 0.01 then 0.0 else x
  in
  let ratio = ns_m /. ns_null in
  Format.printf
    "  metrics fold: %.2f extra words/decision vs null sink (gate < 0.5), \
     %.2fx ns@."
    extra ratio;
  (* the fold really consumed the stream: serves == warmup + decisions,
     and the delay sketch holds one sample per serve *)
  let mreg = Busmetrics.registry m in
  let serves = Metrics.counter_value mreg (Metrics.counter mreg "serves") in
  let d = Busmetrics.delay m in
  Format.printf
    "  fold saw %d serves; delay sketch: %d samples, p50 %.3g s, p999 %.3g s@."
    serves
    (Midrr_stats.Log_histogram.count d)
    (Midrr_stats.Log_histogram.quantile d ~q:0.5)
    (Midrr_stats.Log_histogram.quantile d ~q:0.999);
  let oc = open_out "BENCH_metrics.json" in
  Printf.fprintf oc "{\"ops\":%d,\"decisions\":%d,\"registry_ops\":[" ops
    decisions;
  List.iteri
    (fun i (label, ns, words) ->
      Printf.fprintf oc
        "%s{\"op\":%S,\"ns_per_op\":%.1f,\"minor_words_per_op\":%.2f}"
        (if i = 0 then "" else ",")
        label ns words)
    micro_rows;
  Printf.fprintf oc
    "],\"decision_loop\":[{\"sink\":\"none\",\"ns_per_decision\":%.1f,\"minor_words_per_decision\":%.2f},{\"sink\":\"null\",\"ns_per_decision\":%.1f,\"minor_words_per_decision\":%.2f},{\"sink\":\"busmetrics\",\"ns_per_decision\":%.1f,\"minor_words_per_decision\":%.2f}],\"metrics_extra_words_per_decision\":%.2f,\"metrics_ns_ratio_vs_null\":%.2f}\n"
    ns_none w_none ns_null w_null ns_m w_m extra ratio;
  close_out oc;
  Format.printf "  written to BENCH_metrics.json@.";
  let micro_bad = List.filter (fun (_, _, words) -> words > 0.0) micro_rows in
  List.iter
    (fun (label, _, words) ->
      Format.printf "  FAIL: %s allocates %.2f minor words/op (gate: 0)@." label
        words)
    micro_bad;
  if extra >= 0.5 then
    Format.printf
      "  FAIL: metrics fold allocates %.2f minor words/decision over the null \
       sink (gate < 0.5)@."
      extra;
  if micro_bad <> [] || extra >= 0.5 then exit 1

let extended_studies () =
  render_sections
    [|
      ( "Granularity ablation (HTTP chunk size vs max-min, paper 6.4)",
        fun () -> Format.asprintf "%a@." E.Granularity.print (E.Granularity.run ())
      );
      ( "Convergence ablation (quantum size, paper 6.2)",
        fun () -> Format.asprintf "%a@." E.Convergence.print (E.Convergence.run ())
      );
      ( "Churn stress (flow arrivals/departures from the Fig. 7 model)",
        fun () -> Format.asprintf "%a@." E.Churn.print (E.Churn.run ()) );
      ( "Inbound scheduling: in-network ideal (Fig. 4) vs client HTTP",
        fun () -> Format.asprintf "%a@." E.Inbound.print (E.Inbound.run ()) );
      ( "Aggregation: one flow over 1-16 interfaces",
        fun () -> Format.asprintf "%a@." E.Aggregation.print (E.Aggregation.run ())
      );
    |]

let fastpath_only =
  Array.exists (fun a -> a = "--fastpath-only") Sys.argv

let par_only = Array.exists (fun a -> a = "--par-only") Sys.argv
let metrics_only = Array.exists (fun a -> a = "--metrics-only") Sys.argv
let shard_only = Array.exists (fun a -> a = "--shard-only") Sys.argv

let () =
  if fastpath_only then bench_fastpath ()
  else if par_only then bench_par ()
  else if metrics_only then bench_metrics ()
  else if shard_only then bench_shard ()
  else begin
    reproduce_figures ();
    ablation_flag_policy ();
    ablation_adversarial ();
    extended_studies ();
    run_benchmarks ();
    bench_obs_overhead ();
    bench_fastpath ();
    bench_metrics ();
    bench_par ();
    bench_shard ()
  end;
  Format.printf "@.done.@."
