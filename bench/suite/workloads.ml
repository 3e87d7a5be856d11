open Midrr_core
module H = Harness
module Scenario = Midrr_sim.Scenario
module Busmetrics = Midrr_obs.Busmetrics
module Metrics = Midrr_obs.Metrics
module Proxy = Midrr_http.Proxy
module Link = Midrr_sim.Link
module Fleet = Midrr_trace.Fleet

type outcome =
  | Report of { report : Scenario.report; serves : int }
  | Stats of Shard_engine.run_stats
  | Phases of float array list

type traced = { layers : H.metric list; attempted : int; failed : int }

type prepared = {
  reps : int;
  setup_s : float array;
  setup_layers : H.metric list;
  pkts_per_rep : int;
  rep : unit -> outcome;
  check : outcome -> bool;
  trace : unit -> traced;
}

let names =
  [
    "sim-fig6";
    "sim-handover-telemetry";
    "sim-mesh64-wfq";
    "proxy-fig10";
    "fleet-single";
    "fleet-sharded";
  ]

let layer_units =
  let under prefix = List.map (fun (f, u) -> (prefix ^ "." ^ f, u)) in
  let per_pkt =
    [ ("self_ns_per_pkt", "ns/pkt"); ("self_words_per_pkt", "words/pkt") ]
  in
  [
    ("scenario.parse_ms", "ms");
    ("fleet.gen_s", "s");
    ("run_s_p90", "s");
    ("host.reference_ms", "ms");
  ]
  @ under "sched.decide"
      ([
         ("calls_per_pkt", "calls/pkt");
         ("none_ratio", "ratio");
         ("ns_p50", "ns");
         ("ns_p99", "ns");
       ]
      @ per_pkt)
  @ under "sched.enqueue"
      ([
         ("calls_per_pkt", "calls/pkt"); ("drop_ratio", "ratio"); ("ns_p50", "ns");
       ]
      @ per_pkt)
  @ under "obs.sink"
      ([ ("events_per_pkt", "events/pkt"); ("ns_p50", "ns") ] @ per_pkt)
  @ under "netsim" per_pkt
  @ under "proxy" per_pkt
  @ List.concat_map
      (fun op ->
        under op [ ("calls", "count"); ("ns_p50", "ns"); ("total_s", "s") ])
      Layers.drr_ops
  @ [
      ("drr_engine.serve.none_ratio", "ratio");
      ("drr_engine.enqueue.drop_ratio", "ratio");
      ("shard_engine.route_ns_per_op", "ns/op");
      ("shard_engine.pipeline_ns_per_op", "ns/op");
      ("gc.minor_collections_per_kpkt", "1/kpkt");
      ("gc.major_collections_per_kpkt", "1/kpkt");
      ("trace.clock_ns", "ns");
      ("trace.overhead_ratio", "ratio");
      ("trace.attributed_ratio", "ratio");
    ]

let complete_layers ms =
  List.iter
    (fun (m : H.metric) ->
      if not (List.mem_assoc m.name layer_units) then
        invalid_arg ("Workloads.complete_layers: unknown metric " ^ m.name))
    ms;
  List.map
    (fun (name, unit) ->
      let value =
        match List.find_opt (fun (m : H.metric) -> String.equal m.name name) ms with
        | Some m -> m.value
        | None -> 0.0
      in
      H.metric name unit value)
    layer_units

let m name value = H.metric name (List.assoc name layer_units) value

let ratio a b =
  if Int.equal b 0 then 0.0 else Float.of_int a /. Float.of_int b

(* --- the traced runs ----------------------------------------------------- *)

(* One root child in [sample_every] is timed with its subtree.  A timed
   span costs 120-200 ns on a 2-vCPU VM (two clock reads at ~40 ns each,
   plus cache misses in situ), so timing every span would double a fig6
   rep; one in 64 still times about 10^5 spans per traced run. *)
let sample_every = 64

(* Rounds of the traced loop: enough for a median, 7 at least (a fleet
   rep varies by up to 30%, and the ratios pair reps of single rounds). *)
let traced_reps base = Int.max 7 (base / 10)

(* The tracer, and a function measuring its overhead now.  [calibration]
   is the [(bare, probed)] pair of [Tracer.calibrate]. *)
let new_tracer ?calibration ~root kinds =
  let clock = H.now_ns and words = H.minor_words in
  let bare = Option.map fst calibration in
  let probed = Option.map snd calibration in
  let calibrate () =
    Tracer.calibrate ?bare ?probed ~clock ~words ~root kinds ()
  in
  (Tracer.create ~sample_every ~clock ~words ~root kinds, calibrate)

let median_overhead (os : Tracer.overhead list) =
  let med f =
    os |> List.map (fun o -> Float.of_int (f o)) |> Array.of_list |> H.median
    |> Float.to_int
  in
  {
    Tracer.span_ps = med (fun o -> o.Tracer.span_ps);
    span_words = med (fun o -> o.span_words);
    skip_ps = med (fun o -> o.skip_ps);
  }

let wall f =
  Gc.full_major ();
  let t0 = H.now_ns () in
  let v = f () in
  (v, Float.of_int (H.now_ns () - t0) *. 1e-9)

(* [n] rounds of: each untraced rep of [untraced], timed; a fresh
   overhead calibration, because the clock's cost drifts with the
   machine's load; and one traced rep of [f] inside one root span, its
   output checked outside it.  Returns the failed count, the untraced
   times of each round, and the validity metrics given, per round, the
   untraced time the layers should add up to and the time attributed
   outside the tracer ([extra], default 0).  Each ratio pairs times of
   one round, so drift in the machine's speed cancels, and the median
   over rounds keeps a slow round out. *)
let traced_loop (tr, calibrate) ~n ~untraced ~check f =
  let k_root = Tracer.root tr in
  let bare = List.map (fun _ -> Array.make n 0.0) untraced in
  let walls = Array.make n 0.0 and attributed = Array.make n 0.0 in
  let failed = ref 0 and overheads = ref [] in
  for i = 0 to n - 1 do
    List.iter2 (fun u b -> b.(i) <- snd (wall u)) untraced bare;
    let o = calibrate () in
    overheads := o :: !overheads;
    Tracer.set_overhead tr o;
    let before = Tracer.total_self_ns tr in
    let out, w =
      wall (fun () ->
          Tracer.enter tr k_root;
          let out = f () in
          Tracer.exit tr k_root;
          out)
    in
    walls.(i) <- w;
    attributed.(i) <- (Tracer.total_self_ns tr -. before) *. 1e-9;
    if not (check out) then incr failed
  done;
  Tracer.set_overhead tr (median_overhead !overheads);
  let validity ?(extra = Array.make n 0.0) target =
    let ratio xs =
      H.median (Array.init n (fun i -> (xs.(i) +. extra.(i)) /. target.(i)))
    in
    [
      m "trace.clock_ns" (Float.of_int (Tracer.overhead tr).span_ps /. 1000.0);
      m "trace.overhead_ratio" (ratio walls);
      m "trace.attributed_ratio" (ratio attributed);
    ]
  in
  (!failed, bare, validity)

(* Per-packet layer metrics of a traced simulator or proxy run over
   [pkts] packets in all. *)
let sched_layers tr (p : Layers.sched_probe) ~root ~pkts =
  let per_pkt v = v /. pkts in
  let k_root = Tracer.root tr and k_sink = Tracer.kind tr Layers.obs_sink in
  let decides = Tracer.calls tr p.k_decide in
  let enqueues = Tracer.calls tr p.k_enqueue in
  let self k prefix =
    [
      m (prefix ^ ".self_ns_per_pkt") (per_pkt (Tracer.self_ns tr k));
      m (prefix ^ ".self_words_per_pkt") (per_pkt (Tracer.self_words tr k));
    ]
  in
  [
    m "sched.decide.calls_per_pkt" (per_pkt (Float.of_int decides));
    m "sched.decide.none_ratio" (ratio p.nones decides);
    m "sched.decide.ns_p50" (Tracer.quantile_ns tr p.k_decide 0.5);
    m "sched.decide.ns_p99" (Tracer.quantile_ns tr p.k_decide 0.99);
    m "sched.enqueue.calls_per_pkt" (per_pkt (Float.of_int enqueues));
    m "sched.enqueue.drop_ratio" (ratio p.drops enqueues);
    m "sched.enqueue.ns_p50" (Tracer.quantile_ns tr p.k_enqueue 0.5);
    m "obs.sink.events_per_pkt"
      (per_pkt (Float.of_int (Tracer.calls tr k_sink)));
    m "obs.sink.ns_p50" (Tracer.quantile_ns tr k_sink 0.5);
  ]
  @ self p.k_decide "sched.decide"
  @ self p.k_enqueue "sched.enqueue"
  @ self k_sink "obs.sink" @ self k_root root

let serves bm =
  let reg = Busmetrics.registry bm in
  Metrics.counter_value reg (Metrics.counter reg "serves")

(* Packets a rep hands out: the bus emits one [Serve] per [Some]
   decision, so the warm-up rep runs with a fold attached ([run] passes
   it as [~metrics]) and its serve counter is the count. *)
let count_pkts run =
  let bm = Busmetrics.create () in
  run bm;
  serves bm

(* --- simulator workloads ------------------------------------------------ *)

let report_text r = Format.asprintf "%a" Scenario.pp_report r

let parse_exn text =
  match Scenario.parse text with
  | Ok s -> s
  | Error e -> failwith ("scenario error: " ^ e)

(* [load] yields the scenario text (read from the corpus or generated);
   [measured] builds the scheduler under test, [reference] the one whose
   report the output must equal.  With [telemetry] every rep folds the
   bus into a fresh [Busmetrics], as `midrr run --metrics` does. *)
let prepare_sim (cfg : H.cfg) ~base ~seed ~load ~measured ~reference
    ~telemetry =
  let setup_s, scn = H.time_setup ~reps:20 (fun () -> parse_exn (load ())) in
  let text = load () in
  let parse_s, _ = H.time_setup ~reps:50 (fun () -> parse_exn text) in
  let run ?sink ?metrics sched =
    Scenario.run ?sink ?metrics ~seed ~sched scn
  in
  let expected = report_text (run reference) in
  let pkts = count_pkts (fun metrics -> ignore (run ~metrics measured)) in
  let rep () =
    if telemetry then
      let bm = Busmetrics.create () in
      let report = run ~metrics:bm measured in
      Report { report; serves = serves bm }
    else Report { report = run measured; serves = -1 }
  in
  let check = function
    | Report { report; serves } ->
        String.equal (report_text report) expected
        && ((not telemetry) || Int.equal serves pkts)
    | Stats _ | Phases _ -> false
  in
  let trace () =
    let ((tr, _) as traced) =
      new_tracer ~calibration:(Layers.sched_calibration ()) ~root:"netsim"
        Layers.[ sched_decide; sched_enqueue; obs_sink ]
    in
    let probe = Layers.sched_probe tr in
    let k_sink = Tracer.kind tr Layers.obs_sink in
    let sched () = Layers.wrap_sched probe (measured ()) in
    let n = traced_reps base in
    let failed, untraced_s, validity =
      traced_loop traced ~n ~untraced:[ rep ] ~check (fun () ->
          if telemetry then
            let bm = Busmetrics.create () in
            let sink = Layers.timed_sink tr k_sink (Busmetrics.sink bm) in
            let report = run ~sink sched in
            Report { report; serves = serves bm }
          else Report { report = run sched; serves = -1 })
    in
    {
      layers =
        sched_layers tr probe ~root:"netsim" ~pkts:(Float.of_int (pkts * n))
        @ validity (List.hd untraced_s);
      attempted = n;
      failed;
    }
  in
  {
    reps = H.reps cfg ~base;
    setup_s;
    setup_layers = [ m "scenario.parse_ms" (H.median parse_s *. 1e3) ];
    pkts_per_rep = pkts;
    rep;
    check;
    trace;
  }

let prepare_corpus (cfg : H.cfg) ~base ~file ~telemetry =
  let load () =
    In_channel.with_open_bin (Filename.concat cfg.scenarios file)
      In_channel.input_all
  in
  let spec = Scenario.sched_spec (parse_exn (load ())) in
  prepare_sim cfg ~base ~seed:cfg.seed ~load ~telemetry
    ~measured:(fun () -> Scenario.make_sched spec)
    ~reference:(fun () -> Scenario.make_sched ~engine:Engine_ref spec)

let prepare_mesh cfg =
  let queue_capacity = Mesh.queue_capacity in
  prepare_sim cfg ~base:18 ~seed:1 ~telemetry:false ~load:Mesh.scenario
    ~measured:(fun () -> Wfq.packed (Wfq.create ~queue_capacity ()))
    ~reference:(fun () -> Prog_wfq.packed (Prog_wfq.create ~queue_capacity ()))

(* --- the HTTP proxy (Fig. 10) ------------------------------------------- *)

(* Fig10.run's set-up: interface speeds alternate at 11, 18 and 29 s,
   and b (allowed on both) should track the faster of a and c. *)
let proxy_horizon = 3000.0
let proxy_windows = [ (2.0, 10.5); (12.5, 17.5); (20.0, 28.5); (31.0, 44.0) ]
let proxy_flows = [ (0, [ 1 ]); (1, [ 1; 2 ]); (2, [ 2 ]) ]

(* A configured proxy, and per phase window a cell receiving the
   goodput (Mb/s) of a, b and c once the window closes. *)
let build_proxy ?metrics sched =
  let proxy =
    Proxy.create ~bin:1.0 ~chunk_size:65536 ~pipeline_depth:4 ~rtt:0.03
      ?metrics ~sched ()
  in
  let mb = Types.mbps in
  Proxy.add_iface proxy 1
    (Link.steps ~initial:(mb 12.0)
       [ (11.0, mb 4.0); (18.0, mb 12.0); (29.0, mb 4.0) ]);
  Proxy.add_iface proxy 2
    (Link.steps ~initial:(mb 5.0)
       [ (11.0, mb 10.0); (18.0, mb 5.0); (29.0, mb 10.0) ]);
  List.iter
    (fun (f, allowed) -> Proxy.add_transfer proxy f ~weight:1.0 ~allowed ())
    proxy_flows;
  let engine = Proxy.engine proxy in
  let flows = List.map fst proxy_flows and ifaces = [ 1; 2 ] in
  let goodput (t0, t1) =
    let out = ref [||] and snap = ref None in
    Midrr_sim.Engine.schedule engine ~at:t0 (fun () ->
        snap := Some (Proxy.snapshot proxy));
    Midrr_sim.Engine.schedule engine ~at:t1 (fun () ->
        Option.iter
          (fun s ->
            out :=
              Array.map
                (fun row -> Types.to_mbps (Array.fold_left ( +. ) 0.0 row))
                (Proxy.share_since proxy s ~flows ~ifaces))
          !snap);
    out
  in
  (proxy, List.map goodput proxy_windows)

let proxy_sched () = Midrr.packed (Midrr.create ~base_quantum:65536 ())

let proxy_rep ?metrics sched =
  let proxy, goodput = build_proxy ?metrics sched in
  Proxy.run proxy ~until:proxy_horizon;
  Phases (List.map ( ! ) goodput)

(* b within 20% of the faster restricted flow, as Fig10 judges it. *)
let proxy_check = function
  | Phases ws ->
      Int.equal (List.length ws) (List.length proxy_windows)
      && List.for_all
           (fun w ->
             Int.equal (Array.length w) 3
             &&
             let faster = Float.max w.(0) w.(2) in
             Float.abs (w.(1) -. faster) <= 0.2 *. Float.max 1.0 faster)
           ws
  | Report _ | Stats _ -> false

let prepare_proxy cfg =
  let base = 220 in
  let setup_s, _ =
    H.time_setup ~reps:20 (fun () -> build_proxy (proxy_sched ()))
  in
  let pkts =
    count_pkts (fun metrics -> ignore (proxy_rep ~metrics (proxy_sched ())))
  in
  let rep () = proxy_rep (proxy_sched ()) in
  let trace () =
    let ((tr, _) as traced) =
      new_tracer ~calibration:(Layers.sched_calibration ()) ~root:"proxy"
        Layers.[ sched_decide; sched_enqueue; obs_sink ]
    in
    let probe = Layers.sched_probe tr in
    let n = traced_reps base in
    let failed, untraced_s, validity =
      traced_loop traced ~n ~untraced:[ rep ] ~check:proxy_check (fun () ->
          proxy_rep (Layers.wrap_sched probe (proxy_sched ())))
    in
    {
      layers =
        sched_layers tr probe ~root:"proxy" ~pkts:(Float.of_int (pkts * n))
        @ validity (List.hd untraced_s);
      attempted = n;
      failed;
    }
  in
  {
    reps = H.reps cfg ~base;
    setup_s;
    setup_layers = [];
    pkts_per_rep = pkts;
    rep;
    check = proxy_check;
    trace;
  }

(* --- fleet replay ------------------------------------------------------- *)

let stats_equal (a : Shard_engine.run_stats) (b : Shard_engine.run_stats) =
  Int.equal a.rs_decisions b.rs_decisions
  && Int.equal a.rs_sent b.rs_sent
  && Int.equal a.rs_sent_bytes b.rs_sent_bytes
  && Int.equal a.rs_enqueued b.rs_enqueued
  && Int.equal a.rs_dropped b.rs_dropped

let fleet_check ~expected ~pkt = function
  | Stats st ->
      stats_equal st expected
      && Int.equal st.rs_sent_bytes (st.rs_sent * pkt)
      && st.rs_sent <= st.rs_enqueued
  | Report _ | Phases _ -> false

let single ops =
  Shard_engine.run_ops_single (Drr_engine.create Drr_engine.Service_flags) ops

let one_shard () =
  Shard_engine.create ~shards:1 ~strict:true Drr_engine.Service_flags

(* The million-flow fleet at [share] of its population and horizon: the
   same mix of registration, enqueue and serve ops.  [Fleet.scale] shrinks
   the population only; the serve sweeps follow the horizon. *)
let fleet_params share =
  {
    (Fleet.scale Fleet.million_params share) with
    horizon = Fleet.million_params.horizon *. share;
  }

(* A quarter of the million-flow fleet: 250k flows and 1M ops, a working
   set of about 300 MB, far past the caches.  A rep's time varies by up
   to 30% within a run (two domains on fleet-sharded, and whether a major
   cycle ends inside the rep), so the median needs many reps: at the full
   size a rep took 2 s and the 8 that fit gave a median spreading 7-10%
   across runs.  fleet-sharded, whose reps vary most, runs a little
   longer. *)
let prepare_fleet (cfg : H.cfg) ~sharded =
  let base = if sharded then 20 else 19 in
  let params = fleet_params (if cfg.smoke then 0.01 else 0.25) in
  (* Generated before the reps only, and each copy dropped before the
     next, so one op array is live at a time. *)
  let gen_s, ops =
    H.time_setup ~reps:7 (fun () -> Fleet.ops ~seed:cfg.seed params)
  in
  let pkt = params.pkt_size in
  let run ops =
    if sharded then Shard_engine.run_ops (one_shard ()) ops else single ops
  in
  let warm = run ops in
  (* The sharded replay is checked against one single-engine pass made
     after timing. *)
  let expected =
    lazy (if sharded then fst (wall (fun () -> single ops)) else warm)
  in
  let check o = fleet_check ~expected:(Lazy.force expected) ~pkt o in
  let rep () = Stats (run ops) in
  let n_ops = Float.of_int (Array.length ops) in
  let trace () =
    let ((tr, _) as traced) = new_tracer ~root:"replay" Layers.drr_ops in
    let ks = Layers.replay_kinds tr in
    let counts = { Layers.serve_nones = 0; enqueue_drops = 0 } in
    (* The tracer attributes a single-engine replay; the sharded rep adds
       the router, mailbox and merge, priced as the difference of the
       untraced sharded and single reps.  Routing alone is the inline
       [apply] at 1 shard over the single rep. *)
    let inline () =
      let t = one_shard () in
      Array.iter (Shard_engine.apply t) ops
    in
    let untraced =
      (fun () -> ignore (rep ()))
      :: (if sharded then [ (fun () -> ignore (single ops)); inline ] else [])
    in
    let n = traced_reps base in
    let failed, times, validity =
      traced_loop traced ~n ~untraced
        ~check:(fleet_check ~expected:(Lazy.force expected) ~pkt)
        (fun () ->
          let e = Drr_engine.create Drr_engine.Service_flags in
          Stats (Layers.replay tr ks counts e ops))
    in
    let per_op name =
      let k = Tracer.kind tr name in
      [
        m (name ^ ".calls") (Float.of_int (Tracer.calls tr k / n));
        m (name ^ ".ns_p50") (Tracer.quantile_ns tr k 0.5);
        m (name ^ ".total_s") (Tracer.incl_ns tr k *. 1e-9 /. Float.of_int n);
      ]
    in
    let shard, extra =
      match times with
      | [ sharded_s; single_s; inline_s ] ->
          let ns_per_op a b = (H.median a -. H.median b) *. 1e9 /. n_ops in
          ( [
              m "shard_engine.route_ns_per_op" (ns_per_op inline_s single_s);
              m "shard_engine.pipeline_ns_per_op" (ns_per_op sharded_s single_s);
            ],
            Some (Array.map2 ( -. ) sharded_s single_s) )
      | _ -> ([], None)
    in
    {
      layers =
        List.concat_map per_op Layers.drr_ops
        @ [
            m "drr_engine.serve.none_ratio"
              (ratio counts.serve_nones (Tracer.calls tr ks.serve));
            m "drr_engine.enqueue.drop_ratio"
              (ratio counts.enqueue_drops (Tracer.calls tr ks.enqueue));
          ]
        @ shard
        @ validity ?extra (List.hd times);
      attempted = n;
      failed;
    }
  in
  {
    reps = H.reps cfg ~base;
    setup_s = gen_s;
    setup_layers = [ m "fleet.gen_s" (H.median gen_s) ];
    pkts_per_rep = warm.rs_sent;
    rep;
    check;
    trace;
  }

let prepare cfg = function
  | "sim-fig6" -> prepare_corpus cfg ~base:250 ~file:"fig6.scn" ~telemetry:false
  | "sim-handover-telemetry" ->
      prepare_corpus cfg ~base:220 ~file:"handover.scn" ~telemetry:true
  | "sim-mesh64-wfq" -> prepare_mesh cfg
  | "proxy-fig10" -> prepare_proxy cfg
  | "fleet-single" -> prepare_fleet cfg ~sharded:false
  | "fleet-sharded" -> prepare_fleet cfg ~sharded:true
  | name -> invalid_arg ("unknown workload " ^ name)
