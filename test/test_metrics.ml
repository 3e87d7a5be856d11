(* Unit tests for the telemetry plane: the metrics registry, the
   Busmetrics event-bus fold, span tracing with its Chrome export, the
   Prometheus exporter — and the load-bearing regression that attaching
   all of it to a scenario run leaves the scheduler-event stream
   byte-identical (telemetry observes; it must never perturb). *)

module Metrics = Midrr_obs.Metrics
module Busmetrics = Midrr_obs.Busmetrics
module Span = Midrr_obs.Span
module Export = Midrr_obs.Export
module Event = Midrr_obs.Event
module Log_histogram = Midrr_stats.Log_histogram

let close ?(tol = 1e-9) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.6g, got %.6g" what expected got

(* --- registry ------------------------------------------------------------ *)

let test_registry_counters () =
  let r = Metrics.create () in
  let c = Metrics.counter r "serves" in
  Alcotest.(check int) "same name, same handle" c (Metrics.counter r "serves");
  Alcotest.(check bool)
    "distinct name, distinct handle" true
    (c <> Metrics.counter r "drops");
  Metrics.incr r c;
  Metrics.incr r c;
  Metrics.add r c 40;
  Alcotest.(check int) "value" 42 (Metrics.counter_value r c);
  Alcotest.(check int)
    "other counter untouched" 0
    (Metrics.counter_value r (Metrics.counter r "drops"))

let test_registry_gauges () =
  let r = Metrics.create () in
  let g = Metrics.gauge r "queue" in
  Metrics.set_gauge r g 7.0;
  Metrics.incr_gauge r g 1.5;
  close "gauge value" 8.5 (Metrics.gauge_value r g)

let test_registry_growth () =
  (* push every table past its initial capacity *)
  let r = Metrics.create () in
  let cs = List.init 50 (fun i -> Metrics.counter r (Printf.sprintf "c%d" i)) in
  let gs = List.init 50 (fun i -> Metrics.gauge r (Printf.sprintf "g%d" i)) in
  let hs =
    List.init 20 (fun i -> Metrics.histogram r (Printf.sprintf "h%d" i))
  in
  List.iteri (fun i c -> Metrics.add r c i) cs;
  List.iteri (fun i g -> Metrics.set_gauge r g (Float.of_int i)) gs;
  List.iteri (fun i h -> Metrics.observe r h (Float.of_int (i + 1))) hs;
  List.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "c%d survives growth" i)
        i (Metrics.counter_value r c))
    cs;
  List.iteri
    (fun i g -> close (Printf.sprintf "g%d survives growth" i) (Float.of_int i)
        (Metrics.gauge_value r g))
    gs;
  List.iteri
    (fun i h ->
      Alcotest.(check int)
        (Printf.sprintf "h%d survives growth" i)
        1
        (Log_histogram.count (Metrics.hist r h)))
    hs;
  Alcotest.(check int)
    "handles stay stable" (List.nth cs 3)
    (Metrics.counter r "c3")

let test_registry_observe_ns () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "lat" in
  Metrics.observe_ns r h 1_500_000_000;
  Metrics.observe r h 1.5;
  let sk = Metrics.hist r h in
  Alcotest.(check int) "both recorded" 2 (Log_histogram.count sk);
  close ~tol:1e-9 "sum" 3.0 (Log_histogram.sum sk)

let test_registry_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a (Metrics.counter a "serves") 10;
  Metrics.add b (Metrics.counter b "serves") 32;
  Metrics.add b (Metrics.counter b "only_b") 5;
  Metrics.set_gauge a (Metrics.gauge a "occ") 3.0;
  Metrics.set_gauge b (Metrics.gauge b "occ") 4.0;
  Metrics.observe a (Metrics.histogram a "lat") 1.0;
  Metrics.observe b (Metrics.histogram b "lat") 2.0;
  Metrics.merge_into ~src:a ~dst:b;
  Alcotest.(check int)
    "counters add" 42
    (Metrics.counter_value b (Metrics.counter b "serves"));
  Alcotest.(check int)
    "b-only counter kept" 5
    (Metrics.counter_value b (Metrics.counter b "only_b"));
  close "gauges sum" 7.0 (Metrics.gauge_value b (Metrics.gauge b "occ"));
  let sk = Metrics.hist b (Metrics.histogram b "lat") in
  Alcotest.(check int) "histograms fold" 2 (Log_histogram.count sk);
  close "folded sum" 3.0 (Log_histogram.sum sk)

(* --- busmetrics fold ----------------------------------------------------- *)

(* Feed decoded events to the fold through one reused record, as a
   producer does. *)
let feed m =
  let r = Event.create () in
  fun time e ->
    Event.encode r e;
    Busmetrics.on_event m ~time r

let test_busmetrics_fold () =
  let m = Busmetrics.create () in
  let ev = feed m in
  ev 0.0 (Iface_up { iface = 0 });
  ev 0.0 (Flow_add { flow = 0; weight = 1.0 });
  ev 0.0 (Flow_add { flow = 1; weight = 1.0 });
  ev 1.0 (Enqueue { flow = 0; bytes = 100 });
  ev 1.0 (Enqueue { flow = 0; bytes = 200 });
  ev 1.0 (Enqueue { flow = 1; bytes = 300 });
  ev 1.5 (Drop { flow = 1; bytes = 999 });
  Alcotest.(check int) "queue packets" 3 (Busmetrics.queue_packets m);
  Alcotest.(check int) "queue bytes" 600 (Busmetrics.queue_bytes m);
  Alcotest.(check int) "active flows" 2 (Busmetrics.flows_active m);
  Alcotest.(check int) "ifaces up" 1 (Busmetrics.ifaces_up m);
  ev 2.0 (Serve { flow = 0; iface = 0; bytes = 100; deficit = 0.0 });
  ev 3.0 (Serve { flow = 0; iface = 0; bytes = 200; deficit = 0.0 });
  Alcotest.(check int) "queue drains" 1 (Busmetrics.queue_packets m);
  Alcotest.(check int) "bytes drain" 300 (Busmetrics.queue_bytes m);
  Alcotest.(check int)
    "iface serve count" 2
    (Busmetrics.iface_serves m ~iface:0);
  let r = Busmetrics.registry m in
  Alcotest.(check int)
    "serves counter" 2
    (Metrics.counter_value r (Metrics.counter r "serves"));
  Alcotest.(check int)
    "enqueues counter" 3
    (Metrics.counter_value r (Metrics.counter r "enqueues"));
  Alcotest.(check int)
    "drops counter" 1
    (Metrics.counter_value r (Metrics.counter r "drops"));
  Alcotest.(check int)
    "bytes served" 300
    (Metrics.counter_value r (Metrics.counter r "bytes_served"));
  (* delay sketch: both serves waited 1.0 s and 2.0 s (FIFO order) *)
  let d = Busmetrics.delay m in
  Alcotest.(check int) "delay samples" 2 (Log_histogram.count d);
  close ~tol:1e-6 "min delay" 1.0 (Log_histogram.min_value d);
  close ~tol:1e-6 "max delay" 2.0 (Log_histogram.max_value d);
  (* publish writes the values derived from the fold's records *)
  Busmetrics.publish m;
  close "published packets gauge" 1.0
    (Metrics.gauge_value r (Metrics.gauge r "queue_packets"));
  close "published bytes gauge" 300.0
    (Metrics.gauge_value r (Metrics.gauge r "queue_bytes"))

let test_busmetrics_iface_occupancy () =
  (* per-interface occupancy is the summed backlog of the flows the
     stream has associated with that interface *)
  let m = Busmetrics.create () in
  let ev = feed m in
  ev 0.0 (Iface_up { iface = 0 });
  ev 0.0 (Iface_up { iface = 1 });
  ev 0.0 (Flow_add { flow = 0; weight = 1.0 });
  ev 0.0 (Flow_add { flow = 1; weight = 1.0 });
  (* flow 0 on iface 0, flow 1 on both (learned from Turn/Serve) *)
  ev 0.5 (Turn { flow = 0; iface = 0 });
  ev 0.5 (Turn { flow = 1; iface = 0 });
  ev 0.5 (Turn { flow = 1; iface = 1 });
  ev 1.0 (Enqueue { flow = 0; bytes = 100 });
  ev 1.0 (Enqueue { flow = 0; bytes = 100 });
  ev 1.0 (Enqueue { flow = 1; bytes = 100 });
  Alcotest.(check int)
    "iface 0 sees both flows" 3
    (Busmetrics.iface_queue_packets m ~iface:0);
  Alcotest.(check int)
    "iface 1 sees flow 1 only" 1
    (Busmetrics.iface_queue_packets m ~iface:1);
  ev 2.0 (Serve { flow = 1; iface = 1; bytes = 100; deficit = 0.0 });
  Alcotest.(check int)
    "serve drains both views" 2
    (Busmetrics.iface_queue_packets m ~iface:0);
  Alcotest.(check int)
    "iface 1 drained" 0
    (Busmetrics.iface_queue_packets m ~iface:1);
  (* per-interface delay sketch exists for the serving interface *)
  (match Busmetrics.iface_delay m ~iface:1 with
  | None -> Alcotest.fail "iface 1 has no delay sketch"
  | Some d -> Alcotest.(check int) "iface delay sample" 1 (Log_histogram.count d));
  ev 3.0 (Flow_remove { flow = 0 });
  Alcotest.(check int)
    "flow removal clears backlog" 0
    (Busmetrics.iface_queue_packets m ~iface:0);
  Alcotest.(check int) "active drops" 1 (Busmetrics.flows_active m)

(* A removed flow id registered again starts with no interface
   association: the old mask must not count its new backlog on interfaces
   it has not used since. *)
let test_busmetrics_reused_flow_id () =
  let m = Busmetrics.create () in
  let ev = feed m in
  ev 0.0 (Iface_up { iface = 0 });
  ev 0.0 (Iface_up { iface = 1 });
  ev 0.0 (Flow_add { flow = 1; weight = 1.0 });
  ev 1.0 (Enqueue { flow = 1; bytes = 100 });
  ev 1.0 (Turn { flow = 1; iface = 0 });
  ev 1.0 (Serve { flow = 1; iface = 0; bytes = 100; deficit = 1400.0 });
  ev 2.0 (Flow_remove { flow = 1 });
  ev 2.0 (Flow_add { flow = 1; weight = 1.0 });
  ev 3.0 (Enqueue { flow = 1; bytes = 100 });
  Alcotest.(check int)
    "old interface does not see the new backlog" 0
    (Busmetrics.iface_queue_packets m ~iface:0);
  ev 3.0 (Turn { flow = 1; iface = 1 });
  Alcotest.(check int)
    "new interface does" 1
    (Busmetrics.iface_queue_packets m ~iface:1);
  Alcotest.(check int)
    "old interface still clear" 0
    (Busmetrics.iface_queue_packets m ~iface:0)

let test_busmetrics_orphan_serve () =
  (* a Serve with no matching Enqueue (sink attached mid-run) must not
     produce a bogus delay sample — it lands in the NaN cell *)
  let m = Busmetrics.create () in
  feed m 5.0 (Serve { flow = 0; iface = 0; bytes = 100; deficit = 0.0 });
  let d = Busmetrics.delay m in
  Alcotest.(check int) "no numeric sample" 0 (Log_histogram.count d);
  Alcotest.(check int) "counted in nan cell" 1 (Log_histogram.nan_count d)

(* Per-flow delays, as [Bounds.report] measures them: a fold fed only
   one flow's events pairs its Serves FIFO with its own Enqueues and
   records the same integer-nanosecond delays the whole-stream fold's
   aggregate sketch records. *)
let test_busmetrics_flow_delay () =
  let m = Busmetrics.create () in
  let per_flow = Array.init 10 (fun _ -> Busmetrics.create ()) in
  let ev =
    let r = Event.create () in
    fun time e ->
      Event.encode r e;
      Busmetrics.on_event m ~time r;
      Option.iter
        (fun f -> Busmetrics.on_event per_flow.(f) ~time r)
        (Event.flow e)
  in
  let serve time flow iface =
    ev time (Serve { flow; iface; bytes = 100; deficit = 0.0 })
  in
  let enqueue time flow = ev time (Enqueue { flow; bytes = 100 }) in
  enqueue 0.1 0;
  enqueue 0.2 0;
  enqueue 0.25 1;
  enqueue 0.3 0;
  serve 0.35 0 0;
  serve 0.9 0 1;
  serve 1.0 1 0;
  serve 1.7 0 0;
  (* flow 2 is served with no enqueue seen *)
  serve 2.0 2 0;
  (* flow 1's pending enqueue goes with its removal; its sample stays *)
  enqueue 2.0 1;
  ev 2.5 (Flow_remove { flow = 1 });
  serve 3.0 1 0;
  (* flow 3 is never served *)
  enqueue 3.0 3;
  let ns enq srv = int_of_float ((srv -. enq) *. 1e9) in
  let agg = Busmetrics.delay m in
  let sketch_of samples =
    let h =
      Log_histogram.create ~lo:(Log_histogram.lo agg)
        ~gamma:(Log_histogram.gamma agg) ~bins:(Log_histogram.bins agg)
    in
    List.iter (Log_histogram.observe_ns h) samples;
    h
  in
  let same_as what expected got =
    Alcotest.(check int) (what ^ " count") (Log_histogram.count expected)
      (Log_histogram.count got);
    Alcotest.(check (float 0.0)) (what ^ " exact max")
      (Log_histogram.max_value expected) (Log_histogram.max_value got);
    List.iter
      (fun q ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s p%g" what (q *. 100.0))
          (Log_histogram.quantile expected ~q) (Log_histogram.quantile got ~q))
      [ 0.5; 0.9; 0.99; 1.0 ]
  in
  let flow_sketch f = Busmetrics.delay per_flow.(f) in
  let never_served f =
    let h = flow_sketch f in
    Log_histogram.count h + Log_histogram.nan_count h = 0
  in
  let f0 = [ ns 0.1 0.35; ns 0.2 0.9; ns 0.3 1.7 ] and f1 = [ ns 0.25 1.0 ] in
  same_as "flow 0" (sketch_of f0) (flow_sketch 0);
  Alcotest.(check (float 0.0)) "flow 0 max is 1.4 s to the ns"
    (Float.of_int (ns 0.3 1.7) *. 1e-9)
    (Log_histogram.max_value (flow_sketch 0));
  same_as "flow 1" (sketch_of f1) (flow_sketch 1);
  Alcotest.(check int) "flow 1 unmatched serve" 1
    (Log_histogram.nan_count (flow_sketch 1));
  Alcotest.(check int) "flow 2 no sample" 0
    (Log_histogram.count (flow_sketch 2));
  Alcotest.(check int) "flow 2 nan cell" 1
    (Log_histogram.nan_count (flow_sketch 2));
  Alcotest.(check bool) "flow 3 never served" true (never_served 3);
  Alcotest.(check bool) "flow 9 never seen" true (never_served 9);
  (* the aggregate sketch still sees every serve *)
  same_as "aggregate" (sketch_of (f0 @ f1)) agg;
  Alcotest.(check int) "aggregate nan cell" 2 (Log_histogram.nan_count agg);
  (* the fold registers no per-flow sketch (nor do its exports carry one) *)
  Alcotest.(check (list string))
    "registered sketches"
    [ "delay_seconds"; "iface0_delay_seconds"; "iface1_delay_seconds" ]
    (List.map fst (Metrics.histograms (Busmetrics.registry m)))

(* Words the fold keeps per registered flow, over flows each added,
   enqueued and served once: a record, a 2-slot pending ring and a slot
   in the flow array, about 12.6 words.  A first ring of 16 slots read
   26.6; a 520-bucket delay sketch per flow read 567.6, which made the
   fold 6.4x the bare heap on the quarter fleet. *)
let test_busmetrics_footprint () =
  let n = 10_000 in
  let m = Busmetrics.create () in
  let ev = feed m in
  ev 0.0 (Iface_up { iface = 0 });
  let before = Obj.reachable_words (Obj.repr m) in
  for flow = 0 to n - 1 do
    let t = Float.of_int flow in
    ev t (Flow_add { flow; weight = 1.0 });
    ev t (Enqueue { flow; bytes = 1500 });
    ev (t +. 0.5) (Serve { flow; iface = 0; bytes = 1500; deficit = 0.0 })
  done;
  let after = Obj.reachable_words (Obj.repr m) in
  Alcotest.(check int) "all registered" n (Busmetrics.flows_active m);
  Alcotest.(check int) "all served" n (Busmetrics.iface_serves m ~iface:0);
  let per_flow = Float.of_int (after - before) /. Float.of_int n in
  Printf.printf "busmetrics: %.1f reachable words per flow\n" per_flow;
  if per_flow > 13.6 then
    Alcotest.failf "busmetrics: %.1f reachable words per flow > 13.6" per_flow

(* --- busmetrics against a replayed model --------------------------------- *)

(* Random event streams over flows 0..9 and interfaces 0..65.  Ids past
   61 do not fit a flow's association mask, so their occupancy reads 0.
   Every stream opens with a Serve before any Enqueue, a Flow_remove
   with a backlog and a re-registered id.  After every event the fold's
   values must equal those of a model replaying the stream, and after
   the stream [publish] must write them to the registry. *)
let model_flows = 10
let model_ifaces = 66
let mask_ifaces = 62

let gen_event =
  let open QCheck.Gen in
  let flow = int_bound (model_flows - 1)
  and iface = int_bound (model_ifaces - 1)
  and bytes = int_range 1 1500 in
  frequency
    [
      (6, map2 (fun flow bytes -> Event.Enqueue { flow; bytes }) flow bytes);
      ( 6,
        map3
          (fun flow iface bytes ->
            Event.Serve { flow; iface; bytes; deficit = 0.0 })
          flow iface bytes );
      (1, map2 (fun flow bytes -> Event.Drop { flow; bytes }) flow bytes);
      (2, map2 (fun flow iface -> Event.Turn { flow; iface }) flow iface);
      (1, map2 (fun flow iface -> Event.Flag_reset { flow; iface }) flow iface);
      ( 1,
        map3
          (fun flow iface bytes -> Event.Complete { flow; iface; bytes })
          flow iface bytes );
      (1, map (fun iface -> Event.Iface_up { iface }) iface);
      (1, map (fun iface -> Event.Iface_down { iface }) iface);
      (2, map (fun flow -> Event.Flow_add { flow; weight = 1.0 }) flow);
      (1, map (fun flow -> Event.Flow_remove { flow }) flow);
      (1, map (fun flow -> Event.Weight_change { flow; weight = 2.0 }) flow);
    ]

let preamble =
  Event.
    [
      Serve { flow = 0; iface = 63; bytes = 100; deficit = 0.0 };
      Flow_add { flow = 1; weight = 1.0 };
      Enqueue { flow = 1; bytes = 500 };
      Enqueue { flow = 1; bytes = 700 };
      Turn { flow = 1; iface = 4 };
      Flow_remove { flow = 1 };
      Flow_add { flow = 1; weight = 1.0 };
    ]

type model = {
  backlog : int array;
  qbytes : int array;
  assoc : bool array array; (* flow, interface *)
  active : bool array;
  up : bool array;
  seen : bool array; (* interfaces the stream named *)
}

let model_step m (ev : Event.t) =
  let associate flow iface =
    m.seen.(iface) <- true;
    if iface < mask_ifaces then m.assoc.(flow).(iface) <- true
  in
  match ev with
  | Enqueue { flow; bytes } ->
      m.backlog.(flow) <- m.backlog.(flow) + 1;
      m.qbytes.(flow) <- m.qbytes.(flow) + bytes
  | Serve { flow; iface; bytes; _ } ->
      associate flow iface;
      if m.backlog.(flow) > 0 then begin
        m.backlog.(flow) <- m.backlog.(flow) - 1;
        m.qbytes.(flow) <- m.qbytes.(flow) - bytes
      end
  | Turn { flow; iface } -> associate flow iface
  | Complete { iface; _ } -> m.seen.(iface) <- true
  | Iface_up { iface } ->
      m.seen.(iface) <- true;
      m.up.(iface) <- true
  | Iface_down { iface } ->
      m.seen.(iface) <- true;
      m.up.(iface) <- false
  | Flow_add { flow; _ } -> m.active.(flow) <- true
  | Flow_remove { flow } ->
      m.active.(flow) <- false;
      m.backlog.(flow) <- 0;
      m.qbytes.(flow) <- 0;
      Array.fill m.assoc.(flow) 0 model_ifaces false
  | Drop _ | Flag_reset _ | Weight_change _ -> ()

let sum a = Array.fold_left ( + ) 0 a
let count a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

let model_occupancy m j =
  let n = ref 0 in
  for f = 0 to model_flows - 1 do
    if m.assoc.(f).(j) then n := !n + m.backlog.(f)
  done;
  !n

let prop_busmetrics_model =
  let print evs =
    String.concat "; " (List.map (Format.asprintf "%a" Event.pp) evs)
  in
  QCheck.Test.make ~count:300 ~name:"busmetrics matches a replayed model"
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 0 300) gen_event))
    (fun evs ->
      let m =
        {
          backlog = Array.make model_flows 0;
          qbytes = Array.make model_flows 0;
          assoc = Array.make_matrix model_flows model_ifaces false;
          active = Array.make model_flows false;
          up = Array.make model_ifaces false;
          seen = Array.make model_ifaces false;
        }
      in
      let b = Busmetrics.create () in
      let ev = feed b in
      let check i what want got =
        if want <> got then
          QCheck.Test.fail_reportf "after event %d: %s is %d, the model says %d"
            i what got want
      in
      List.iteri
        (fun i e ->
          ev (Float.of_int i) e;
          model_step m e;
          check i "queue_packets" (sum m.backlog) (Busmetrics.queue_packets b);
          check i "queue_bytes" (sum m.qbytes) (Busmetrics.queue_bytes b);
          check i "flows_active" (count m.active) (Busmetrics.flows_active b);
          check i "ifaces_up" (count m.up) (Busmetrics.ifaces_up b);
          for j = 0 to model_ifaces - 1 do
            check i
              (Printf.sprintf "iface %d occupancy" j)
              (model_occupancy m j)
              (Busmetrics.iface_queue_packets b ~iface:j)
          done)
        (preamble @ evs);
      Busmetrics.publish b;
      let gauges = Metrics.gauges (Busmetrics.registry b) in
      let gauge name =
        match List.assoc_opt name gauges with
        | Some v -> int_of_float v
        | None -> QCheck.Test.fail_reportf "no gauge %s" name
      in
      let last = List.length preamble + List.length evs in
      check last "published queue_packets" (sum m.backlog)
        (gauge "queue_packets");
      check last "published queue_bytes" (sum m.qbytes) (gauge "queue_bytes");
      check last "published flows_active" (count m.active)
        (gauge "flows_active");
      check last "published ifaces_up" (count m.up) (gauge "ifaces_up");
      for j = 0 to model_ifaces - 1 do
        let name = Printf.sprintf "iface%d_queue_packets" j in
        if m.seen.(j) then
          check last ("published " ^ name) (model_occupancy m j) (gauge name)
        else if List.mem_assoc name gauges then
          QCheck.Test.fail_reportf "gauge %s for an interface never named" name
      done;
      true)

(* --- span tracing -------------------------------------------------------- *)

(* Deterministic fake clock: advances 1000 ns per reading. *)
let fake_clock () =
  let t = ref 0 in
  fun () ->
    t := !t + 1000;
    !t

let test_span_balance () =
  let s = Span.create ~clock:(fake_clock ()) () in
  let decide = Span.phase s "decide" in
  let serve = Span.phase s "serve" in
  Alcotest.(check int) "phase id stable" decide (Span.phase s "decide");
  for _ = 1 to 10 do
    Span.enter s decide;
    Span.exit s decide;
    Span.enter s serve;
    Span.exit s serve
  done;
  (* an exit with no sampled enter is a no-op, not a corrupt span *)
  Span.exit s decide;
  Alcotest.(check int) "completed spans" 20 (Span.count s);
  Alcotest.(check int) "none dropped" 0 (Span.dropped s);
  Alcotest.(check (list string)) "phases" [ "decide"; "serve" ] (Span.phases s)

let count_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.equal (String.sub hay i nl) needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_span_chrome_json () =
  let s = Span.create ~clock:(fake_clock ()) () in
  let p = Span.phase s "decide" in
  for _ = 1 to 5 do
    Span.enter s p;
    Span.exit s p
  done;
  let json = Span.chrome_json s in
  Alcotest.(check int) "5 begins" 5 (count_substring json "\"ph\":\"B\"");
  Alcotest.(check int) "5 ends" 5 (count_substring json "\"ph\":\"E\"");
  Alcotest.(check bool)
    "wrapped in traceEvents" true
    (count_substring json "\"traceEvents\"" = 1);
  (* timestamps are rebased: the first begin is at ts 0 *)
  Alcotest.(check bool)
    "rebased origin" true
    (count_substring json "\"ts\":0.000" >= 1)

let test_span_sampling_and_capacity () =
  let s = Span.create ~capacity:3 ~sample_every:2 ~clock:(fake_clock ()) () in
  let p = Span.phase s "decide" in
  for _ = 1 to 10 do
    Span.enter s p;
    Span.exit s p
  done;
  (* every 2nd span sampled = 5, but only 3 rows fit *)
  Alcotest.(check int) "capacity bounds storage" 3 (Span.count s);
  Alcotest.(check int) "excess counted as dropped" 2 (Span.dropped s)

(* --- exporters ----------------------------------------------------------- *)

let test_prometheus_export () =
  let m = Busmetrics.create () in
  let ev = feed m in
  ev 0.0 (Iface_up { iface = 0 });
  ev 0.0 (Flow_add { flow = 0; weight = 1.0 });
  ev 1.0 (Enqueue { flow = 0; bytes = 100 });
  ev 2.0 (Serve { flow = 0; iface = 0; bytes = 100; deficit = 0.0 });
  Busmetrics.publish m;
  let text = Export.prometheus_string (Busmetrics.registry m) in
  let has s =
    Alcotest.(check bool) (Printf.sprintf "contains %S" s) true
      (count_substring text s >= 1)
  in
  has "midrr_serves_total 1";
  has "midrr_enqueues_total 1";
  has "midrr_queue_packets 0";
  has "midrr_ifaces_up 1";
  has "midrr_delay_seconds_count 1";
  has "quantile=\"0.999\"";
  has "# TYPE midrr_serves_total counter";
  (* sanitizer: exporter names are [a-zA-Z0-9_] with the midrr_ prefix *)
  Alcotest.(check string) "sanitize" "midrr_a_b_c" (Export.sanitize "a-b c")

let test_prometheus_file_export () =
  let path = Filename.temp_file "midrr_metrics" ".prom" in
  let r = Metrics.create () in
  Metrics.add r (Metrics.counter r "serves") 7;
  Export.write_prometheus r ~path;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "file has the counter" true
    (count_substring text "midrr_serves_total 7" = 1);
  Alcotest.(check bool) "no torn tmp left" false
    (Sys.file_exists (path ^ ".tmp"))

(* --- non-perturbation ---------------------------------------------------- *)

(* The load-bearing property of "always-on": attaching the full
   telemetry plane (busmetrics fold + span probes) to a scenario run
   must leave the scheduler-event stream byte-identical.  Same pattern
   as test_golden's prefix capture, fig6 under both engines. *)
let scenario_path =
  (* `dune runtest` runs from the test directory, `dune exec` from the
     project root; accept either. *)
  if Sys.file_exists "../scenarios/fig6.scn" then "../scenarios/fig6.scn"
  else "scenarios/fig6.scn"

let trace_prefix ?metrics ?spans ~engine ~limit () =
  let text = In_channel.with_open_text scenario_path In_channel.input_all in
  let lines = ref [] and count = ref 0 in
  let sink ~time ev =
    if !count < limit then begin
      lines := Midrr_obs.Jsonl.to_string ~time (Event.decode ev) :: !lines;
      incr count
    end
  in
  (match Midrr_sim.Scenario.run_text ~sink ?metrics ?spans ~engine text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "scenario error: %s" e);
  List.rev !lines

let test_telemetry_does_not_perturb engine () =
  let limit = 5_000 in
  let bare = trace_prefix ~engine ~limit () in
  let m = Busmetrics.create () in
  let s = Span.create ~clock:(fake_clock ()) () in
  let instrumented = trace_prefix ~metrics:m ~spans:s ~engine ~limit () in
  let rec compare i = function
    | [], [] -> ()
    | g :: _, [] | [], g :: _ ->
        Alcotest.failf "stream lengths differ at line %d (%s)" i g
    | b :: bs, m :: ms ->
        if String.equal b m then compare (i + 1) (bs, ms)
        else
          Alcotest.failf
            "first divergent event at line %d\n  bare:         %s\n  instrumented: %s"
            i b m
  in
  compare 1 (bare, instrumented);
  (* and the fold actually saw the run *)
  let r = Busmetrics.registry m in
  Alcotest.(check bool) "fold saw serves" true
    (Metrics.counter_value r (Metrics.counter r "serves") > 0);
  Alcotest.(check bool) "delay sketch fed" true
    (Log_histogram.count (Busmetrics.delay m) > 0)

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "gauges" `Quick test_registry_gauges;
          Alcotest.test_case "growth" `Quick test_registry_growth;
          Alcotest.test_case "observe_ns" `Quick test_registry_observe_ns;
          Alcotest.test_case "merge" `Quick test_registry_merge;
        ] );
      ( "busmetrics",
        [
          Alcotest.test_case "fold" `Quick test_busmetrics_fold;
          Alcotest.test_case "per-iface occupancy" `Quick
            test_busmetrics_iface_occupancy;
          Alcotest.test_case "orphan serve" `Quick test_busmetrics_orphan_serve;
          Alcotest.test_case "per-flow delay" `Quick test_busmetrics_flow_delay;
          Alcotest.test_case "words per flow" `Quick test_busmetrics_footprint;
          Alcotest.test_case "reused flow id" `Quick
            test_busmetrics_reused_flow_id;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20131209 |])
            prop_busmetrics_model;
        ] );
      ( "span",
        [
          Alcotest.test_case "balance" `Quick test_span_balance;
          Alcotest.test_case "chrome json" `Quick test_span_chrome_json;
          Alcotest.test_case "sampling and capacity" `Quick
            test_span_sampling_and_capacity;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus text" `Quick test_prometheus_export;
          Alcotest.test_case "prometheus file" `Quick
            test_prometheus_file_export;
        ] );
      ( "non-perturbation",
        [
          Alcotest.test_case "fast engine trace identical" `Quick
            (test_telemetry_does_not_perturb Midrr_sim.Scenario.Engine_fast);
          Alcotest.test_case "ref engine trace identical" `Quick
            (test_telemetry_does_not_perturb Midrr_sim.Scenario.Engine_ref);
        ] );
    ]
