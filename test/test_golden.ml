(* Golden-trace regression for the scheduler-event stream.

   [golden/fig6_trace_prefix.jsonl.gz] is the first 2500 lines of
   `midrr run scenarios/fig6.scn --trace` as emitted when the trace
   format and the reference engine were frozen.  Both engines must
   reproduce it byte for byte: the trace carries every enqueue, turn,
   flag reset and serve (with its post-serve deficit), so any change to
   scheduling order, deficit arithmetic or the JSONL schema shows up as
   a divergent line.  On mismatch the failure prints the first divergent
   event of each stream, which names the flow/interface and step where
   behavior changed.

   The fixture is gzipped to keep the repository small; it is inflated
   through the system gzip so no compression library is needed. *)

(* `dune runtest` runs from the test directory, `dune exec` from the
   project root; accept either. *)
let fixture ~from_test ~from_root =
  if Sys.file_exists from_test then from_test else from_root

let golden file =
  fixture
    ~from_test:(Filename.concat "golden" file)
    ~from_root:(Filename.concat "test/golden" file)

let corpus_scenario file =
  fixture ~from_test:("../scenarios/" ^ file) ~from_root:("scenarios/" ^ file)

let golden_path = golden "fig6_trace_prefix.jsonl.gz"
let scenario_path = corpus_scenario "fig6.scn"

let read_golden () =
  let ic = Unix.open_process_in (Printf.sprintf "gzip -dc %s" golden_path) in
  let rec go acc =
    match In_channel.input_line ic with
    | Some line -> go (line :: acc)
    | None -> List.rev acc
  in
  let lines = go [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "gzip -dc %s failed" golden_path);
  if lines = [] then Alcotest.failf "empty golden trace %s" golden_path;
  lines

(* Capture the first [limit] trace lines of a scenario run, formatted
   exactly as `midrr run --trace` writes them. *)
let trace_prefix ~engine ~limit =
  let text = In_channel.with_open_text scenario_path In_channel.input_all in
  let lines = ref [] and count = ref 0 in
  let sink ~time ev =
    if !count < limit then begin
      lines := Midrr_obs.Jsonl.to_string ~time (Midrr_obs.Event.decode ev) :: !lines;
      incr count
    end
  in
  (match Midrr_sim.Scenario.run_text ~sink ~engine text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "scenario error: %s" e);
  List.rev !lines

let check_against_golden name engine () =
  let golden = read_golden () in
  let got = trace_prefix ~engine ~limit:(List.length golden) in
  let rec compare i = function
    | [], [] -> ()
    | g :: _, [] ->
        Alcotest.failf "%s: trace ends at line %d; golden continues with:\n%s"
          name i g
    | [], l :: _ ->
        Alcotest.failf "%s: trace has extra line %d beyond golden:\n%s" name i
          l
    | g :: gs, l :: ls ->
        if String.equal g l then compare (i + 1) (gs, ls)
        else
          Alcotest.failf
            "%s: first divergent event at line %d\n  golden: %s\n  got:    %s"
            name i g l
  in
  compare 1 (golden, got)

(* The two engines must also agree with each other over a much longer
   horizon than the committed prefix. *)
let engines_agree () =
  let limit = 50_000 in
  let fast = trace_prefix ~engine:Midrr_sim.Scenario.Engine_fast ~limit in
  let refe = trace_prefix ~engine:Midrr_sim.Scenario.Engine_ref ~limit in
  let rec compare i = function
    | [], [] -> ()
    | g :: _, [] | [], g :: _ ->
        Alcotest.failf "engines: stream lengths differ at line %d (%s)" i g
    | f :: fs, r :: rs ->
        if String.equal f r then compare (i + 1) (fs, rs)
        else
          Alcotest.failf
            "engines: first divergent event at line %d\n  fast: %s\n  ref:  %s"
            i f r
  in
  compare 1 (fast, refe)

(* --- WFQ and round robin ------------------------------------------------ *)

(* WFQ and round robin were once implemented twice: bespoke engines and
   rank programs over the PIFO substrate.  The fixtures below were
   recorded from the bespoke engines before they were deleted, and the
   programs that now answer to [wfq] and [rr] must reproduce them byte
   for byte: the rate report of each corpus scenario, a digest of its
   full JSONL event stream, and the Fig. 1 table.  [golden/mesh64.scn]
   is the 64-flow overload scenario the benchmark drives (kept out of
   [scenarios/], which the bound harness sweeps). *)

let first_divergence name ~golden ~got =
  let rec go i = function
    | [], [] -> ()
    | g :: _, [] -> Alcotest.failf "%s: output ends at line %d; golden has:\n%s" name i g
    | [], l :: _ -> Alcotest.failf "%s: extra line %d beyond golden:\n%s" name i l
    | g :: gs, l :: ls ->
        if String.equal g l then go (i + 1) (gs, ls)
        else
          Alcotest.failf "%s: line %d differs\n  golden: %s\n  got:    %s" name
            i g l
  in
  go 1 (String.split_on_char '\n' golden, String.split_on_char '\n' got)

let check_golden file got =
  let want = In_channel.with_open_bin (golden file) In_channel.input_all in
  first_divergence file ~golden:want ~got

(* One section per scheduler: the report, then the trace's event count
   and MD5. *)
let report_section scenario ppf (label, sched) =
  let trace = Buffer.create (1 lsl 20) and events = ref 0 in
  let sink ~time ev =
    Buffer.add_string trace
      (Midrr_obs.Jsonl.to_string ~time (Midrr_obs.Event.decode ev));
    Buffer.add_char trace '\n';
    incr events
  in
  let report = Midrr_sim.Scenario.run ~sink ~seed:1 ~sched scenario in
  Format.fprintf ppf "== %s ==@.%a@.trace %d events md5 %s@." label
    Midrr_sim.Scenario.pp_report report !events
    (Digest.to_hex (Digest.string (Buffer.contents trace)))

let load_scenario path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Midrr_sim.Scenario.parse text with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" path e

let check_sections ~suffix path sections =
  let scenario = load_scenario path in
  check_golden
    (Filename.basename path ^ suffix)
    (Format.asprintf "%a"
       (Format.pp_print_list (report_section scenario))
       (sections scenario))

let registry spec () = Midrr_sim.Scenario.make_sched spec

let scenario_reports ?(extra = []) path () =
  check_sections ~suffix:".wfq-rr.txt" path (fun _ ->
      [
        ("wfq", registry Midrr_sim.Scenario.Sched_wfq);
        ("rr", registry Midrr_sim.Scenario.Sched_rr);
      ]
      @ extra)

(* The queue bound the benchmark's mesh workload runs WFQ with. *)
let mesh_capacity = 65536

let mesh_extra =
  [
    ( Printf.sprintf "wfq queue_capacity=%d" mesh_capacity,
      fun () ->
        Midrr_core.Prog_wfq.packed
          (Midrr_core.Prog_wfq.create ~queue_capacity:mesh_capacity ()) );
  ]

(* --- the other disciplines ------------------------------------------ *)

let on_engine engine scenario () =
  Midrr_sim.Scenario.make_sched ~engine (Midrr_sim.Scenario.sched_spec scenario)

let ref_label = "scenario --engine ref"

(* Every other discipline's run of each corpus scenario, pinned the
   same way: `midrr run S --sched D --trace` for the six disciplines
   below, then `midrr run S --engine ref --trace` (the scenario's own
   directive on the reference engine), a section that the sharded
   engine at 2 shards must render byte for byte as well.  The fixtures
   predate the simulator's dense slots and counted window, so they
   check that datapath against the one it replaced. *)
let discipline_reports path () =
  check_sections ~suffix:".disciplines.txt" path (fun scenario ->
      List.map
        (fun spec -> (Midrr_sim.Scenario.sched_name spec, registry spec))
        Midrr_sim.Scenario.
          [
            Sched_midrr None;
            Sched_drr;
            Sched_sprio;
            Sched_srpt;
            Sched_edf;
            Sched_lstf;
          ]
      @ [ (ref_label, on_engine Midrr_sim.Scenario.Engine_ref scenario) ]);
  let file = Filename.basename path ^ ".disciplines.txt" in
  let header = Printf.sprintf "== %s ==" ref_label in
  let rec section = function
    | [] -> Alcotest.failf "%s: no %s section" file header
    | line :: _ as lines when String.equal line header ->
        String.concat "\n" lines
    | _ :: rest -> section rest
  in
  let fixture = In_channel.with_open_bin (golden file) In_channel.input_all in
  let scenario = load_scenario path in
  first_divergence (file ^ " under --engine sharded --shards 2")
    ~golden:(section (String.split_on_char '\n' fixture))
    ~got:
      (Format.asprintf "%a" (report_section scenario)
         (ref_label, on_engine (Midrr_sim.Scenario.Engine_sharded 2) scenario))

(* The other PIFO programs on the 64-flow overload mesh, unbounded and
   with the benchmark's queues, plus round robin with those queues: the
   drop path (a rejected push) and the [`All_ifaces] re-rank walks of
   SRPT, EDF and LSTF under 64 flows at 1.2x load.  Recorded from the
   substrate's hashed flow and interface tables, before the dense
   slots replaced them. *)
let mesh_programs () =
  let module C = Midrr_core in
  let programs ?queue_capacity () =
    [
      ("sprio", fun () -> C.Prog_sprio.(packed (create ?queue_capacity ())));
      ("srpt", fun () -> C.Prog_srpt.(packed (create ?queue_capacity ())));
      ("edf", fun () -> C.Prog_edf.(packed (create ?queue_capacity ())));
      ("lstf", fun () -> C.Prog_lstf.(packed (create ?queue_capacity ())));
    ]
  in
  let bounded =
    let queue_capacity = mesh_capacity in
    programs ~queue_capacity ()
    @ [ ("rr", fun () -> C.Prog_rr.(packed (create ~queue_capacity ()))) ]
  in
  check_sections ~suffix:".disciplines.txt" (golden "mesh64.scn") (fun _ ->
      programs ()
      @ List.map
          (fun (label, make) ->
            (Printf.sprintf "%s queue_capacity=%d" label mesh_capacity, make))
          bounded)

(* A Netsim run whose WFQ queues hold 8 packets, under the 32-packet
   window that backlogged and finite sources keep queued: every refill
   ends on a rejected enqueue.  Pins the per-flow enqueues, drops and
   serves, the bytes delivered per interface and the trace digest. *)
let capacity_window () =
  let module N = Midrr_sim.Netsim in
  let sched =
    Midrr_core.Prog_wfq.packed
      (Midrr_core.Prog_wfq.create ~queue_capacity:(8 * 1500) ())
  in
  let nflows = 5 in
  let counts = Array.make_matrix nflows 3 0 in
  let trace = Buffer.create (1 lsl 20) and events = ref 0 in
  let sink ~time (ev : Midrr_obs.Event.record) =
    Buffer.add_string trace
      (Midrr_obs.Jsonl.to_string ~time (Midrr_obs.Event.decode ev));
    Buffer.add_char trace '\n';
    incr events;
    let col =
      match ev.kind with
      | Enqueue -> 0
      | Drop -> 1
      | Serve -> 2
      | _ -> -1
    in
    if col >= 0 then counts.(ev.flow).(col) <- counts.(ev.flow).(col) + 1
  in
  let sim = N.create ~seed:3 ~sink ~sched () in
  N.add_iface sim 1 (Midrr_sim.Link.constant 2e6);
  N.add_iface sim 2
    (Midrr_sim.Link.steps ~initial:5e6 [ (10.0, 0.0); (20.0, 5e6) ]);
  N.add_flow sim 0 ~weight:1.0 ~allowed:[ 1; 2 ]
    (N.Backlogged { pkt_size = 1500 });
  N.add_flow sim 1 ~weight:2.0 ~allowed:[ 2 ]
    (N.Finite { total_bytes = 3_000_000; pkt_size = 1000 });
  N.add_flow sim 2 ~weight:1.0 ~allowed:[ 1 ]
    (N.Poisson { rate = 1e6; pkt_size = 500; stop = None });
  N.add_flow sim 3 ~at:5.0 ~weight:1.0 ~allowed:[ 1; 2 ]
    (N.Backlogged { pkt_size = 1200 });
  N.remove_flow sim ~at:25.0 3;
  N.add_flow sim 4 ~weight:3.0 ~allowed:[ 1; 2 ]
    (N.Finite { total_bytes = 900_000; pkt_size = 1500 });
  N.run sim ~until:30.0;
  let b = Buffer.create 1024 in
  for f = 0 to nflows - 1 do
    Printf.bprintf b
      "flow %d: enqueue %d drop %d serve %d bytes on 1 %d on 2 %d done %s\n"
      f counts.(f).(0) counts.(f).(1) counts.(f).(2)
      (N.served_cell sim ~flow:f ~iface:1)
      (N.served_cell sim ~flow:f ~iface:2)
      (match N.completion_time sim f with
      | Some at -> Printf.sprintf "%.9f" at
      | None -> "-")
  done;
  Printf.bprintf b "trace %d events md5 %s\n" !events
    (Digest.to_hex (Digest.string (Buffer.contents trace)));
  check_golden "netsim_capacity_window.txt" (Buffer.contents b)

let fig1_table () =
  check_golden "fig1.txt"
    (Format.asprintf "%a@." Midrr_experiments.Fig1.print
       (Midrr_experiments.Fig1.run ()))

(* The stdout of `midrr theorem1`, `fig6 --clusters`, `fig10 --clusters`,
   `ablation`, `aggregation`, `granularity` and `convergence`, recorded
   before each figure's windows and reference moved onto [Meter.window]
   (Fig. 6(b)'s table since runs on to flow c's last bin), and of
   `inbound`, recorded after: its exact windows moved the client-HTTP
   column. *)
let figure file print () = check_golden file (Format.asprintf "%t" print)

(* [print ppf (run ())] as the command prints it. *)
let study file print run =
  Alcotest.test_case
    (Filename.remove_extension file)
    `Quick
    (figure file (fun ppf -> Format.fprintf ppf "%a@." print (run ())))

module E = Midrr_experiments

(* --- the telemetry plane ------------------------------------------------- *)

(* What `midrr run S --metrics F --metrics-interval 5 --top` writes: the
   fold's [--top] snapshot at every 5 s tick, as an MD5 (the stream runs
   to hundreds of lines), then the final snapshot's MD5 and the final
   Prometheus file in full.  Recorded before the fold derived its gauges
   at publish instead of mirroring them per event. *)
let telemetry path () =
  let scenario = load_scenario path in
  let bm = Midrr_obs.Busmetrics.create () in
  let reg = Midrr_obs.Busmetrics.registry bm in
  let out = Buffer.create 4096 in
  let top () =
    Midrr_obs.Busmetrics.publish bm;
    Digest.to_hex
      (Digest.string (Format.asprintf "%a" Midrr_obs.Export.pp_top reg))
  in
  let tick ~time = Printf.bprintf out "t=%.3f top md5 %s\n" time (top ()) in
  ignore
    (Midrr_sim.Scenario.run ~metrics:bm ~ticks:(5.0, tick) scenario
      : Midrr_sim.Scenario.report);
  Printf.bprintf out "final top md5 %s\n%s" (top ())
    (Midrr_obs.Export.prometheus_string reg);
  check_golden (Filename.basename path ^ ".telemetry.txt") (Buffer.contents out)

let corpus =
  List.map corpus_scenario
    [
      "fig6.scn";
      "handover.scn";
      "bound_twoiface.scn";
      "bound_crosstraffic.scn";
    ]

let () =
  Alcotest.run "golden"
    [
      ( "wfq and rr",
        List.map
          (fun path ->
            Alcotest.test_case
              (Filename.basename path ^ " reports")
              `Quick (scenario_reports path))
          corpus
        @ [
            Alcotest.test_case "mesh64.scn reports" `Slow
              (scenario_reports ~extra:mesh_extra (golden "mesh64.scn"));
            Alcotest.test_case "fig1 table" `Quick fig1_table;
          ] );
      ( "figures",
        [
          Alcotest.test_case "theorem1" `Quick
            (figure "theorem1.txt" (fun ppf ->
                 Format.fprintf ppf "%a@." E.Theorem1.print
                   (E.Theorem1.run ())));
          Alcotest.test_case "fig6 --clusters" `Quick
            (figure "fig6_clusters.txt" (fun ppf ->
                 let r = E.Fig6.run () in
                 Format.fprintf ppf "%a@.%a@." E.Fig6.print r
                   E.Fig6.print_clusters r));
          Alcotest.test_case "fig10 --clusters" `Quick
            (figure "fig10_clusters.txt" (fun ppf ->
                 let r = E.Fig10.run () in
                 Format.fprintf ppf "%a@.%a@." E.Fig10.print r
                   E.Fig10.print_clusters r));
          study "ablation.txt" E.Ablation.print E.Ablation.run;
          study "aggregation.txt" E.Aggregation.print E.Aggregation.run;
          study "granularity.txt" E.Granularity.print E.Granularity.run;
          study "convergence.txt" E.Convergence.print E.Convergence.run;
          study "inbound.txt" E.Inbound.print E.Inbound.run;
        ] );
      ( "schedulers",
        List.map
          (fun path ->
            Alcotest.test_case
              (Filename.basename path ^ " reports")
              `Quick (discipline_reports path))
          corpus
        @ [
            Alcotest.test_case "mesh64.scn programs" `Slow mesh_programs;
            Alcotest.test_case "netsim queues under the window" `Quick
              capacity_window;
          ] );
      ( "telemetry",
        List.map
          (fun path ->
            Alcotest.test_case
              (Filename.basename path ^ " metrics and top")
              `Quick (telemetry path))
          corpus
        @ [
            Alcotest.test_case "mesh64.scn metrics and top" `Slow
              (telemetry (golden "mesh64.scn"));
          ] );
      ( "fig6 trace",
        [
          Alcotest.test_case "fast engine matches golden" `Quick
            (check_against_golden "fast" Midrr_sim.Scenario.Engine_fast);
          Alcotest.test_case "ref engine matches golden" `Quick
            (check_against_golden "ref" Midrr_sim.Scenario.Engine_ref);
          Alcotest.test_case "sharded engine (shards=1) matches golden" `Quick
            (check_against_golden "sharded1"
               (Midrr_sim.Scenario.Engine_sharded 1));
          Alcotest.test_case "sharded engine (shards=4) matches golden" `Quick
            (check_against_golden "sharded4"
               (Midrr_sim.Scenario.Engine_sharded 4));
          Alcotest.test_case "engines agree beyond the prefix" `Quick
            engines_agree;
        ] );
    ]
