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

let golden_path = "golden/fig6_trace_prefix.jsonl.gz"
let scenario_path = "../scenarios/fig6.scn"

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
  let golden =
    In_channel.with_open_bin (Filename.concat "golden" file) In_channel.input_all
  in
  first_divergence file ~golden ~got

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

let scenario_reports ?(extra = []) path () =
  let text = In_channel.with_open_text path In_channel.input_all in
  let scenario =
    match Midrr_sim.Scenario.parse text with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let registry spec () = Midrr_sim.Scenario.make_sched spec in
  check_golden
    (Filename.basename path ^ ".wfq-rr.txt")
    (Format.asprintf "%a"
       (Format.pp_print_list (report_section scenario))
       ([
          ("wfq", registry Midrr_sim.Scenario.Sched_wfq);
          ("rr", registry Midrr_sim.Scenario.Sched_rr);
        ]
       @ extra))

(* The queue bound the benchmark's mesh workload runs WFQ with. *)
let mesh_extra =
  [
    ( "wfq queue_capacity=65536",
      fun () ->
        Midrr_core.Prog_wfq.packed
          (Midrr_core.Prog_wfq.create ~queue_capacity:65536 ()) );
  ]

let fig1_table () =
  check_golden "fig1.txt"
    (Format.asprintf "%a@." Midrr_experiments.Fig1.print
       (Midrr_experiments.Fig1.run ()))

let corpus =
  [
    "../scenarios/fig6.scn";
    "../scenarios/handover.scn";
    "../scenarios/bound_twoiface.scn";
    "../scenarios/bound_crosstraffic.scn";
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
              (scenario_reports ~extra:mesh_extra "golden/mesh64.scn");
            Alcotest.test_case "fig1 table" `Quick fig1_table;
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
