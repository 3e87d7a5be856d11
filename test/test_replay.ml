(* The UPS replay oracle (Oracle.Replay) exercised end to end.

   For each scenario and discipline: run the discipline, record its
   golden schedule through a subscribed sink, rebuild the simulation with
   the replay scheduler carrying that schedule as rank assignments, and
   measure the per-interface longest-common-prefix agreement between the
   replayed and golden schedules.  A discipline is "replayable" when a
   pure rank assignment over the PIFO substrate reproduces its decisions
   — the universal-packet-scheduling question asked of this repo's
   disciplines on the paper's fig6 and handover topologies.

   The suite prints the replayability table (the report the issue asks
   for) and asserts the structural fact that must hold however the
   fractions land: self-replay of a replayed schedule is a fixed point. *)

open Midrr_core
module Scenario = Midrr_sim.Scenario
module Replay = Oracle.Replay

let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Scenario.parse text with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" path e

(* Run [scenario] under the scheduler [make ()] with a recorder
   subscribed before the platform attaches its own sinks (Netsim tees,
   so both see the stream); return the recorded schedule. *)
let record_run scenario make =
  let sched = make () in
  let finish = Replay.record sched in
  ignore (Scenario.run ~seed:1 ~sched:(fun () -> sched) scenario);
  finish ()

let replayability scenario spec =
  let golden =
    record_run scenario (fun () -> Scenario.make_sched spec)
  in
  let candidate =
    record_run scenario (fun () -> Replay.sched golden)
  in
  (golden, candidate, Replay.compare_schedules ~golden ~candidate)

let scenario_paths = [ "../scenarios/fig6.scn"; "../scenarios/handover.scn" ]

let report_table () =
  List.iter
    (fun path ->
      let scenario = load path in
      Printf.printf "replayability on %s:\n" (Filename.basename path);
      List.iter
        (fun name ->
          let spec = Option.get (Scenario.sched_of_name name) in
          let golden, _, comp = replayability scenario spec in
          Printf.printf "  %-10s %5d serves, %5d in prefix, %.3f%s\n" name
            (Array.length golden) comp.Replay.matched (Replay.fraction comp)
            (if comp.Replay.exact then "  (exact)" else ""))
        Scenario.sched_names;
      Alcotest.(check pass) "table rendered" () ())
    scenario_paths

(* Replaying a replayed schedule is a fixed point: the second replay must
   reproduce the first exactly (the replay scheduler is itself a rank
   assignment, so its own schedule is replayable by construction). *)
let self_replay_fixed_point () =
  List.iter
    (fun path ->
      let scenario = load path in
      let golden =
        record_run scenario (fun () ->
            Scenario.make_sched (Scenario.Sched_midrr None))
      in
      let first = record_run scenario (fun () -> Replay.sched golden) in
      let second = record_run scenario (fun () -> Replay.sched first) in
      let comp = Replay.compare_schedules ~golden:first ~candidate:second in
      if not comp.Replay.exact then
        Alcotest.failf "%s: replay not a fixed point: %d/%d matched"
          (Filename.basename path) comp.Replay.matched comp.Replay.golden_total)
    scenario_paths

(* Sanity on the comparator itself. *)
let comparator_unit () =
  let s ~f ~j ~b = { Replay.r_flow = f; r_iface = j; r_bytes = b } in
  let golden = [| s ~f:0 ~j:1 ~b:100; s ~f:1 ~j:1 ~b:200; s ~f:0 ~j:2 ~b:50 |] in
  let comp = Replay.compare_schedules ~golden ~candidate:golden in
  Alcotest.(check bool) "identical is exact" true comp.Replay.exact;
  Alcotest.(check int) "all matched" 3 comp.Replay.matched;
  (* divergence on iface 1 after the first step; iface 2 still matches *)
  let candidate =
    [| s ~f:0 ~j:1 ~b:100; s ~f:0 ~j:2 ~b:50; s ~f:1 ~j:1 ~b:999 |]
  in
  let comp = Replay.compare_schedules ~golden ~candidate in
  Alcotest.(check bool) "divergent not exact" false comp.Replay.exact;
  Alcotest.(check int) "prefixes: 1 on iface 1 + 1 on iface 2" 2
    comp.Replay.matched;
  let empty = Replay.compare_schedules ~golden:[||] ~candidate:[||] in
  Alcotest.(check (float 0.0)) "empty golden is fully matched" 1.0
    (Replay.fraction empty)

let () =
  Alcotest.run "replay"
    [
      ( "oracle",
        [
          Alcotest.test_case "comparator" `Quick comparator_unit;
          Alcotest.test_case "replayability table" `Slow report_table;
          Alcotest.test_case "self-replay fixed point" `Slow
            self_replay_fixed_point;
        ] );
    ]
