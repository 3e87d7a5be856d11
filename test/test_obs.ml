(* Unit tests for the observability bus (lib/obs) and its wiring into the
   schedulers: event accessors and the record's setters, sink
   combinators, the ring-buffer recorder, the per-cell counters, the
   JSONL export format, and the subscribe/tee semantics on a live
   scheduler.  Producers refill one record per emission, so several tests
   check that no consumer keeps that record past its call. *)

open Midrr_core
module Event = Midrr_obs.Event
module Sink = Midrr_obs.Sink
module Recorder = Midrr_obs.Recorder
module Counters = Midrr_obs.Counters
module Jsonl = Midrr_obs.Jsonl

let check = Alcotest.check

(* Deliver decoded events to a timed sink through one reused record, as
   a producer does. *)
let feed (s : Sink.t) =
  let r = Event.create () in
  fun ~time e ->
    Event.encode r e;
    s ~time r

let event = Alcotest.testable Event.pp ( = )

(* One event of every kind, filled through its producer-side setter:
   deficits zero, fractional and negative, weights that [%g] prints
   short and long. *)
let every_kind : (string * (Event.record -> unit) * Event.t) list =
  let with_value set v r =
    set r;
    r.Event.num.value <- v
  in
  [
    ( "enqueue",
      (fun r -> Event.set_enqueue r ~flow:3 ~bytes:1500),
      Event.Enqueue { flow = 3; bytes = 1500 } );
    ( "drop",
      (fun r -> Event.set_drop r ~flow:4 ~bytes:60),
      Event.Drop { flow = 4; bytes = 60 } );
    ( "serve, zero deficit",
      with_value (Event.set_serve ~flow:1 ~iface:0 ~bytes:1000) 0.0,
      Event.Serve { flow = 1; iface = 0; bytes = 1000; deficit = 0.0 } );
    ( "serve, fractional deficit",
      with_value (Event.set_serve ~flow:2 ~iface:1 ~bytes:1500) 2.5,
      Event.Serve { flow = 2; iface = 1; bytes = 1500; deficit = 2.5 } );
    ( "serve, negative deficit",
      with_value (Event.set_serve ~flow:2 ~iface:3 ~bytes:700) (-123.4567),
      Event.Serve { flow = 2; iface = 3; bytes = 700; deficit = -123.4567 } );
    ( "turn",
      (fun r -> Event.set_turn r ~flow:5 ~iface:2),
      Event.Turn { flow = 5; iface = 2 } );
    ( "flag_reset",
      (fun r -> Event.set_flag_reset r ~flow:6 ~iface:1),
      Event.Flag_reset { flow = 6; iface = 1 } );
    ( "iface_up",
      (fun r -> Event.set_iface_up r ~iface:7),
      Event.Iface_up { iface = 7 } );
    ( "iface_down",
      (fun r -> Event.set_iface_down r ~iface:8),
      Event.Iface_down { iface = 8 } );
    ( "flow_add",
      with_value (Event.set_flow_add ~flow:9) 2.5,
      Event.Flow_add { flow = 9; weight = 2.5 } );
    ( "flow_remove",
      (fun r -> Event.set_flow_remove r ~flow:10),
      Event.Flow_remove { flow = 10 } );
    ( "weight_change",
      with_value (Event.set_weight_change ~flow:11) 0.1234567,
      Event.Weight_change { flow = 11; weight = 0.1234567 } );
    ( "weight_change, large",
      with_value (Event.set_weight_change ~flow:12) 1e7,
      Event.Weight_change { flow = 12; weight = 1e7 } );
    ( "complete",
      (fun r -> Event.set_complete r ~flow:13 ~iface:0 ~bytes:999),
      Event.Complete { flow = 13; iface = 0; bytes = 999 } );
  ]

(* --- events ------------------------------------------------------------- *)

let test_event_accessors () =
  let serve = Event.Serve { flow = 3; iface = 1; bytes = 1500; deficit = 2.5 } in
  check Alcotest.(option int) "serve flow" (Some 3) (Event.flow serve);
  check Alcotest.(option int) "serve iface" (Some 1) (Event.iface serve);
  check Alcotest.(option int) "serve bytes" (Some 1500) (Event.bytes serve);
  let up = Event.Iface_up { iface = 7 } in
  check Alcotest.(option int) "iface_up flow" None (Event.flow up);
  check Alcotest.(option int) "iface_up iface" (Some 7) (Event.iface up);
  check Alcotest.(option int) "iface_up bytes" None (Event.bytes up);
  let turn = Event.Turn { flow = 2; iface = 0 } in
  check Alcotest.(option int) "turn bytes" None (Event.bytes turn)

let test_event_labels () =
  let cases =
    [
      (Event.Enqueue { flow = 0; bytes = 1 }, "enqueue");
      (Event.Drop { flow = 0; bytes = 1 }, "drop");
      (Event.Serve { flow = 0; iface = 0; bytes = 1; deficit = 0.0 }, "serve");
      (Event.Turn { flow = 0; iface = 0 }, "turn");
      (Event.Flag_reset { flow = 0; iface = 0 }, "flag_reset");
      (Event.Iface_up { iface = 0 }, "iface_up");
      (Event.Iface_down { iface = 0 }, "iface_down");
      (Event.Flow_add { flow = 0; weight = 1.0 }, "flow_add");
      (Event.Flow_remove { flow = 0 }, "flow_remove");
      (Event.Weight_change { flow = 0; weight = 1.0 }, "weight_change");
      (Event.Complete { flow = 0; iface = 0; bytes = 1 }, "complete");
    ]
  in
  List.iter
    (fun (ev, want) ->
      check Alcotest.string ("label " ^ want) want (Event.label ev))
    cases

(* Every kind survives setter -> decode, and decode -> encode -> decode,
   through one reused record: a setter leaves nothing of the previous
   event behind. *)
let test_event_setters_round_trip () =
  let r = Event.create () in
  List.iter
    (fun (what, set, want) ->
      set r;
      check event ("setter " ^ what) want (Event.decode r))
    every_kind;
  List.iter
    (fun (what, _, want) ->
      Event.encode r want;
      check event ("encode " ^ what) want (Event.decode r))
    (List.rev every_kind)

(* --- sinks -------------------------------------------------------------- *)

let test_sink_tee_and_stamp () =
  let seen_a = ref [] and seen_b = ref [] in
  let a ~time ev = seen_a := (time, Event.decode ev) :: !seen_a in
  let b ~time ev = seen_b := (time, Event.decode ev) :: !seen_b in
  let teed = feed (Sink.tee a b) in
  teed ~time:1.0 (Event.Iface_up { iface = 0 });
  teed ~time:2.0 (Event.Iface_down { iface = 0 });
  check Alcotest.int "tee delivers to a" 2 (List.length !seen_a);
  check Alcotest.int "tee delivers to b" 2 (List.length !seen_b);
  (* stamp turns a timed sink into a raw one using the given clock *)
  let now = ref 5.0 in
  let raw = Sink.stamp ~clock:(fun () -> !now) a in
  let r = Event.create () in
  Event.set_iface_up r ~iface:1;
  raw r;
  now := 6.5;
  Event.set_iface_up r ~iface:2;
  raw r;
  match !seen_a with
  | (t2, _) :: (t1, _) :: _ ->
      check (Alcotest.float 1e-9) "second stamp" 6.5 t2;
      check (Alcotest.float 1e-9) "first stamp" 5.0 t1
  | _ -> Alcotest.fail "expected stamped events"

(* Both sides of a tee read the same record, in order, and each sees the
   event the producer filled — not a later one. *)
let test_sink_tee_same_event () =
  let seen_a = ref [] and seen_b = ref [] in
  let a ~time ev = seen_a := (time, Event.decode ev) :: !seen_a in
  let b ~time ev = seen_b := (time, Event.decode ev) :: !seen_b in
  let teed = Sink.tee a b in
  let r = Event.create () in
  let sent =
    List.mapi
      (fun i (_, set, want) ->
        let time = Float.of_int i in
        set r;
        teed ~time r;
        (time, want))
      every_kind
  in
  let timed = Alcotest.(list (pair (float 0.0) event)) in
  check timed "a saw every event, in order" sent (List.rev !seen_a);
  check timed "b saw the same" sent (List.rev !seen_b)

(* --- recorder ----------------------------------------------------------- *)

let test_recorder_fold_and_wrap () =
  let r = Recorder.create ~capacity:4 () in
  let ev = Event.create () in
  for i = 1 to 10 do
    Event.set_enqueue ev ~flow:i ~bytes:(i * 100);
    Recorder.record r ~time:(float_of_int i) ev
  done;
  check Alcotest.int "length capped" 4 (Recorder.length r);
  check Alcotest.int "total counts everything" 10 (Recorder.total r);
  check Alcotest.int "dropped = total - retained" 6 (Recorder.dropped r);
  (* oldest-first over the retained window: flows 7..10 *)
  let flows =
    Recorder.fold r ~init:[] ~f:(fun acc (e : Recorder.entry) ->
        match Event.flow e.event with Some f -> f :: acc | None -> acc)
  in
  check Alcotest.(list int) "retained, oldest first" [ 10; 9; 8; 7 ] flows;
  let windowed =
    Recorder.fold_between r ~t0:8.0 ~t1:10.0 ~init:0 ~f:(fun n _ -> n + 1)
  in
  check Alcotest.int "fold_between is [t0, t1)" 2 windowed;
  Recorder.clear r;
  check Alcotest.int "clear empties" 0 (Recorder.length r)

(* Wraparound under a burst far larger than the ring, driven by a live
   scheduler rather than hand-fed events: every overwritten entry must be
   accounted for in [dropped] (total = length + dropped — nothing is
   truncated silently), and the retained window must be exactly the most
   recent [capacity] events in order. *)
let test_recorder_burst_wraparound () =
  let capacity = 64 in
  let r = Recorder.create ~capacity () in
  let sched = Midrr.create () in
  let clock = ref 0.0 in
  Midrr.set_sink sched (Some (Sink.stamp ~clock:(fun () -> !clock) (Recorder.sink r)));
  Drr_engine.add_iface sched 0;
  Drr_engine.add_flow sched ~flow:0 ~weight:1.0 ~allowed:[ 0 ];
  (* Each iteration emits one enqueue and one serve event. *)
  let rounds = 5_000 in
  for i = 1 to rounds do
    clock := float_of_int i;
    ignore
      (Drr_engine.enqueue sched (Packet.create ~flow:0 ~size:100 ~arrival:!clock));
    match Drr_engine.next_packet sched 0 with
    | Some _ -> ()
    | None -> Alcotest.fail "burst: expected a packet"
  done;
  let expected_total =
    (* iface_up + flow_add + per round: enqueue, turn(s), serve *)
    Recorder.length r + Recorder.dropped r
  in
  check Alcotest.int "no silent truncation: total = length + dropped"
    expected_total (Recorder.total r);
  check Alcotest.int "length capped at capacity" capacity (Recorder.length r);
  check Alcotest.bool "burst actually wrapped" true
    (Recorder.dropped r > rounds);
  (* Retained entries are the newest ones, oldest first, and timestamps
     are monotone across the wrapped window. *)
  let times =
    Recorder.fold r ~init:[] ~f:(fun acc (e : Recorder.entry) -> e.time :: acc)
    |> List.rev
  in
  check Alcotest.int "retained count" capacity (List.length times);
  let sorted = List.sort compare times in
  check Alcotest.bool "oldest-first across wrap" true (times = sorted);
  check (Alcotest.float 1e-9) "newest event retained" (float_of_int rounds)
    (List.nth times (capacity - 1))

(* A JSONL sink under the same burst writes every event: the stream is
   unbounded (no ring), so line count must equal the recorder's total. *)
let test_jsonl_burst_to_file () =
  let path = Filename.temp_file "midrr_jsonl_burst" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r = Recorder.create ~capacity:16 () in
      let oc = open_out path in
      let sched = Midrr.create () in
      let sink = Sink.tee (Jsonl.sink oc) (Recorder.sink r) in
      Midrr.set_sink sched (Some (Sink.stamp ~clock:(fun () -> 0.0) sink));
      Drr_engine.add_iface sched 0;
      Drr_engine.add_flow sched ~flow:3 ~weight:1.0 ~allowed:[ 0 ];
      for _ = 1 to 1_000 do
        ignore
          (Drr_engine.enqueue sched
             (Packet.create ~flow:3 ~size:200 ~arrival:0.0));
        ignore (Drr_engine.next_packet sched 0)
      done;
      close_out oc;
      let lines = In_channel.with_open_text path In_channel.input_lines in
      check Alcotest.bool "recorder ring wrapped" true (Recorder.dropped r > 0);
      check Alcotest.int "jsonl keeps every event the ring dropped"
        (Recorder.total r) (List.length lines);
      List.iter
        (fun line ->
          let n = String.length line in
          if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
            Alcotest.failf "malformed jsonl line: %s" line)
        lines)

let test_recorder_as_sink () =
  let r = Recorder.create () in
  let s = feed (Recorder.sink r) in
  s ~time:0.25 (Event.Complete { flow = 1; iface = 0; bytes = 999 });
  check Alcotest.int "sink records" 1 (Recorder.length r);
  match Recorder.entries r with
  | [ e ] ->
      check (Alcotest.float 1e-9) "time kept" 0.25 e.time;
      check Alcotest.(option int) "bytes kept" (Some 999) (Event.bytes e.event)
  | _ -> Alcotest.fail "expected one entry"

(* The ring copies fields, not the producer's record: a recorder teed
   next to a sink that decodes at once holds the same events, though the
   scheduler refilled one record for all of them. *)
let test_recorder_matches_immediate_decode () =
  let r = Recorder.create ~capacity:4096 () in
  let decoded = ref [] in
  let immediate ~time ev = decoded := (time, Event.decode ev) :: !decoded in
  let sched = Midrr.create () in
  let clock = ref 0.0 in
  Midrr.set_sink sched
    (Some
       (Sink.stamp ~clock:(fun () -> !clock) (Sink.tee (Recorder.sink r) immediate)));
  Drr_engine.add_iface sched 0;
  Drr_engine.add_iface sched 1;
  Drr_engine.add_flow sched ~flow:0 ~weight:1.0 ~allowed:[ 0; 1 ];
  Drr_engine.add_flow sched ~flow:1 ~weight:2.5 ~allowed:[ 1 ];
  for i = 1 to 200 do
    clock := Float.of_int i;
    ignore
      (Drr_engine.enqueue sched
         (Packet.create ~flow:(i mod 2) ~size:(100 + i) ~arrival:!clock));
    ignore (Drr_engine.next_packet sched (i mod 2))
  done;
  Drr_engine.set_weight sched 1 0.5;
  ignore (Drr_engine.enqueue sched (Packet.create ~flow:7 ~size:1 ~arrival:0.0));
  Drr_engine.remove_flow sched 0;
  Drr_engine.remove_iface sched 1;
  let recorded =
    List.map (fun (e : Recorder.entry) -> (e.time, e.event)) (Recorder.entries r)
  in
  check Alcotest.int "nothing dropped" 0 (Recorder.dropped r);
  check Alcotest.bool "many distinct events" true (List.length recorded > 400);
  check
    Alcotest.(list (pair (float 0.0) event))
    "recorder = immediate decode" (List.rev !decoded) recorded

(* --- counters ----------------------------------------------------------- *)

let test_counters () =
  let c = Counters.create () in
  Counters.add c ~flow:0 ~iface:0 ~bytes:100;
  Counters.add c ~flow:0 ~iface:1 ~bytes:50;
  Counters.add c ~flow:1 ~iface:0 ~bytes:25;
  Counters.add c ~flow:0 ~iface:0 ~bytes:100;
  check Alcotest.int "cell accumulates" 200 (Counters.cell c ~flow:0 ~iface:0);
  check Alcotest.int "flow_total" 250 (Counters.flow_total c 0);
  check Alcotest.int "iface_total" 225 (Counters.iface_total c 0);
  check Alcotest.int "grand_total" 275 (Counters.grand_total c);
  check
    Alcotest.(list (pair (pair int int) int))
    "cells sorted"
    [ ((0, 0), 200); ((0, 1), 50); ((1, 0), 25) ]
    (Counters.cells c);
  let base = Counters.copy c in
  Counters.add c ~flow:0 ~iface:0 ~bytes:40;
  check Alcotest.int "copy is independent" 200
    (Counters.cell base ~flow:0 ~iface:0);
  check Alcotest.int "since = cur - base" 40
    (Counters.since c base ~flow:0 ~iface:0)

let test_counters_sink_kinds () =
  let serves = Counters.create ~kind:Counters.Serves () in
  let completes = Counters.create ~kind:Counters.Completes () in
  let deliver c = feed (Counters.sink c) ~time:0.0 in
  let both ev =
    deliver serves ev;
    deliver completes ev
  in
  both (Event.Serve { flow = 0; iface = 0; bytes = 10; deficit = 0.0 });
  both (Event.Complete { flow = 0; iface = 0; bytes = 7 });
  both (Event.Enqueue { flow = 0; bytes = 100 });
  check Alcotest.int "Serves counts serve events only" 10
    (Counters.grand_total serves);
  check Alcotest.int "Completes counts complete events only" 7
    (Counters.grand_total completes)

(* --- jsonl -------------------------------------------------------------- *)

let test_jsonl_format () =
  let line =
    Jsonl.to_string ~time:1.5
      (Event.Serve { flow = 2; iface = 1; bytes = 1500; deficit = 3.0 })
  in
  check Alcotest.string "serve line"
    "{\"t\":1.500000000,\"ev\":\"serve\",\"flow\":2,\"iface\":1,\"bytes\":1500,\"deficit\":3.000}"
    line;
  let line =
    Jsonl.to_string ~time:0.0 (Event.Flow_add { flow = 4; weight = 2.5 })
  in
  check Alcotest.string "flow_add line"
    "{\"t\":0.000000000,\"ev\":\"flow_add\",\"flow\":4,\"weight\":2.5}" line;
  let line = Jsonl.to_string ~time:0.125 (Event.Iface_down { iface = 3 }) in
  check Alcotest.string "iface_down line"
    "{\"t\":0.125000000,\"ev\":\"iface_down\",\"iface\":3}" line

(* The streaming sink writes, for every kind, the line [to_string] gave
   for the same event before the bus carried records. *)
let test_jsonl_every_kind () =
  let expected =
    [
      {|{"t":0.000000000,"ev":"enqueue","flow":3,"bytes":1500}|};
      {|{"t":1.000000000,"ev":"drop","flow":4,"bytes":60}|};
      {|{"t":2.000000000,"ev":"serve","flow":1,"iface":0,"bytes":1000,"deficit":0.000}|};
      {|{"t":3.000000000,"ev":"serve","flow":2,"iface":1,"bytes":1500,"deficit":2.500}|};
      {|{"t":4.000000000,"ev":"serve","flow":2,"iface":3,"bytes":700,"deficit":-123.457}|};
      {|{"t":5.000000000,"ev":"turn","flow":5,"iface":2}|};
      {|{"t":6.000000000,"ev":"flag_reset","flow":6,"iface":1}|};
      {|{"t":7.000000000,"ev":"iface_up","iface":7}|};
      {|{"t":8.000000000,"ev":"iface_down","iface":8}|};
      {|{"t":9.000000000,"ev":"flow_add","flow":9,"weight":2.5}|};
      {|{"t":10.000000000,"ev":"flow_remove","flow":10}|};
      {|{"t":11.000000000,"ev":"weight_change","flow":11,"weight":0.123457}|};
      {|{"t":12.000000000,"ev":"weight_change","flow":12,"weight":1e+07}|};
      {|{"t":13.000000000,"ev":"complete","flow":13,"iface":0,"bytes":999}|};
    ]
  in
  List.iteri
    (fun i (what, _, ev) ->
      check Alcotest.string ("to_string " ^ what) (List.nth expected i)
        (Jsonl.to_string ~time:(Float.of_int i) ev))
    every_kind;
  let path = Filename.temp_file "midrr_jsonl_kinds" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let s = Jsonl.sink oc and r = Event.create () in
      List.iteri
        (fun i (_, set, _) ->
          set r;
          s ~time:(Float.of_int i) r)
        every_kind;
      close_out oc;
      check
        Alcotest.(list string)
        "sink lines" expected
        (In_channel.with_open_text path In_channel.input_lines))

(* --- scheduler wiring ---------------------------------------------------- *)

(* A scheduler with no sink stays silent and costs nothing; installing
   and tee-ing subscribers delivers every event to each of them. *)
let test_scheduler_emission_and_subscribe () =
  let sched = Midrr.create () in
  check Alcotest.bool "no sink by default" true (Midrr.sink sched = None);
  let p = Midrr.packed sched in
  let first = ref [] and second = ref 0 in
  Sched_intf.Packed.subscribe p (fun ev -> first := Event.decode ev :: !first);
  Drr_engine.add_iface sched 0;
  Drr_engine.add_flow sched ~flow:5 ~weight:1.0 ~allowed:[ 0 ];
  (* second subscriber arrives later and must tee, not replace *)
  Sched_intf.Packed.subscribe p (fun _ -> incr second);
  ignore
    (Drr_engine.enqueue sched (Packet.create ~flow:5 ~size:700 ~arrival:0.0));
  (match Drr_engine.next_packet sched 0 with
  | Some pkt -> check Alcotest.int "served the packet" 700 pkt.size
  | None -> Alcotest.fail "expected a packet");
  let labels = List.rev_map Event.label !first in
  check Alcotest.bool "first subscriber saw iface_up" true
    (List.mem "iface_up" labels);
  check Alcotest.bool "first subscriber saw flow_add" true
    (List.mem "flow_add" labels);
  check Alcotest.bool "first subscriber saw enqueue" true
    (List.mem "enqueue" labels);
  check Alcotest.bool "first subscriber saw serve" true
    (List.mem "serve" labels);
  check Alcotest.bool "second subscriber saw post-subscribe events" true
    (!second > 0);
  (* the serve event carries the decision's full context *)
  (match
     List.find_opt (function Event.Serve _ -> true | _ -> false) !first
   with
  | Some (Event.Serve { flow; iface; bytes; _ }) ->
      check Alcotest.int "serve flow" 5 flow;
      check Alcotest.int "serve iface" 0 iface;
      check Alcotest.int "serve bytes" 700 bytes
  | _ -> Alcotest.fail "expected a serve event");
  (* detaching restores silence *)
  Midrr.set_sink sched None;
  let before = List.length !first in
  ignore
    (Drr_engine.enqueue sched (Packet.create ~flow:5 ~size:700 ~arrival:0.0));
  check Alcotest.int "detached sink sees nothing" before (List.length !first)

(* Dropped packets (unknown flow) are observable. *)
let test_drop_event () =
  let sched = Midrr.create () in
  let dropped = ref None in
  Midrr.set_sink sched
    (Some
       (fun ev ->
         match ev.kind with
         | Drop -> dropped := Some (ev.flow, ev.bytes)
         | _ -> ()));
  Drr_engine.add_iface sched 0;
  ignore
    (Drr_engine.enqueue sched (Packet.create ~flow:99 ~size:123 ~arrival:0.0));
  match !dropped with
  | Some (flow, bytes) ->
      check Alcotest.int "drop flow" 99 flow;
      check Alcotest.int "drop bytes" 123 bytes
  | None -> Alcotest.fail "expected a drop event"

let () =
  Alcotest.run "obs"
    [
      ( "event",
        [
          Alcotest.test_case "accessors" `Quick test_event_accessors;
          Alcotest.test_case "labels" `Quick test_event_labels;
          Alcotest.test_case "setters round-trip" `Quick
            test_event_setters_round_trip;
        ] );
      ( "sink",
        [
          Alcotest.test_case "tee and stamp" `Quick test_sink_tee_and_stamp;
          Alcotest.test_case "tee same event in order" `Quick
            test_sink_tee_same_event;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "fold and wrap" `Quick test_recorder_fold_and_wrap;
          Alcotest.test_case "as sink" `Quick test_recorder_as_sink;
          Alcotest.test_case "burst wraparound" `Quick
            test_recorder_burst_wraparound;
          Alcotest.test_case "matches immediate decode" `Quick
            test_recorder_matches_immediate_decode;
        ] );
      ( "counters",
        [
          Alcotest.test_case "tallies" `Quick test_counters;
          Alcotest.test_case "sink kinds" `Quick test_counters_sink_kinds;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "format" `Quick test_jsonl_format;
          Alcotest.test_case "every kind" `Quick test_jsonl_every_kind;
          Alcotest.test_case "burst to file" `Quick test_jsonl_burst_to_file;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "emission and subscribe" `Quick
            test_scheduler_emission_and_subscribe;
          Alcotest.test_case "drop event" `Quick test_drop_event;
        ] );
    ]
