(* Tests for the discrete-event simulator: event queue, engine, link
   profiles and the network wiring. *)

open Midrr_core
module Event_queue = Midrr_sim.Event_queue
module Engine = Midrr_sim.Engine
module Link = Midrr_sim.Link
module Netsim = Midrr_sim.Netsim

let close ?(tol = 1e-9) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.6g, got %.6g" what expected got

(* --- Event queue --------------------------------------------------------- *)

let test_eq_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  let pop () = Event_queue.pop_min q in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:1.0 i
  done;
  let order = List.init 10 (fun _ -> Event_queue.pop_min q) in
  Alcotest.(check (list int)) "insertion order on ties"
    (List.init 10 Fun.id) order

let test_eq_interleaved () =
  let q = Event_queue.create () in
  let rng = Midrr_stats.Rng.create ~seed:31 in
  (* Random pushes and pops: popped times never decrease. *)
  let last = ref Float.neg_infinity in
  for _ = 1 to 2000 do
    if Midrr_stats.Rng.bool rng || Event_queue.is_empty q then
      Event_queue.push q
        ~time:(Float.max !last (Midrr_stats.Rng.float rng *. 100.0))
        ()
    else begin
      let t = Event_queue.min_time q in
      Event_queue.pop_min q;
      if t < !last then Alcotest.failf "time went backwards: %f < %f" t !last;
      last := t
    end
  done

let test_eq_nan_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> Event_queue.push q ~time:Float.nan ())

let test_eq_peek () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" false (Event_queue.due q ~until:Float.infinity);
  Alcotest.check_raises "empty min_time"
    (Invalid_argument "Event_queue.min_time: empty") (fun () ->
      ignore (Event_queue.min_time q));
  Event_queue.push q ~time:5.0 ();
  close "peek" 5.0 (Event_queue.min_time q);
  Alcotest.(check bool) "due at 5" true (Event_queue.due q ~until:5.0);
  Alcotest.(check bool) "not due before 5" false (Event_queue.due q ~until:4.9);
  Alcotest.(check int) "length" 1 (Event_queue.length q)

(* --- Engine ----------------------------------------------------------------- *)

let test_engine_executes_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:2.0 (fun () -> log := "second" :: !log);
  Engine.schedule e ~at:1.0 (fun () -> log := "first" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "first"; "second" ] (List.rev !log);
  close "clock at last event" 2.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~at:1.0 (fun () -> incr fired);
  Engine.schedule e ~at:5.0 (fun () -> incr fired);
  Engine.run ~until:3.0 e;
  Alcotest.(check int) "only first fired" 1 !fired;
  close "clock advanced to until" 3.0 (Engine.now e);
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "second fired" 2 !fired

let test_engine_events_schedule_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain () =
    incr count;
    if !count < 5 then Engine.schedule_in e ~after:1.0 chain
  in
  Engine.schedule e ~at:0.0 chain;
  Engine.run e;
  Alcotest.(check int) "chain" 5 !count;
  close "final time" 4.0 (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~at:5.0 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time in the past")
    (fun () -> Engine.schedule e ~at:1.0 (fun () -> ()))

(* --- Engine against a model ------------------------------------------------- *)

(* A random run of engine operations replayed on a model: the pending
   events in a list kept stable-sorted by time, whose head runs next.
   Delays are whole quarters, so exact time ties are common.  The event
   scheduled by op [i] has id [i + 1]; it may carry a child delay, and
   when it runs it schedules its child, id [-(i + 1)], that far ahead. *)
type eq_op =
  | Schedule of int * int option (* delay, child delay (quarters) *)
  | Step
  | Run_to_event of int (* [run ~until] an exact pending event's time *)
  | Run_by of int (* [run ~until] now plus eighths: on or between times *)
  | Reject_nan
  | Reject_past

let pp_eq_op = function
  | Schedule (d, None) -> Printf.sprintf "schedule %d" d
  | Schedule (d, Some c) -> Printf.sprintf "schedule %d/child %d" d c
  | Step -> "step"
  | Run_to_event k -> Printf.sprintf "run-to-event %d" k
  | Run_by k -> Printf.sprintf "run-by %d/8" k
  | Reject_nan -> "nan"
  | Reject_past -> "past"

let eq_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun d c -> Schedule (d, c))
            (int_range 0 6)
            (opt ~ratio:0.3 (int_range 0 3)) );
        (3, return Step);
        (1, map (fun k -> Run_to_event k) (int_range 0 1000));
        (1, map (fun k -> Run_by k) (int_range 0 9));
        (1, return Reject_nan);
        (1, return Reject_past);
      ])

let eq_case_arb =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map pp_eq_op ops)))
    QCheck.Gen.(pair (int_range 0 3) (list_size (int_range 0 300) eq_op_gen))

type eq_model = {
  mutable now : float;
  mutable pending : (float * (int * int option)) list; (* time, (id, child) *)
  mutable ran : int list; (* latest first *)
}

let quarters d = Float.of_int d /. 4.0

(* Insert behind every event at or before [time]. *)
let rec model_insert time ev = function
  | ((t, _) as x) :: rest when t <= time -> x :: model_insert time ev rest
  | rest -> (time, ev) :: rest

let model_schedule m time ev = m.pending <- model_insert time ev m.pending

let model_step m =
  match m.pending with
  | [] -> false
  | (time, (id, child)) :: rest ->
      m.pending <- rest;
      m.now <- time;
      m.ran <- id :: m.ran;
      Option.iter (fun c -> model_schedule m (time +. quarters c) (-id, None)) child;
      true

let model_run m ~until =
  while match m.pending with (t, _) :: _ -> t <= until | [] -> false do
    ignore (model_step m)
  done;
  if until > m.now then m.now <- until

let prop_engine_matches_model (capacity, ops) =
  let e = Engine.create ~capacity () in
  let m = { now = 0.0; pending = []; ran = [] } in
  let ran = ref [] in
  let rec event id child () =
    ran := id :: !ran;
    Option.iter
      (fun c -> Engine.schedule_in e ~after:(quarters c) (event (-id) None))
      child
  in
  let expect_reject what msg f =
    let now = Engine.now e and pending = Engine.pending e in
    (match f () with
    | () -> QCheck.Test.fail_reportf "%s accepted" what
    | exception Invalid_argument got when String.equal got msg -> ());
    if
      not
        (Float.equal now (Engine.now e) && Int.equal pending (Engine.pending e))
    then QCheck.Test.fail_reportf "%s changed the engine" what
  in
  let check_state what =
    if
      not
        (Float.equal (Engine.now e) m.now
        && Int.equal (Engine.pending e) (List.length m.pending)
        && List.equal Int.equal !ran m.ran)
    then
      QCheck.Test.fail_reportf
        "after %s: now %g vs model %g, pending %d vs %d, ran [%s] vs [%s]" what
        (Engine.now e) m.now (Engine.pending e) (List.length m.pending)
        (String.concat " " (List.rev_map string_of_int !ran))
        (String.concat " " (List.rev_map string_of_int m.ran))
  in
  List.iteri
    (fun i op ->
      (match op with
      | Schedule (d, child) ->
          Engine.schedule e ~at:(Engine.now e +. quarters d) (event (i + 1) child);
          model_schedule m (m.now +. quarters d) (i + 1, child)
      | Step ->
          if not (Bool.equal (Engine.step e) (model_step m)) then
            QCheck.Test.fail_report "step disagrees on emptiness"
      | Run_to_event k -> (
          match m.pending with
          | [] -> ()
          | pending ->
              let until = fst (List.nth pending (k mod List.length pending)) in
              Engine.run ~until e;
              model_run m ~until)
      | Run_by k ->
          let until = m.now +. (Float.of_int k /. 8.0) in
          Engine.run ~until e;
          model_run m ~until
      | Reject_nan ->
          expect_reject "NaN time" "Event_queue.push: NaN time" (fun () ->
              Engine.schedule e ~at:Float.nan ignore)
      | Reject_past ->
          expect_reject "past time" "Engine.schedule: time in the past"
            (fun () -> Engine.schedule e ~at:(Engine.now e -. 0.25) ignore));
      check_state (Printf.sprintf "op %d (%s)" i (pp_eq_op op)))
    ops;
  Engine.run e;
  while model_step m do
    ()
  done;
  check_state "draining";
  Int.equal (Engine.executed e) (List.length m.ran)

let test_engine_model =
  QCheck.Test.make ~count:300 ~name:"engine matches a stable-sorted model"
    eq_case_arb prop_engine_matches_model

(* --- Link profiles ------------------------------------------------------------ *)

let test_link_constant () =
  let l = Link.constant 5e6 in
  close "rate" 5e6 (Link.rate_at l 0.0);
  close "rate later" 5e6 (Link.rate_at l 100.0);
  Alcotest.(check (option (float 0.0))) "no change" None (Link.next_change l 0.0)

let test_link_steps () =
  let l = Link.steps ~initial:1e6 [ (10.0, 2e6); (20.0, 0.0) ] in
  close "initial" 1e6 (Link.rate_at l 5.0);
  close "at boundary" 2e6 (Link.rate_at l 10.0);
  close "after second" 0.0 (Link.rate_at l 25.0);
  Alcotest.(check (option (float 0.0)))
    "next change from 0" (Some 10.0) (Link.next_change l 0.0);
  Alcotest.(check (option (float 0.0)))
    "next change from 10" (Some 20.0) (Link.next_change l 10.0);
  Alcotest.(check (option (float 0.0)))
    "no more changes" None (Link.next_change l 20.0)

let test_link_steps_validation () =
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Link.steps: non-increasing times") (fun () ->
      ignore (Link.steps ~initial:1.0 [ (5.0, 1.0); (5.0, 2.0) ]))

let test_link_average () =
  let l = Link.steps ~initial:2e6 [ (10.0, 4e6) ] in
  close "before change" 2e6 (Link.average l ~t0:0.0 ~t1:10.0);
  close "after change" 4e6 (Link.average l ~t0:10.0 ~t1:20.0);
  close "straddling" 3e6 (Link.average l ~t0:5.0 ~t1:15.0);
  close "constant" 7e6 (Link.average (Link.constant 7e6) ~t0:3.0 ~t1:9.0)

let test_iface_utilization () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 4.0));
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 4.0));
  (* Interface 0 saturated; interface 1 at quarter load. *)
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1 ]
    (Netsim.Cbr { rate = Types.mbps 1.0; pkt_size = 1000; stop = None });
  let w = Netsim.window sim ~t0:2.0 ~t1:20.0 ~judge:(fun _ -> true) in
  Netsim.run sim ~until:20.0;
  (* What an interface carried is its column of the window's share. *)
  let share = (w ()).share in
  let utilization j =
    Array.fold_left (fun acc row -> acc +. row.(j)) 0.0 share /. Types.mbps 4.0
  in
  let u0 = utilization 0 and u1 = utilization 1 in
  if u0 < 0.97 || u0 > 1.01 then Alcotest.failf "iface 0 util %.3f" u0;
  if Float.abs (u1 -. 0.25) > 0.03 then Alcotest.failf "iface 1 util %.3f" u1

let test_link_periodic () =
  let l = Link.periodic ~period:10.0 [ (0.0, 1e6); (5.0, 2e6) ] in
  close "phase 0" 1e6 (Link.rate_at l 2.0);
  close "phase 1" 2e6 (Link.rate_at l 7.0);
  close "wraps" 1e6 (Link.rate_at l 12.0);
  Alcotest.(check (option (float 1e-9)))
    "next change within cycle" (Some 5.0) (Link.next_change l 2.0);
  Alcotest.(check (option (float 1e-9)))
    "next change wraps" (Some 10.0) (Link.next_change l 7.0);
  (* Of segments at one offset, the last listed holds. *)
  let tied = Link.periodic ~period:10.0 [ (0.0, 1e6); (5.0, 2e6); (5.0, 3e6) ] in
  close "tied offsets at the offset" 3e6 (Link.rate_at tied 5.0);
  close "tied offsets after it" 3e6 (Link.rate_at tied 9.0);
  close "before the tie" 1e6 (Link.rate_at tied 4.0)

(* [Link] against the list scans its lookups ran before the change
   times went flat: the rate of the last point at or before the time
   (of tied periodic offsets, the last listed), and the first point
   strictly after it. *)
type link_model =
  | Steps_m of float * (float * float) list
  | Periodic_m of float * (float * float) list

let link_of_model = function
  | Steps_m (initial, points) -> Link.steps ~initial points
  | Periodic_m (period, segments) -> Link.periodic ~period segments

let rec last_at_or_before x acc = function
  | (at, r) :: rest when at <= x -> last_at_or_before x r rest
  | _ -> acc

let model_rate_at m time =
  match m with
  | Steps_m (initial, points) -> last_at_or_before time initial points
  | Periodic_m (period, segments) ->
      last_at_or_before (Float.rem time period) (snd (List.hd segments))
        segments

let model_next_change m time =
  match m with
  | Steps_m (_, points) ->
      List.find_opt (fun (at, _) -> at > time) points |> Option.map fst
  | Periodic_m (period, segments) -> (
      let cycle = Float.of_int (int_of_float (time /. period)) *. period in
      let phase = time -. cycle in
      match List.find_opt (fun (off, _) -> off > phase) segments with
      | Some (off, _) -> Some (cycle +. off)
      | None -> Some (cycle +. period))

let model_average m ~t0 ~t1 =
  let acc = ref 0.0 and cursor = ref t0 in
  while !cursor < t1 do
    let segment_end =
      match model_next_change m !cursor with
      | Some at when at < t1 -> at
      | _ -> t1
    in
    acc := !acc +. (model_rate_at m !cursor *. (segment_end -. !cursor));
    cursor := segment_end
  done;
  !acc /. (t1 -. t0)

(* Query times: every change point, the instant before it and the
   midpoint after it, over three periods of a periodic profile. *)
let link_queries m =
  let around at next = [ at; Float.pred at; (at +. next) /. 2.0 ] in
  let rec walk shift = function
    | [] -> []
    | [ (at, _) ] -> around (shift +. at) (shift +. at +. 1.0)
    | (at, _) :: ((next, _) :: _ as rest) ->
        around (shift +. at) (shift +. next) @ walk shift rest
  in
  let times =
    match m with
    | Steps_m (_, points) -> 0.0 :: walk 0.0 points
    | Periodic_m (period, segments) ->
        List.concat_map
          (fun k -> walk (Float.of_int k *. period) segments)
          [ 0; 1; 2 ]
  in
  List.sort_uniq Float.compare (List.filter (fun x -> x >= 0.0) times)

let link_rate_gen = QCheck.Gen.oneofl [ 0.0; 1e6; 2.5e6; 12e6 ]

let link_model_gen =
  QCheck.Gen.(
    let steps =
      let* initial = link_rate_gen in
      let* n = int_range 0 6 in
      let* gaps = list_repeat n (int_range 1 40) in
      let* rates = list_repeat n link_rate_gen in
      let times =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) gap ->
                  let at = at +. (Float.of_int gap *. 0.25) in
                  (at, at :: acc))
                (0.0, []) gaps))
      in
      return (Steps_m (initial, List.combine times rates))
    in
    (* Offsets in eighths of the period, so ties are common. *)
    let periodic =
      let* period = map (fun k -> Float.of_int k *. 0.5) (int_range 1 40) in
      let* n = int_range 0 5 in
      let* eighths = list_repeat n (int_range 0 7) in
      let* rates = list_repeat (n + 1) link_rate_gen in
      let offsets =
        0.0
        :: List.map
             (fun k -> period *. Float.of_int k /. 8.0)
             (List.sort Int.compare eighths)
      in
      return (Periodic_m (period, List.combine offsets rates))
    in
    oneof [ steps; periodic ])

let pp_link_model = function
  | Steps_m (initial, points) ->
      Printf.sprintf "steps %g [%s]" initial
        (String.concat "; "
           (List.map (fun (a, r) -> Printf.sprintf "%h, %g" a r) points))
  | Periodic_m (period, segments) ->
      Printf.sprintf "periodic %h [%s]" period
        (String.concat "; "
           (List.map (fun (a, r) -> Printf.sprintf "%h, %g" a r) segments))

let prop_link_matches_list_scan m =
  let l = link_of_model m in
  let queries = link_queries m in
  List.iter
    (fun q ->
      let got = Link.rate_at l q and want = model_rate_at m q in
      if not (Float.equal got want) then
        QCheck.Test.fail_reportf "rate_at %h: %g, list scan %g" q got want;
      let got = Link.next_change l q and want = model_next_change m q in
      if not (Option.equal Float.equal got want) then
        QCheck.Test.fail_reportf "next_change %h: %s, list scan %s" q
          (Option.fold ~none:"None" ~some:(Printf.sprintf "%h") got)
          (Option.fold ~none:"None" ~some:(Printf.sprintf "%h") want))
    queries;
  let rec windows = function
    | t0 :: (t1 :: _ as rest) -> (t0, t1) :: windows rest
    | _ -> []
  in
  let spans =
    match (queries, List.rev queries) with
    | first :: _ :: _, last :: _ -> (first, last) :: windows queries
    | _ -> windows queries
  in
  List.iter
    (fun (t0, t1) ->
      let got = Link.average l ~t0 ~t1 and want = model_average m ~t0 ~t1 in
      if not (Float.equal got want) then
        QCheck.Test.fail_reportf "average [%h, %h): %g, list scan %g" t0 t1
          got want)
    spans;
  true

let test_link_model =
  QCheck.Test.make ~count:500 ~name:"link lookups match a list scan"
    (QCheck.make ~print:pp_link_model link_model_gen)
    prop_link_matches_list_scan

(* A rate lookup on a stepped profile, with the time boxed once up
   front as the engine's clock is, allocates nothing: the scan reads
   the flat change times and the rate comes back from its pair. *)
let test_link_lookup_no_alloc () =
  let l = Link.steps ~initial:1e6 [ (10.0, 2e6); (20.0, 0.0); (30.0, 3e6) ] in
  let times = [ 5.0; 10.0; 15.0; 25.0; 35.0 ] in
  let down = ref 0 in
  let rec lookups = function
    | [] -> ()
    | time :: rest ->
        if Link.rate_at l time <= 0.0 then incr down;
        lookups rest
  in
  let n = 20_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    lookups times
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "outage lookups" n !down;
  let per_lookup = words /. Float.of_int (n * List.length times) in
  if per_lookup >= 0.01 then
    Alcotest.failf "stepped rate_at: %.4f minor words per lookup (bound 0.01)"
      per_lookup

(* --- Mobility -------------------------------------------------------------------- *)

module Mobility = Midrr_sim.Mobility

let test_mobility_gauss_markov_stats () =
  let profile =
    Mobility.gauss_markov ~seed:3 ~mean:5e6 ~sigma:1e6 ~memory:0.9 ~step:1.0
      ~horizon:2000.0 ()
  in
  let mean = Mobility.mean_rate profile ~horizon:2000.0 ~samples:2000 in
  if Float.abs (mean -. 5e6) > 0.5e6 then
    Alcotest.failf "mean %.3g drifted from 5e6" mean;
  (* Rates never go negative. *)
  for i = 0 to 199 do
    if Link.rate_at profile (Float.of_int i *. 10.0) < 0.0 then
      Alcotest.fail "negative rate"
  done

let test_mobility_gauss_markov_deterministic () =
  let a =
    Mobility.gauss_markov ~seed:5 ~mean:1e6 ~sigma:2e5 ~memory:0.8 ~step:0.5
      ~horizon:100.0 ()
  in
  let b =
    Mobility.gauss_markov ~seed:5 ~mean:1e6 ~sigma:2e5 ~memory:0.8 ~step:0.5
      ~horizon:100.0 ()
  in
  for i = 0 to 99 do
    let t = Float.of_int i in
    close
      (Printf.sprintf "t=%d" i)
      (Link.rate_at a t) (Link.rate_at b t)
  done

let test_mobility_coverage_duty () =
  let profile =
    Mobility.coverage ~seed:9 ~rate_in:1e7 ~on_mean:10.0 ~off_mean:10.0
      ~horizon:5000.0 ()
  in
  let mean = Mobility.mean_rate profile ~horizon:5000.0 ~samples:5000 in
  (* 50% duty cycle -> mean about half of the in-coverage rate. *)
  if mean < 3.5e6 || mean > 6.5e6 then
    Alcotest.failf "duty-cycled mean %.3g not near 5e6" mean

let test_mobility_drives_netsim () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  let profile =
    Mobility.coverage ~seed:2 ~rate_in:(Types.mbps 8.0) ~on_mean:5.0
      ~off_mean:5.0 ~horizon:60.0 ()
  in
  Netsim.add_iface sim 0 profile;
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.run sim ~until:60.0;
  let avg = Netsim.avg_rate sim 0 ~t0:0.0 ~t1:60.0 in
  (* Throughput lands between zero and the in-coverage rate, roughly at the
     duty cycle. *)
  if avg < 1.0 || avg > 7.9 then
    Alcotest.failf "coverage-driven rate %.3f implausible" avg

(* --- Netsim ---------------------------------------------------------------------- *)

let test_netsim_cbr_rate () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 10.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Cbr { rate = Types.mbps 2.0; pkt_size = 1000; stop = None });
  Netsim.run sim ~until:20.0;
  close ~tol:0.05 "cbr delivered" 2.0 (Netsim.avg_rate sim 0 ~t0:2.0 ~t1:19.0)

let test_netsim_poisson_rate () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~seed:5 ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 10.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Poisson { rate = Types.mbps 3.0; pkt_size = 1000; stop = None });
  Netsim.run sim ~until:60.0;
  close ~tol:0.25 "poisson mean load" 3.0 (Netsim.avg_rate sim 0 ~t0:5.0 ~t1:60.0)

let test_netsim_finite_completion () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 8.0));
  (* 1 MB at 8 Mb/s = 1 second. *)
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Finite { total_bytes = 1_000_000; pkt_size = 1000 });
  Netsim.run sim ~until:5.0;
  match Netsim.completion_time sim 0 with
  | Some t -> close ~tol:0.01 "completion" 1.0 t
  | None -> Alcotest.fail "transfer never completed"

let test_netsim_on_off_duty_cycle () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~seed:9 ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 50.0));
  (* 10 Mb/s while on, 50% duty cycle -> ~5 Mb/s average. *)
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.On_off
       {
         rate = Types.mbps 10.0;
         pkt_size = 1000;
         on_mean = 1.0;
         off_mean = 1.0;
         stop = None;
       });
  Netsim.run sim ~until:120.0;
  let avg = Netsim.avg_rate sim 0 ~t0:5.0 ~t1:120.0 in
  if avg < 3.0 || avg > 7.0 then
    Alcotest.failf "duty-cycled rate out of range: %.3f" avg

let test_netsim_link_down_recovers () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0
    (Link.steps ~initial:(Types.mbps 4.0)
       [ (10.0, 0.0); (20.0, Types.mbps 4.0) ]);
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.run sim ~until:30.0;
  close ~tol:0.1 "before outage" 4.0 (Netsim.avg_rate sim 0 ~t0:2.0 ~t1:9.0);
  close ~tol:0.1 "during outage" 0.0 (Netsim.avg_rate sim 0 ~t0:11.0 ~t1:19.0);
  close ~tol:0.1 "after recovery" 4.0 (Netsim.avg_rate sim 0 ~t0:21.0 ~t1:29.0)

let test_netsim_flow_arrives_later () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 2.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.add_flow sim 1 ~at:10.0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.run sim ~until:30.0;
  close ~tol:0.1 "alone" 2.0 (Netsim.avg_rate sim 0 ~t0:2.0 ~t1:9.0);
  close ~tol:0.1 "shared" 1.0 (Netsim.avg_rate sim 0 ~t0:12.0 ~t1:29.0);
  close ~tol:0.1 "newcomer" 1.0 (Netsim.avg_rate sim 1 ~t0:12.0 ~t1:29.0)

let test_netsim_remove_flow () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 2.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.remove_flow sim ~at:10.0 1;
  Netsim.run sim ~until:30.0;
  close ~tol:0.1 "shared" 1.0 (Netsim.avg_rate sim 0 ~t0:2.0 ~t1:9.0);
  close ~tol:0.1 "freed capacity" 2.0 (Netsim.avg_rate sim 0 ~t0:12.0 ~t1:29.0)

let test_netsim_share_and_instance () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 1.0));
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 1.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0; 1 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 1 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  let judged = Netsim.window sim ~t0:5.0 ~t1:25.0 ~judge:(fun _ -> true) in
  Netsim.run sim ~until:25.0;
  let { Midrr_sim.Meter.share; instance; _ } = judged () in
  (* Steady state: flow 0 on interface 0 only, flow 1 on interface 1. *)
  close ~tol:5e4 "flow0 if0" 1e6 share.(0).(0);
  close ~tol:5e4 "flow1 if1" 1e6 share.(1).(1);
  close ~tol:5e4 "flow1 if0 zero" 0.0 share.(1).(0);
  Alcotest.(check int) "instance flows" 2
    (Midrr_flownet.Instance.n_flows instance)

(* A flow allowed onto a second interface mid-transfer gets a cell for
   it beside the first, and completes when the two add up to its size. *)
let test_netsim_cells_follow_preferences () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 1.0));
  Netsim.add_iface sim 1 (Link.constant (Types.mbps 1.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Finite { total_bytes = 2_000_000; pkt_size = 1000 });
  Netsim.at sim 5.0 (fun () -> Netsim.set_allowed sim 0 [ 0; 1 ]);
  Netsim.run sim ~until:30.0;
  let cell j = Netsim.served_cell sim ~flow:0 ~iface:j in
  Alcotest.(check int) "cells add up" 2_000_000 (cell 0 + cell 1);
  close ~tol:2000.0 "second interface" 687_500.0 (Float.of_int (cell 1));
  match Netsim.completion_time sim 0 with
  | Some t -> close ~tol:0.01 "completion" 10.5 t
  | None -> Alcotest.fail "transfer never completed"

(* Every delivered packet reaches the sink as one [Complete] event. *)
(* A negative id is rejected before any state changes: a retry raises
   the same error (not [duplicate]), a valid id then registers, and a
   deferred registration cannot fail inside [run]. *)
let test_netsim_negative_ids () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~metrics:(Midrr_obs.Busmetrics.create ()) ~sched () in
  let rejects what msg f =
    for _ = 1 to 2 do
      Alcotest.check_raises what (Invalid_argument msg) f
    done
  in
  rejects "negative iface" "Netsim.add_iface: negative interface id" (fun () ->
      Netsim.add_iface sim (-1) (Link.constant (Types.mbps 1.0)));
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 1.0));
  rejects "negative deferred flow" "Netsim.add_flow: negative flow id"
    (fun () ->
      Netsim.add_flow sim ~at:1.0 (-1) ~weight:1.0 ~allowed:[ 0 ]
        (Netsim.Backlogged { pkt_size = 1000 }));
  Netsim.add_flow sim ~at:1.0 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1000 });
  Netsim.run sim ~until:10.0;
  close ~tol:0.05 "flow 0 rate" 1.0 (Netsim.avg_rate sim 0 ~t0:2.0 ~t1:10.0)

let test_netsim_completion_hook () =
  let count = ref 0 and bytes = ref 0 in
  let sink ~time:_ (ev : Midrr_obs.Event.record) =
    match ev.kind with
    | Midrr_obs.Event.Complete ->
        incr count;
        bytes := !bytes + ev.bytes
    | _ -> ()
  in
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sink ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 8.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Finite { total_bytes = 10_000; pkt_size = 1000 });
  Netsim.run sim ~until:5.0;
  Alcotest.(check int) "ten packets" 10 !count;
  Alcotest.(check int) "all bytes" 10_000 !bytes

(* A finite flow removed while bytes are still missing never completes,
   even when its last packet in flight lands after the removal. *)
let test_netsim_stopped_finite () =
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 1.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Finite { total_bytes = 3000; pkt_size = 1500 });
  Netsim.remove_flow sim ~at:0.005 0;
  Netsim.run sim ~until:1.0;
  Alcotest.(check int) "in-flight packet delivered" 1500
    (Netsim.served_cell sim ~flow:0 ~iface:0);
  Alcotest.(check (option (float 0.0))) "no completion" None
    (Netsim.completion_time sim 0)

(* --- Scenario language ------------------------------------------------------ *)

module Scenario = Midrr_sim.Scenario

let fig1c_scenario =
  {|
# figure 1(c)
scheduler midrr
iface 1 constant 1Mb
iface 2 constant 1Mb
flow a weight=1 ifaces=1,2 backlogged pkt=1000
flow b weight=1 ifaces=2 backlogged pkt=1000
measure 5 30
run 30
|}

let test_scenario_fig1c () =
  match Scenario.run_text fig1c_scenario with
  | Error e -> Alcotest.failf "scenario failed: %s" e
  | Ok report -> (
      match report.windows with
      | [ w ] ->
          close ~tol:0.05 "a" 1.0 (List.assoc "a" w.rates);
          close ~tol:0.05 "b" 1.0 (List.assoc "b" w.rates);
          close ~tol:0.01 "reference a" 1.0 w.reference.(0)
      | _ -> Alcotest.fail "expected one window")

let test_scenario_events_and_finite () =
  let text =
    {|
iface 1 constant 8Mb
flow big weight=1 ifaces=1 finite bytes=1MB pkt=1000
flow bg weight=1 ifaces=1 backlogged pkt=1000
at 10 weight bg 3
measure 12 20
run 20
|}
  in
  match Scenario.run_text text with
  | Error e -> Alcotest.failf "scenario failed: %s" e
  | Ok report ->
      (* The 1 MB transfer shares 8 Mb/s -> ~2 s. *)
      (match List.assoc_opt "big" report.completions with
      | Some t when t > 1.5 && t < 3.0 -> ()
      | Some t -> Alcotest.failf "completion %.2f out of range" t
      | None -> Alcotest.fail "no completion recorded");
      (match report.windows with
      | [ w ] ->
          (* After the weight change, bg owns the link alone anyway. *)
          close ~tol:0.5 "bg rate" 8.0 (List.assoc "bg" w.rates)
      | _ -> Alcotest.fail "expected one window")

let test_scenario_allow_event () =
  let text =
    {|
iface 1 constant 4Mb
iface 2 constant 4Mb
flow a weight=1 ifaces=1 backlogged pkt=1000
at 10 allow a 2
measure 2 9
measure 12 20
run 20
|}
  in
  match Scenario.run_text text with
  | Error e -> Alcotest.failf "scenario failed: %s" e
  | Ok report -> (
      match report.windows with
      | [ before; after ] ->
          close ~tol:0.2 "before" 4.0 (List.assoc "a" before.rates);
          close ~tol:0.4 "after" 8.0 (List.assoc "a" after.rates)
      | _ -> Alcotest.fail "expected two windows")

let test_scenario_parse_errors () =
  let check_err text =
    match Scenario.parse text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error _ -> ()
  in
  check_err "iface 1 constant fast\nrun 10";
  check_err "flow a ifaces=1 backlogged pkt=100";
  (* no iface / no run *)
  check_err "iface 1 constant 1Mb\nflow a ifaces=1 backlogged pkt=5";
  check_err "bogus directive\nrun 5";
  check_err "iface 1 steps 1Mb 5:bad\nrun 5"

(* The "pifo-" prefixed names once selected the PIFO programs beside
   bespoke WFQ and round robin; now [wfq]/[rr] are those programs and
   the old names are unknown like any other. *)
let test_scenario_unknown_scheduler () =
  let valid = "midrr, drr, wfq, rr, sprio, srpt, edf, lstf" in
  Alcotest.(check string) "registry" valid (String.concat ", " Scenario.sched_names);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " not registered") true
        (Option.is_none (Scenario.sched_of_name name));
      let text =
        Printf.sprintf "# removed name\nscheduler %s\niface 1 constant 1Mb\nrun 5" name
      in
      match Scenario.parse text with
      | Ok _ -> Alcotest.failf "scheduler %s parsed" name
      | Error e ->
          Alcotest.(check string) (name ^ " error")
            (Printf.sprintf "line 2: unknown scheduler %S (valid: %s)" name valid)
            e)
    (List.map (fun d -> "pifo-" ^ d) [ "wfq"; "rr" ] @ [ "wfq2" ])

let test_scenario_units () =
  let text =
    {|
iface 1 constant 500kb
flow a weight=1 ifaces=1 backlogged pkt=500
measure 5 20
run 20
|}
  in
  match Scenario.run_text text with
  | Error e -> Alcotest.failf "units scenario failed: %s" e
  | Ok report -> (
      match report.windows with
      | [ w ] -> close ~tol:0.05 "kb suffix" 0.5 (List.assoc "a" w.rates)
      | _ -> Alcotest.fail "expected one window")

(* --- Tracing a run ---------------------------------------------------------- *)

(* A [Recorder] on the simulator's event bus: the delivery log of a run. *)
module Recorder = Midrr_obs.Recorder

let completions recorder =
  List.filter_map
    (fun (e : Recorder.entry) ->
      match e.event with
      | Midrr_obs.Event.Complete { flow; iface; bytes } ->
          Some (e.time, iface, flow, bytes)
      | _ -> None)
    (Recorder.entries recorder)

let test_tracer_captures_events () =
  let recorder = Recorder.create () in
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sink:(Recorder.sink recorder) ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 8.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Finite { total_bytes = 10_000; pkt_size = 1000 });
  Netsim.run sim ~until:2.0;
  Alcotest.(check int) "no drops" 0 (Recorder.dropped recorder);
  let delivered = completions recorder in
  Alcotest.(check int) "ten completions" 10 (List.length delivered);
  Alcotest.(check bool) "flow 0 on iface 0" true
    (List.for_all (fun (_, iface, flow, _) -> iface = 0 && flow = 0) delivered);
  Alcotest.(check int) "flow bytes" 10_000
    (List.fold_left (fun acc (_, _, _, bytes) -> acc + bytes) 0 delivered);
  (* Events are time-ordered. *)
  let times =
    List.map (fun (e : Recorder.entry) -> e.time) (Recorder.entries recorder)
  in
  Alcotest.(check bool) "sorted" true (List.sort Float.compare times = times)

let test_tracer_interleaving () =
  let recorder = Recorder.create () in
  let sched = Midrr.packed (Midrr.create ()) in
  let sim = Netsim.create ~sink:(Recorder.sink recorder) ~sched () in
  Netsim.add_iface sim 0 (Link.constant (Types.mbps 8.0));
  Netsim.add_flow sim 0 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1500 });
  Netsim.add_flow sim 1 ~weight:1.0 ~allowed:[ 0 ]
    (Netsim.Backlogged { pkt_size = 1500 });
  Netsim.run sim ~until:5.0;
  (* With equal 1500 B quanta and packets, DRR alternates strictly once
     both flows are backlogged; flow 0 is added, and served, first. *)
  let pattern =
    List.tl (List.map (fun (_, _, flow, _) -> flow) (completions recorder))
  in
  let rec alternates = function
    | a :: (b :: _ as rest) -> a <> b && alternates rest
    | _ -> true
  in
  Alcotest.(check bool) "strict alternation" true (alternates pattern);
  if List.length pattern < 100 then Alcotest.fail "too few turns traced"

(* --- Allocation --------------------------------------------------------------- *)

(* Exact minor-heap word counts, so these gate regressions without any
   timing noise.  A served packet allocates its [Packet.t], the [Some]
   of [next_packet] and its event's timestamps; the event bus adds
   nothing: each producer refills one event record.  Each build is held
   to its own figures ([Build_profile]).  The dev build compiles with
   [-opaque] and inlines nothing across modules: an event with a
   prebuilt closure allocates its boxed timestamp and the clock it sets
   (4 words), and each transmission boxes the time [Types.tx_time]
   returns (2 words).  The release build inlines [Engine.schedule_in]
   into [Event_queue.push] and [Types.tx_time] into its callers, never
   boxes either float and reads 2 words per event.  Measured, dev then
   release: fig6 12.57 and 8.57 words per packet, handover 12.87 and
   8.79, the proxy 16.25 and 10.26 per chunk, mesh64 20.67 and 11.66. *)
let release = String.equal Build_profile.profile "release"

(* Fail when [per] words per [unit] exceed this build's bound. *)
let gate what ~unit ~dev ~rel per =
  let bound = if release then rel else dev in
  Printf.printf "%s: %.2f minor words per %s (bound %.2f, %s build)\n" what
    per unit bound Build_profile.profile;
  if per > bound then
    Alcotest.failf "%s: %.2f minor words per %s (bound %.2f, %s build)" what
      per unit bound Build_profile.profile

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

module Busmetrics = Midrr_obs.Busmetrics

(* `dune runtest` runs from the test directory, `dune exec` from the
   project root; accept either. *)
let fixture ~from_test ~from_root =
  if Sys.file_exists from_test then from_test else from_root

let load_scenario ~from_test ~from_root =
  let path = fixture ~from_test ~from_root in
  match Scenario.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok s -> s
  | Error e -> Alcotest.failf "scenario error: %s" e

let corpus_scenario file =
  load_scenario ~from_test:("../scenarios/" ^ file)
    ~from_root:("scenarios/" ^ file)

let serves bm =
  let reg = Busmetrics.registry bm in
  Midrr_obs.Metrics.counter_value reg (Midrr_obs.Metrics.counter reg "serves")

(* The bus emits one [Serve] per packet handed out, so a run with the
   fold attached counts the packets of the runs measured. *)
let served_packets scn =
  let bm = Busmetrics.create () in
  ignore (Scenario.run ~metrics:bm scn);
  Float.of_int (serves bm)

let test_alloc_fig6_per_packet () =
  let scn = corpus_scenario "fig6.scn" in
  let pkts = served_packets scn in
  minor_words (fun () -> ignore (Scenario.run scn)) /. pkts
  |> gate "fig6" ~unit:"served packet" ~dev:13.0 ~rel:8.63

(* `midrr run --metrics` on the handover scenario: the fold rides the bus
   for free, so the run allocates what the sinkless run does. *)
let test_alloc_handover_telemetry () =
  let scn = corpus_scenario "handover.scn" in
  let pkts = served_packets scn in
  let sinkless = minor_words (fun () -> ignore (Scenario.run scn)) /. pkts in
  let folded =
    minor_words (fun () ->
        ignore (Scenario.run ~metrics:(Busmetrics.create ()) scn))
    /. pkts
  in
  gate "handover --metrics" ~unit:"served packet" ~dev:13.27 ~rel:8.88 folded;
  if folded -. sinkless > 0.1 then
    Alcotest.failf
      "handover --metrics: %.2f minor words per served packet, %.2f over the \
       sinkless run (bound 0.1)"
      folded (folded -. sinkless)

(* A miDRR decision loop with the fold attached through a stamped sink:
   prefilled queues, so every decision is a pure pop.  The clock returns
   a pre-boxed time, as [Engine.now] does, so neither the stamp nor the
   event allocates. *)
let test_alloc_decision_with_fold () =
  let n_flows = 64 and n_ifaces = 4 and decisions = 20_000 in
  let t = Drr_engine.create Drr_engine.Service_flags in
  let bm = Busmetrics.create () in
  let now = ref 1.0 in
  Drr_engine.set_sink t
    (Some (Midrr_obs.Sink.stamp ~clock:(fun () -> !now) (Busmetrics.sink bm)));
  for j = 0 to n_ifaces - 1 do
    Drr_engine.add_iface t j
  done;
  let all_ifaces = List.init n_ifaces Fun.id in
  for f = 0 to n_flows - 1 do
    Drr_engine.add_flow t ~flow:f ~weight:1.0 ~allowed:all_ifaces
  done;
  let warmup = decisions / 10 in
  for f = 0 to n_flows - 1 do
    for _ = 1 to ((decisions + warmup) / n_flows) + 64 do
      ignore
        (Drr_engine.enqueue t (Packet.create ~flow:f ~size:1000 ~arrival:0.0))
    done
  done;
  for d = 0 to warmup - 1 do
    ignore (Drr_engine.next_packet_noalloc t (d mod n_ifaces))
  done;
  now := 2.0;
  let words =
    minor_words (fun () ->
        for d = 0 to decisions - 1 do
          ignore (Drr_engine.next_packet_noalloc t (d mod n_ifaces))
        done)
  in
  Alcotest.(check int) "fold saw every decision" (warmup + decisions) (serves bm);
  let per_decision = words /. Float.of_int decisions in
  Printf.printf "decision with fold: %.4f minor words/decision\n" per_decision;
  if per_decision >= 0.01 then
    Alcotest.failf "decision with fold: %.4f minor words/decision (bound 0.01)"
      per_decision

(* The HTTP proxy on Fig. 10 as the benchmark builds it (64 kB chunks,
   four pipelined requests, a 30 ms round trip, three endless transfers)
   run sinkless for 300 s, set-up included: 16.25 words per chunk handed
   out in dev, 10.26 in release.  Boxing the pipeline gauge's float per
   request, as an unguarded gauge store does, read 21.25 when a packet
   still carried a sequence number (17.26 without the box). *)
let test_alloc_fig10_proxy () =
  let module Proxy = Midrr_http.Proxy in
  let run ?metrics () =
    let sched = Midrr.packed (Midrr.create ~base_quantum:65536 ()) in
    let p =
      Proxy.create ~chunk_size:65536 ~pipeline_depth:4 ~rtt:0.03 ?metrics
        ~sched ()
    in
    let alternate a b =
      Link.steps ~initial:(Types.mbps a)
        [ (11.0, Types.mbps b); (18.0, Types.mbps a); (29.0, Types.mbps b) ]
    in
    Proxy.add_iface p 1 (alternate 12.0 4.0);
    Proxy.add_iface p 2 (alternate 5.0 10.0);
    List.iter
      (fun (f, allowed) -> Proxy.add_transfer p f ~weight:1.0 ~allowed ())
      [ (0, [ 1 ]); (1, [ 1; 2 ]); (2, [ 2 ]) ];
    Proxy.run p ~until:300.0
  in
  let bm = Busmetrics.create () in
  run ~metrics:bm ();
  minor_words (fun () -> run ()) /. Float.of_int (serves bm)
  |> gate "fig10 proxy" ~unit:"served chunk" ~dev:16.5 ~rel:10.36

(* The WFQ program on the benchmark's 64-flow overload mesh
   ([golden/mesh64.scn] with 64 kB queues, as [test_golden] runs it):
   225,868 served packets.  Neither the PIFO substrate nor WFQ
   allocates per packet: ranks, v_j and finish tags travel and stay in
   [Pifo.cell]s.  20.67 words per served packet measured in dev, 11.66
   in release, where the Poisson draw is inlined into the source; 23.62
   and 14.61 while each window solved a max-min reference over the
   Poisson flows, which the judged window leaves out.  A
   boxed finish tag and a boxed rank per service read 26.04 in dev, and
   19.03 in release with the transmission time's box; hashed flow,
   interface and tag tables, a per-packet sequence number and a Poisson
   gap recomputed per arrival read 29.81; a 4-word entry record per PIFO
   push, generic-hash lookups, a closure per drain and an [int64] box
   per random draw read 82.06. *)
let test_alloc_mesh64_wfq () =
  let scn =
    load_scenario ~from_test:"golden/mesh64.scn"
      ~from_root:"test/golden/mesh64.scn"
  in
  let sched () = Prog_wfq.packed (Prog_wfq.create ~queue_capacity:65536 ()) in
  let bm = Busmetrics.create () in
  ignore (Scenario.run ~metrics:bm ~seed:1 ~sched scn);
  minor_words (fun () -> ignore (Scenario.run ~seed:1 ~sched scn))
  /. Float.of_int (serves bm)
  |> gate "mesh64 wfq" ~unit:"served packet" ~dev:21.17 ~rel:11.76

let test_alloc_engine_per_event () =
  (* Pre-sized: a doubling of the heap is amortized, not per event. *)
  let e = Engine.create ~capacity:128 () in
  let event () = () in
  for _ = 1 to 64 do
    Engine.schedule_in e ~after:1.0 event
  done;
  let n = 100_000 in
  let words =
    minor_words (fun () ->
        for _ = 1 to n do
          Engine.schedule_in e ~after:1.0 event;
          ignore (Engine.step e)
        done)
  in
  words /. Float.of_int n |> gate "engine" ~unit:"event" ~dev:4.0 ~rel:2.1

(* --- Malformed numbers ----------------------------------------------------- *)

(* A mutation fuzzer over the scenario corpus and the mesh: one numeric
   token of a seed file, with its unit, becomes an extreme value.
   [Scenario.parse] must answer [Ok] or an error located at a line, and
   never raise; a mutant that still parses once its measure lines are
   dropped and its horizon cut to 2 s must also run without raising. *)
let fuzz_values = [| "nan"; "inf"; "-inf"; "-1"; "0"; "1e-300"; "1e300"; "1e9" |]

let fuzz_seeds =
  lazy
    (let dir = fixture ~from_test:"../scenarios" ~from_root:"scenarios" in
     let corpus =
       Sys.readdir dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".scn")
       |> List.sort String.compare
       |> List.map (Filename.concat dir)
     in
     List.map
       (fun path -> (path, In_channel.with_open_text path In_channel.input_all))
       (corpus
       @ [ fixture ~from_test:"golden/mesh64.scn" ~from_root:"test/golden/mesh64.scn" ])
     |> Array.of_list)

(* The numeric tokens of a text's directive lines, as (start, length):
   its words, split at '=', ',' and ':', that read as a number once a
   unit suffix is dropped. *)
let numeric_tokens text =
  let units = [ "kb"; "Mb"; "Gb"; "kB"; "MB"; "GB" ] in
  let numeric tok =
    let body =
      match List.find_opt (fun suffix -> String.ends_with ~suffix tok) units with
      | Some u -> String.sub tok 0 (String.length tok - String.length u)
      | None -> tok
    in
    Option.is_some (float_of_string_opt body)
  in
  let tokens = ref [] and start = ref 0 and comment = ref false in
  String.iteri
    (fun i c ->
      match c with
      | ' ' | '\t' | '\n' | '=' | ',' | ':' ->
          if (not !comment) && i > !start && numeric (String.sub text !start (i - !start))
          then tokens := (!start, i - !start) :: !tokens;
          if c = '\n' then comment := false;
          start := i + 1
      | '#' when i = !start -> comment := true
      | _ -> ())
    (text ^ "\n");
  Array.of_list (List.rev !tokens)

let fuzz_case_gen st =
  let seeds = Lazy.force fuzz_seeds in
  let path, text = seeds.(QCheck.Gen.int_bound (Array.length seeds - 1) st) in
  let tokens = numeric_tokens text in
  let start, len = tokens.(QCheck.Gen.int_bound (Array.length tokens - 1) st) in
  let value = QCheck.Gen.oneofa fuzz_values st in
  ( path,
    String.sub text 0 start ^ value
    ^ String.sub text (start + len) (String.length text - start - len) )

let located e =
  match String.index_opt e ':' with
  | Some i when String.starts_with ~prefix:"line " e ->
      Option.is_some (int_of_string_opt (String.sub e 5 (i - 5)))
  | _ -> false

let shortened text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "measure" :: _ -> None
         | "run" :: _ -> Some "run 2"
         | _ -> Some line)
  |> String.concat "\n"

let test_scenario_fuzz =
  QCheck.Test.make ~count:500 ~name:"mutated corpus fails located or runs"
    (QCheck.make ~print:(fun (path, text) -> path ^ ":\n" ^ text) fuzz_case_gen)
    (fun (_, text) ->
      (match Scenario.parse text with
      | Ok _ -> ()
      | Error e when located e -> ()
      | Error e -> QCheck.Test.fail_reportf "unlocated error %S" e);
      match Scenario.parse (shortened text) with
      | Ok scn ->
          ignore (Scenario.run scn);
          true
      | Error _ -> true)

let () =
  let rand =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> Random.State.make [| int_of_string s |]
    | None -> Random.State.make [| 20130109 |]
  in
  let to_alcotest t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "sim"
    [
      ( "event-queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_eq_interleaved;
          Alcotest.test_case "nan rejected" `Quick test_eq_nan_rejected;
          Alcotest.test_case "peek/length" `Quick test_eq_peek;
        ] );
      ( "engine",
        [
          Alcotest.test_case "executes in order" `Quick
            test_engine_executes_in_order;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "events schedule events" `Quick
            test_engine_events_schedule_events;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          to_alcotest test_engine_model;
        ] );
      ( "link",
        [
          Alcotest.test_case "constant" `Quick test_link_constant;
          Alcotest.test_case "steps" `Quick test_link_steps;
          Alcotest.test_case "steps validation" `Quick
            test_link_steps_validation;
          Alcotest.test_case "average" `Quick test_link_average;
          Alcotest.test_case "utilization" `Quick test_iface_utilization;
          Alcotest.test_case "periodic" `Quick test_link_periodic;
          to_alcotest test_link_model;
          Alcotest.test_case "stepped lookup allocates nothing" `Quick
            test_link_lookup_no_alloc;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "gauss-markov stats" `Quick
            test_mobility_gauss_markov_stats;
          Alcotest.test_case "gauss-markov deterministic" `Quick
            test_mobility_gauss_markov_deterministic;
          Alcotest.test_case "coverage duty cycle" `Quick
            test_mobility_coverage_duty;
          Alcotest.test_case "drives netsim" `Quick test_mobility_drives_netsim;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "fig1c" `Quick test_scenario_fig1c;
          Alcotest.test_case "events and finite" `Quick
            test_scenario_events_and_finite;
          Alcotest.test_case "allow event" `Quick test_scenario_allow_event;
          Alcotest.test_case "parse errors" `Quick test_scenario_parse_errors;
          Alcotest.test_case "unknown scheduler" `Quick
            test_scenario_unknown_scheduler;
          Alcotest.test_case "rate units" `Quick test_scenario_units;
          to_alcotest test_scenario_fuzz;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "captures events" `Quick
            test_tracer_captures_events;
          Alcotest.test_case "interleaving" `Quick test_tracer_interleaving;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "cbr rate" `Quick test_netsim_cbr_rate;
          Alcotest.test_case "poisson rate" `Slow test_netsim_poisson_rate;
          Alcotest.test_case "finite completion" `Quick
            test_netsim_finite_completion;
          Alcotest.test_case "on-off duty cycle" `Slow
            test_netsim_on_off_duty_cycle;
          Alcotest.test_case "link down recovers" `Quick
            test_netsim_link_down_recovers;
          Alcotest.test_case "flow arrives later" `Quick
            test_netsim_flow_arrives_later;
          Alcotest.test_case "remove flow" `Quick test_netsim_remove_flow;
          Alcotest.test_case "share and instance" `Quick
            test_netsim_share_and_instance;
          Alcotest.test_case "completion hook" `Quick
            test_netsim_completion_hook;
          Alcotest.test_case "negative ids" `Quick test_netsim_negative_ids;
          Alcotest.test_case "stopped finite never completes" `Quick
            test_netsim_stopped_finite;
          Alcotest.test_case "cells follow preferences" `Quick
            test_netsim_cells_follow_preferences;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "fig6 words per packet" `Quick
            test_alloc_fig6_per_packet;
          Alcotest.test_case "engine words per event" `Quick
            test_alloc_engine_per_event;
          Alcotest.test_case "handover telemetry words per packet" `Quick
            test_alloc_handover_telemetry;
          Alcotest.test_case "decision with fold" `Quick
            test_alloc_decision_with_fold;
          Alcotest.test_case "fig10 proxy words per chunk" `Quick
            test_alloc_fig10_proxy;
          Alcotest.test_case "mesh64 wfq words per packet" `Quick
            test_alloc_mesh64_wfq;
        ] );
    ]
