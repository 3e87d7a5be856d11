(* Tests for the core data structures, baselines and the fluid reference. *)

open Midrr_core

let close ?(tol = 1e-9) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.6g, got %.6g" what expected got

(* --- Types --------------------------------------------------------------- *)

let test_units () =
  close "mbps" 2e6 (Types.mbps 2.0);
  close "kbps" 64e3 (Types.kbps 64.0);
  close "to_mbps" 3.0 (Types.to_mbps 3e6)

let test_tx_time () =
  close "1500B at 1Mb/s" 0.012 (Types.tx_time ~bytes:1500 ~rate:1e6);
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Types.tx_time: non-positive rate") (fun () ->
      ignore (Types.tx_time ~bytes:1 ~rate:0.0))

(* --- Packet --------------------------------------------------------------- *)

let test_packet_create () =
  let p = Packet.create ~flow:3 ~size:100 ~arrival:1.5 in
  Alcotest.(check int) "flow" 3 p.flow;
  Alcotest.(check int) "size" 100 p.size;
  close "arrival" 1.5 p.arrival;
  Alcotest.check_raises "bad size"
    (Invalid_argument "Packet.create: size <= 0") (fun () ->
      ignore (Packet.create ~flow:0 ~size:0 ~arrival:0.0))

(* --- Ring ----------------------------------------------------------------- *)

let test_ring_push_iterate () =
  let r = Ring.create () in
  Alcotest.(check bool) "empty" true (Ring.is_empty r);
  let _a = Ring.push_back r "a" in
  let _b = Ring.push_back r "b" in
  let _c = Ring.push_back r "c" in
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create () in
  let a = Ring.push_back r "a" in
  let _ = Ring.push_back r "b" in
  let b = Ring.next r a in
  Alcotest.(check string) "next of a" "b" (Ring.value b);
  Alcotest.(check string) "wraps to a" "a" (Ring.value (Ring.next r b))

let test_ring_remove () =
  let r = Ring.create () in
  let a = Ring.push_back r "a" in
  let b = Ring.push_back r "b" in
  let _c = Ring.push_back r "c" in
  Ring.remove r b;
  Alcotest.(check (list string)) "b gone" [ "a"; "c" ] (Ring.to_list r);
  Alcotest.(check bool) "b unlinked" false (Ring.is_member b);
  Alcotest.(check string) "a skips to c" "c" (Ring.value (Ring.next r a));
  Alcotest.check_raises "double remove"
    (Invalid_argument "Ring.remove: node already removed") (fun () ->
      Ring.remove r b)

let test_ring_remove_head () =
  let r = Ring.create () in
  let a = Ring.push_back r 1 in
  let _ = Ring.push_back r 2 in
  Ring.remove r a;
  Alcotest.(check (list int)) "head moved" [ 2 ] (Ring.to_list r);
  match Ring.head r with
  | Some n -> Alcotest.(check int) "new head" 2 (Ring.value n)
  | None -> Alcotest.fail "ring should not be empty"

let test_ring_insert_before () =
  let r = Ring.create () in
  let _a = Ring.push_back r "a" in
  let b = Ring.push_back r "b" in
  let _x = Ring.insert_before r b "x" in
  Alcotest.(check (list string)) "inserted" [ "a"; "x"; "b" ] (Ring.to_list r)

let test_ring_empties_and_refills () =
  let r = Ring.create () in
  let a = Ring.push_back r 1 in
  Ring.remove r a;
  Alcotest.(check bool) "empty again" true (Ring.is_empty r);
  let b = Ring.push_back r 2 in
  Alcotest.(check int) "single" 2 (Ring.value (Ring.next r b))

(* --- Pktqueue -------------------------------------------------------------- *)

let pkt ?(flow = 0) size = Packet.create ~flow ~size ~arrival:0.0

let test_pktqueue_fifo () =
  let q = Pktqueue.create () in
  let p1 = pkt 100 and p2 = pkt 200 in
  Alcotest.(check bool) "push 1" true (Pktqueue.push q p1);
  Alcotest.(check bool) "push 2" true (Pktqueue.push q p2);
  Alcotest.(check int) "bytes" 300 (Pktqueue.backlog_bytes q);
  Alcotest.(check int) "head size" 100 (Pktqueue.head_size q);
  (match Pktqueue.pop q with
  | Some p -> Alcotest.(check bool) "fifo order" true (p == p1)
  | None -> Alcotest.fail "queue empty");
  Alcotest.(check int) "bytes after pop" 200 (Pktqueue.backlog_bytes q)

let test_pktqueue_capacity () =
  let q = Pktqueue.create ~capacity_bytes:250 () in
  Alcotest.(check bool) "first fits" true (Pktqueue.push q (pkt 200));
  Alcotest.(check bool) "second dropped" false (Pktqueue.push q (pkt 100));
  Alcotest.(check int) "drop counted" 1 (Pktqueue.drops q);
  Alcotest.(check bool) "small fits" true (Pktqueue.push q (pkt 50))

(* Push [n] fresh packets, each watched through [w] from slot [first]
   on.  Kept out of line so no packet stays in the caller's frame. *)
let[@inline never] push_watched q w ~first n =
  for i = first to first + n - 1 do
    let p = pkt ~flow:i 100 in
    Weak.set w i (Some p);
    ignore (Pktqueue.push q p)
  done

(* A served packet must not outlive its service in the queue's buffer:
   once the queue drains, an idle flow pins no dead packet. *)
let test_pktqueue_drained_releases () =
  let q = Pktqueue.create () in
  let w = Weak.create 6 in
  (* three in, two out, three more: the window wraps the 4-slot buffer *)
  push_watched q w ~first:0 3;
  for _ = 1 to 2 do
    ignore (Pktqueue.pop_exn q)
  done;
  push_watched q w ~first:3 3;
  let drain q =
    while Pktqueue.length q > 0 do ignore (Pktqueue.pop_exn q) done
  in
  let released w ~first n =
    Gc.full_major ();
    for i = first to first + n - 1 do
      Alcotest.(check bool) (Printf.sprintf "packet %d released" i) false
        (Weak.check w i)
    done
  in
  drain q;
  released w ~first:0 6;
  let p = pkt 50 in
  Alcotest.(check bool) "reusable" true (Pktqueue.push q p);
  Alcotest.(check bool) "fifo after a drain" true (Pktqueue.pop_exn q == p);
  (* a burst to 1024 slots, then cycles between 0 and 1 packets *)
  let q = Pktqueue.create () and w = Weak.create 1032 in
  push_watched q w ~first:0 1024;
  drain q;
  for i = 1024 to 1031 do
    push_watched q w ~first:i 1;
    ignore (Pktqueue.pop_exn q)
  done;
  released w ~first:0 1032;
  (* one packet waits while four pass: the head wraps, never drained *)
  let q = Pktqueue.create () and w = Weak.create 5 in
  push_watched q w ~first:0 1;
  for i = 1 to 4 do
    push_watched q w ~first:i 1;
    ignore (Pktqueue.pop_exn q)
  done;
  released w ~first:0 4;
  Alcotest.(check int) "one queued" 1 (Pktqueue.length q);
  Alcotest.(check bool) "queued packet kept" true (Weak.check w 4)

(* --- WFQ ---------------------------------------------------------------------- *)

let test_wfq_single_iface_weighted () =
  let w = Prog_wfq.create () in
  Prog_wfq.add_iface w 0;
  Prog_wfq.add_flow w ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  Prog_wfq.add_flow w ~flow:2 ~weight:3.0 ~allowed:[ 0 ];
  for _ = 1 to 400 do
    ignore (Prog_wfq.enqueue w (pkt ~flow:1 1000));
    ignore (Prog_wfq.enqueue w (pkt ~flow:2 1000))
  done;
  for _ = 1 to 400 do
    ignore (Prog_wfq.next_packet w 0)
  done;
  let s1 = Prog_wfq.served_bytes w 1 and s2 = Prog_wfq.served_bytes w 2 in
  close ~tol:0.05 "3:1 split" 3.0 (Float.of_int s2 /. Float.of_int s1)

let test_wfq_respects_preferences () =
  let w = Prog_wfq.create () in
  Prog_wfq.add_iface w 0;
  Prog_wfq.add_iface w 1;
  Prog_wfq.add_flow w ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  ignore (Prog_wfq.enqueue w (pkt ~flow:1 100));
  Alcotest.(check bool) "banned iface" true (Prog_wfq.next_packet w 1 = None);
  Alcotest.(check bool) "allowed iface" true (Prog_wfq.next_packet w 0 <> None)

let test_wfq_idle_flow_no_credit () =
  (* A flow idle for a while must not burst ahead when it returns: its
     start tag snaps to the interface's virtual time. *)
  let w = Prog_wfq.create () in
  Prog_wfq.add_iface w 0;
  Prog_wfq.add_flow w ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  Prog_wfq.add_flow w ~flow:2 ~weight:1.0 ~allowed:[ 0 ];
  for _ = 1 to 100 do
    ignore (Prog_wfq.enqueue w (pkt ~flow:1 1000))
  done;
  for _ = 1 to 50 do
    ignore (Prog_wfq.next_packet w 0)
  done;
  (* Flow 2 arrives late; both flows should now roughly alternate. *)
  for _ = 1 to 100 do
    ignore (Prog_wfq.enqueue w (pkt ~flow:2 1000))
  done;
  let before = Prog_wfq.served_bytes w 1 in
  for _ = 1 to 40 do
    ignore (Prog_wfq.next_packet w 0)
  done;
  let f1 = Prog_wfq.served_bytes w 1 - before
  and f2 = Prog_wfq.served_bytes w 2 in
  close ~tol:2000.0 "alternation" (Float.of_int f1) (Float.of_int f2)

(* --- Round robin ----------------------------------------------------------------- *)

let test_rrobin_packet_fairness () =
  let r = Prog_rr.create () in
  Prog_rr.add_iface r 0;
  Prog_rr.add_flow r ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  Prog_rr.add_flow r ~flow:2 ~weight:1.0 ~allowed:[ 0 ];
  for _ = 1 to 100 do
    ignore (Prog_rr.enqueue r (pkt ~flow:1 1500));
    ignore (Prog_rr.enqueue r (pkt ~flow:2 100))
  done;
  for _ = 1 to 100 do
    ignore (Prog_rr.next_packet r 0)
  done;
  (* One packet per turn: equal packet counts, so 15:1 in bytes — the
     large-packet bias DRR fixes. *)
  Alcotest.(check int) "flow 1 packets" 50 (Prog_rr.served_bytes r 1 / 1500);
  Alcotest.(check int) "flow 2 packets" 50 (Prog_rr.served_bytes r 2 / 100)

let test_rrobin_skips_empty_and_banned () =
  let r = Prog_rr.create () in
  Prog_rr.add_iface r 0;
  Prog_rr.add_flow r ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  Prog_rr.add_flow r ~flow:2 ~weight:1.0 ~allowed:[] (* nowhere *);
  ignore (Prog_rr.enqueue r (pkt ~flow:2 100));
  Alcotest.(check bool) "nothing eligible" true (Prog_rr.next_packet r 0 = None);
  ignore (Prog_rr.enqueue r (pkt ~flow:1 100));
  Alcotest.(check bool) "flow 1 served" true (Prog_rr.next_packet r 0 <> None)

(* --- PGPS fluid --------------------------------------------------------------------- *)

let test_pgps_single_flow_drain () =
  let spec : Pgps_fluid.spec =
    {
      weights = [| 1.0 |];
      capacities = [| 1e6 |];
      allowed = [| [| true |] |];
      arrivals = [| [ (125000, 0.0) ] |];
    }
  in
  let r = Pgps_fluid.run spec in
  close ~tol:1e-9 "drain time" 1.0 r.finish_times.(0).(0)

let test_pgps_two_flows_share () =
  let spec : Pgps_fluid.spec =
    {
      weights = [| 1.0; 1.0 |];
      capacities = [| 1e6 |];
      allowed = [| [| true |]; [| true |] |];
      arrivals = [| [ (62500, 0.0) ]; [ (125000, 0.0) ] |];
    }
  in
  let r = Pgps_fluid.run spec in
  (* Both at 0.5 Mb/s until the short one finishes at t=1; the long one
     then speeds up: remaining 62.5kB at 1 Mb/s -> finishes at 1.5. *)
  close ~tol:1e-6 "short flow" 1.0 r.finish_times.(0).(0);
  close ~tol:1e-6 "long flow" 1.5 r.finish_times.(1).(0)

let test_pgps_weighted_share () =
  let spec : Pgps_fluid.spec =
    {
      weights = [| 3.0; 1.0 |];
      capacities = [| 1e6 |];
      allowed = [| [| true |]; [| true |] |];
      arrivals = [| [ (125000, 0.0) ]; [ (125000, 0.0) ] |];
    }
  in
  let r = Pgps_fluid.run spec in
  (* Weight-3 flow drains at 0.75 Mb/s -> 4/3 s. *)
  close ~tol:1e-6 "heavy flow" (4.0 /. 3.0) r.finish_times.(0).(0)

let test_pgps_later_arrival () =
  let spec : Pgps_fluid.spec =
    {
      weights = [| 1.0; 1.0 |];
      capacities = [| 1e6 |];
      allowed = [| [| true |]; [| true |] |];
      arrivals = [| [ (125000, 0.0) ]; [ (125000, 0.5) ] |];
    }
  in
  let r = Pgps_fluid.run spec in
  (* Flow 0 alone for 0.5 s (62.5 kB left), then shares: finishes at
     0.5 + 1.0 = 1.5... specifically remaining 62.5 kB at 0.5 Mb/s. *)
  close ~tol:1e-6 "flow 0" 1.5 r.finish_times.(0).(0)

let test_pgps_starved_flow () =
  let spec : Pgps_fluid.spec =
    {
      weights = [| 1.0 |];
      capacities = [| 0.0 |];
      allowed = [| [| true |] |];
      arrivals = [| [ (100, 0.0) ] |];
    }
  in
  let r = Pgps_fluid.run ~horizon:10.0 spec in
  Alcotest.(check bool)
    "never finishes" true
    (r.finish_times.(0).(0) = Float.infinity)

let test_pgps_finish_order () =
  let spec : Pgps_fluid.spec =
    {
      weights = [| 1.0; 1.0 |];
      capacities = [| 1e6 |];
      allowed = [| [| true |]; [| true |] |];
      arrivals = [| [ (62500, 0.0) ]; [ (125000, 0.0) ] |];
    }
  in
  let r = Pgps_fluid.run spec in
  (* equal weights: the half-size packet finishes first *)
  Alcotest.(check bool)
    "flow 0 first" true
    (r.finish_times.(0).(0) < r.finish_times.(1).(0))

(* --- Oracle ------------------------------------------------------------------------- *)

let test_oracle_single_iface_weighted () =
  let o = Oracle.create ~capacity:(fun _ -> 8e6) () in
  Oracle.add_iface o 0;
  Oracle.add_flow o ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  Oracle.add_flow o ~flow:2 ~weight:3.0 ~allowed:[ 0 ];
  for _ = 1 to 400 do
    ignore (Oracle.enqueue o (pkt ~flow:1 1000));
    ignore (Oracle.enqueue o (pkt ~flow:2 1000))
  done;
  for _ = 1 to 400 do
    ignore (Oracle.next_packet o 0)
  done;
  let s1 = Oracle.served_bytes o 1 and s2 = Oracle.served_bytes o 2 in
  close ~tol:0.15 "3:1 split"
    3.0
    (Float.of_int s2 /. Float.of_int s1)

let test_oracle_targets_installed () =
  let o = Oracle.create ~capacity:(fun _ -> 1e6) () in
  Oracle.add_iface o 0;
  Oracle.add_iface o 1;
  Oracle.add_flow o ~flow:0 ~weight:1.0 ~allowed:[ 0; 1 ];
  Oracle.add_flow o ~flow:1 ~weight:1.0 ~allowed:[ 1 ];
  ignore (Oracle.enqueue o (pkt ~flow:0 1000));
  ignore (Oracle.enqueue o (pkt ~flow:1 1000));
  (* Fig. 1(c): flow 0's target should sit entirely on interface 0 and
     flow 1's on interface 1. *)
  close ~tol:1e4 "flow0 on if0" 1e6
    (Oracle.target_share o ~flow:0 ~iface:0);
  close ~tol:1e4 "flow1 on if1" 1e6
    (Oracle.target_share o ~flow:1 ~iface:1);
  close ~tol:1e4 "flow1 not on if0" 0.0
    (Oracle.target_share o ~flow:1 ~iface:0)

let test_oracle_recomputes_on_change () =
  let o = Oracle.create ~capacity:(fun _ -> 1e6) () in
  Oracle.add_iface o 0;
  Oracle.add_flow o ~flow:0 ~weight:1.0 ~allowed:[ 0 ];
  ignore (Oracle.enqueue o (pkt ~flow:0 500));
  ignore (Oracle.next_packet o 0);
  let before = Oracle.recomputations o in
  Oracle.add_flow o ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  ignore (Oracle.enqueue o (pkt ~flow:0 500));
  ignore (Oracle.enqueue o (pkt ~flow:1 500));
  ignore (Oracle.next_packet o 0);
  Alcotest.(check bool) "recomputed after change" true
    (Oracle.recomputations o > before)

let test_oracle_respects_preferences () =
  let o = Oracle.create ~capacity:(fun _ -> 1e6) () in
  Oracle.add_iface o 0;
  Oracle.add_iface o 1;
  Oracle.add_flow o ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  ignore (Oracle.enqueue o (pkt ~flow:1 100));
  Alcotest.(check bool) "banned" true (Oracle.next_packet o 1 = None);
  Alcotest.(check bool) "allowed" true (Oracle.next_packet o 0 <> None)

(* --- Engine API behaviors -------------------------------------------------------------- *)

let test_engine_registration_errors () =
  let m = Midrr.create () in
  Drr_engine.add_iface m 0;
  Alcotest.check_raises "duplicate iface"
    (Invalid_argument "Drr_engine.add_iface: duplicate") (fun () ->
      Drr_engine.add_iface m 0);
  Drr_engine.add_flow m ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  Alcotest.check_raises "duplicate flow"
    (Invalid_argument "Drr_engine.add_flow: duplicate") (fun () ->
      Drr_engine.add_flow m ~flow:1 ~weight:1.0 ~allowed:[ 0 ]);
  Alcotest.(check bool)
    "unknown flow enqueue" false
    (Drr_engine.enqueue m (pkt ~flow:99 100))

let test_engine_set_allowed_runtime () =
  let m = Midrr.create () in
  Drr_engine.add_iface m 0;
  Drr_engine.add_iface m 1;
  Drr_engine.add_flow m ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  ignore (Drr_engine.enqueue m (pkt ~flow:1 100));
  Alcotest.(check bool) "iface 1 empty" true (Drr_engine.next_packet m 1 = None);
  Drr_engine.set_allowed m 1 [ 1 ];
  ignore (Drr_engine.enqueue m (pkt ~flow:1 100));
  Alcotest.(check bool) "iface 0 empty now" true
    (Drr_engine.next_packet m 0 = None);
  Alcotest.(check bool) "iface 1 serves" true
    (Drr_engine.next_packet m 1 <> None)

let test_engine_flow_added_before_iface () =
  let m = Midrr.create () in
  Drr_engine.add_flow m ~flow:1 ~weight:1.0 ~allowed:[ 7 ];
  ignore (Drr_engine.enqueue m (pkt ~flow:1 100));
  Drr_engine.add_iface m 7;
  Alcotest.(check bool)
    "late interface picks up queued flow" true
    (Drr_engine.next_packet m 7 <> None)

let test_engine_remove_iface_keeps_packets () =
  let m = Midrr.create () in
  Drr_engine.add_iface m 0;
  Drr_engine.add_iface m 1;
  Drr_engine.add_flow m ~flow:1 ~weight:1.0 ~allowed:[ 0; 1 ];
  ignore (Drr_engine.enqueue m (pkt ~flow:1 100));
  Drr_engine.remove_iface m 0;
  Alcotest.(check int) "backlog kept" 100 (Drr_engine.backlog_bytes m 1);
  Alcotest.(check bool) "other iface serves" true
    (Drr_engine.next_packet m 1 <> None)

let test_engine_multi_packet_turn () =
  (* A flow whose packets are smaller than its quantum sends several per
     turn: successive next_packet calls return the same flow until the
     deficit runs out. *)
  let m = Midrr.create ~base_quantum:1000 () in
  Drr_engine.add_iface m 0;
  Drr_engine.add_flow m ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  Drr_engine.add_flow m ~flow:2 ~weight:1.0 ~allowed:[ 0 ];
  for _ = 1 to 10 do
    ignore (Drr_engine.enqueue m (pkt ~flow:1 250));
    ignore (Drr_engine.enqueue m (pkt ~flow:2 250))
  done;
  let first_eight =
    List.init 8 (fun _ ->
        match Drr_engine.next_packet m 0 with
        | Some p -> p.flow
        | None -> -1)
  in
  (* 1000-byte quanta over 250-byte packets: turns of four. *)
  Alcotest.(check (list int)) "four-packet turns" [ 1; 1; 1; 1; 2; 2; 2; 2 ]
    first_eight

let test_engine_per_send_flags () =
  (* Per_send refreshes flags on every transmission: after one flow sends
     two packets in a turn on interface 0, its flag at interface 1 is
     set (and stays set after a single consideration would have cleared a
     per-turn flag only once). *)
  let m =
    Midrr.create ~base_quantum:2000 ~flag_policy:Drr_engine.Per_send ()
  in
  Drr_engine.add_iface m 0;
  Drr_engine.add_iface m 1;
  Drr_engine.add_flow m ~flow:1 ~weight:1.0 ~allowed:[ 0; 1 ];
  for _ = 1 to 4 do
    ignore (Drr_engine.enqueue m (pkt ~flow:1 900))
  done;
  ignore (Drr_engine.next_packet m 0);
  ignore (Drr_engine.next_packet m 0);
  Alcotest.(check bool) "flag raised by sends" true
    (Drr_engine.service_flag m ~flow:1 ~iface:1)

let test_engine_counter_saturates () =
  let m = Midrr.create ~counter_max:3 () in
  Drr_engine.add_iface m 0;
  Drr_engine.add_iface m 1;
  Drr_engine.add_flow m ~flow:1 ~weight:1.0 ~allowed:[ 0; 1 ];
  Drr_engine.add_flow m ~flow:2 ~weight:1.0 ~allowed:[ 0 ];
  for _ = 1 to 40 do
    ignore (Drr_engine.enqueue m (pkt ~flow:1 1500));
    ignore (Drr_engine.enqueue m (pkt ~flow:2 1500))
  done;
  (* Serve flow 1 repeatedly on interface 0: its counter at interface 1
     saturates at counter_max. *)
  for _ = 1 to 20 do
    ignore (Drr_engine.next_packet m 0)
  done;
  let c = Drr_engine.service_counter m ~flow:1 ~iface:1 in
  if c < 1 || c > 3 then Alcotest.failf "counter %d outside [1, 3]" c

let test_engine_considered_grows () =
  let m = Midrr.create () in
  Drr_engine.add_iface m 0;
  Drr_engine.add_flow m ~flow:1 ~weight:1.0 ~allowed:[ 0 ];
  ignore (Drr_engine.enqueue m (pkt ~flow:1 100));
  let before = Drr_engine.considered m in
  ignore (Drr_engine.next_packet m 0);
  Alcotest.(check bool) "work accounted" true (Drr_engine.considered m > before)

(* Enqueue [n] fresh packets of [flow], each watched through [w] from
   slot [first] on.  Kept out of line so no packet stays in the
   caller's frame. *)
let[@inline never] enqueue_watched e w ~flow ~first n =
  for i = first to first + n - 1 do
    let p = pkt ~flow 100 in
    Weak.set w i (Some p);
    ignore (Drr_engine.enqueue e p)
  done

let[@inline never] serve e j ~noalloc n =
  for _ = 1 to n do
    if noalloc then ignore (Drr_engine.next_packet_noalloc e j)
    else ignore (Drr_engine.next_packet e j)
  done

(* The engine's packet pool must not pin a packet it no longer holds:
   neither one it handed out, through either [next_packet] variant, nor
   one queued by a flow removed while backlogged.  No packet is enqueued
   after the last serve, so a slot left holding its packet stays so. *)
let test_engine_releases_packets () =
  let e = Midrr.create () in
  List.iter (Drr_engine.add_iface e) [ 0; 1; 2 ];
  List.iter
    (fun (flow, j) -> Drr_engine.add_flow e ~flow ~weight:1.0 ~allowed:[ j ])
    [ (1, 0); (2, 1); (3, 2) ];
  let w = Weak.create 12 in
  enqueue_watched e w ~flow:1 ~first:0 4;
  enqueue_watched e w ~flow:2 ~first:4 4;
  enqueue_watched e w ~flow:3 ~first:8 4;
  serve e 0 ~noalloc:true 4;
  serve e 1 ~noalloc:false 4;
  Drr_engine.remove_flow e 3;
  Gc.full_major ();
  for i = 0 to 11 do
    Alcotest.(check bool) (Printf.sprintf "packet %d released" i) false
      (Weak.check w i)
  done;
  (* the engine is still live and its pool reusable *)
  let p = pkt ~flow:1 50 in
  Alcotest.(check bool) "reusable" true (Drr_engine.enqueue e p);
  Alcotest.(check bool) "served" true (Drr_engine.next_packet_noalloc e 0 == p)

(* Live major-heap words per registered flow on interfaces [ifaces].
   miDRR keeps one deficit and one flag per (flow, interface) edge of Π,
   so a flow's state must grow with its own preference list only. *)
let live_words_per_flow ifaces =
  let n = 20_000 in
  let m = Midrr.create () in
  List.iter (Drr_engine.add_iface m) ifaces;
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  for flow = 0 to n - 1 do
    Drr_engine.add_flow m ~flow ~weight:1.0 ~allowed:ifaces
  done;
  Gc.full_major ();
  let after = (Gc.stat ()).live_words in
  Alcotest.(check int) "all registered" n (List.length (Drr_engine.flows m));
  Float.of_int (after - before) /. Float.of_int n

(* 47.5 measured: a flow slot (8 ints, a weight and Π_i) and two 9-word
   link slots are 28 words; the pools' doubling slack at 20k flows and
   the id index make the rest. *)
let test_engine_flow_footprint () =
  let low = live_words_per_flow [ 0; 1 ] in
  let high = live_words_per_flow [ 4096; 4097 ] in
  Printf.printf "live words per flow: %.1f (ifaces 0,1), %.1f (4096,4097)\n"
    low high;
  Alcotest.(check (float 0.0)) "independent of interface ids" low high;
  if low > 48.0 then Alcotest.failf "%.1f live words per flow > 48" low

let () =
  Alcotest.run "core"
    [
      ( "types",
        [
          Alcotest.test_case "units" `Quick test_units;
          Alcotest.test_case "tx_time" `Quick test_tx_time;
          Alcotest.test_case "packet create" `Quick test_packet_create;
        ] );
      ( "ring",
        [
          Alcotest.test_case "push and iterate" `Quick test_ring_push_iterate;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "remove" `Quick test_ring_remove;
          Alcotest.test_case "remove head" `Quick test_ring_remove_head;
          Alcotest.test_case "insert before" `Quick test_ring_insert_before;
          Alcotest.test_case "empty and refill" `Quick
            test_ring_empties_and_refills;
        ] );
      ( "pktqueue",
        [
          Alcotest.test_case "fifo" `Quick test_pktqueue_fifo;
          Alcotest.test_case "capacity bound" `Quick test_pktqueue_capacity;
          Alcotest.test_case "a drained queue keeps no packet alive" `Quick
            test_pktqueue_drained_releases;
        ] );
      ( "wfq",
        [
          Alcotest.test_case "weighted split" `Quick
            test_wfq_single_iface_weighted;
          Alcotest.test_case "preferences" `Quick test_wfq_respects_preferences;
          Alcotest.test_case "no idle credit" `Quick
            test_wfq_idle_flow_no_credit;
        ] );
      ( "rrobin",
        [
          Alcotest.test_case "packet fairness" `Quick
            test_rrobin_packet_fairness;
          Alcotest.test_case "skips empty/banned" `Quick
            test_rrobin_skips_empty_and_banned;
        ] );
      ( "pgps-fluid",
        [
          Alcotest.test_case "single drain" `Quick test_pgps_single_flow_drain;
          Alcotest.test_case "two flows share" `Quick test_pgps_two_flows_share;
          Alcotest.test_case "weighted share" `Quick test_pgps_weighted_share;
          Alcotest.test_case "later arrival" `Quick test_pgps_later_arrival;
          Alcotest.test_case "starved flow" `Quick test_pgps_starved_flow;
          Alcotest.test_case "finish order" `Quick test_pgps_finish_order;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "weighted split" `Quick
            test_oracle_single_iface_weighted;
          Alcotest.test_case "targets installed" `Quick
            test_oracle_targets_installed;
          Alcotest.test_case "recomputes on change" `Quick
            test_oracle_recomputes_on_change;
          Alcotest.test_case "preferences" `Quick
            test_oracle_respects_preferences;
        ] );
      ( "engine-api",
        [
          Alcotest.test_case "registration errors" `Quick
            test_engine_registration_errors;
          Alcotest.test_case "set_allowed runtime" `Quick
            test_engine_set_allowed_runtime;
          Alcotest.test_case "flow before iface" `Quick
            test_engine_flow_added_before_iface;
          Alcotest.test_case "remove iface keeps packets" `Quick
            test_engine_remove_iface_keeps_packets;
          Alcotest.test_case "multi-packet turn" `Quick
            test_engine_multi_packet_turn;
          Alcotest.test_case "per-send flags" `Quick
            test_engine_per_send_flags;
          Alcotest.test_case "counter saturates" `Quick
            test_engine_counter_saturates;
          Alcotest.test_case "considered grows" `Quick
            test_engine_considered_grows;
          Alcotest.test_case "per-flow footprint" `Quick
            test_engine_flow_footprint;
          Alcotest.test_case "the engine keeps no served packet alive" `Quick
            test_engine_releases_packets;
        ] );
    ]
