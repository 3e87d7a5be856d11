(* Tests for the packet-steering bridge substrate and the Fig. 9 profiler. *)

open Midrr_core
module Vif = Midrr_bridge.Vif
module Bridge = Midrr_bridge.Bridge
module Profiler = Midrr_bridge.Profiler

let addr i =
  Vif.addr ~mac:(Int64.of_int (0x020000 + i)) ~ip:(Int32.of_int (10 + i))

(* --- Vif --------------------------------------------------------------- *)

let test_addr_validation () =
  Alcotest.check_raises "wide mac"
    (Invalid_argument "Vif.addr: MAC wider than 48 bits") (fun () ->
      ignore (Vif.addr ~mac:0x1_0000_0000_0000L ~ip:0l))

let test_frame_checksum_valid () =
  let f =
    Vif.make ~src:(addr 1) ~dst:(addr 2)
      (Packet.create ~flow:0 ~size:1500 ~arrival:0.0)
  in
  Alcotest.(check bool) "fresh frame valid" true (Vif.checksum_valid f)

let test_rewrite_updates_checksum () =
  let p = Packet.create ~flow:0 ~size:1000 ~arrival:0.0 in
  let f = Vif.make ~src:(addr 1) ~dst:(addr 2) p in
  let g = Vif.rewrite f ~src:(addr 3) ~dst:(addr 4) in
  Alcotest.(check bool) "rewritten valid" true (Vif.checksum_valid g);
  Alcotest.(check bool) "checksum changed" true (f.checksum <> g.checksum);
  (* Tampering without recomputation is detected. *)
  let tampered = { g with src = addr 9 } in
  Alcotest.(check bool) "tamper detected" false (Vif.checksum_valid tampered)

let test_checksum_depends_on_length () =
  let c1 = Vif.header_checksum ~src:(addr 1) ~dst:(addr 2) ~payload_len:100 in
  let c2 = Vif.header_checksum ~src:(addr 1) ~dst:(addr 2) ~payload_len:101 in
  Alcotest.(check bool) "length matters" true (c1 <> c2)

(* --- Bridge ------------------------------------------------------------- *)

let make_bridge () =
  let sched = Midrr.create () in
  let bridge = Bridge.create ~sched:(Midrr.packed sched) () in
  Bridge.add_port bridge 0 ~local:(addr 10) ~gateway:(addr 20);
  Bridge.add_port bridge 1 ~local:(addr 11) ~gateway:(addr 21);
  bridge

let test_bridge_steering_respects_preferences () =
  let bridge = make_bridge () in
  Bridge.register_flow bridge ~flow:1 ~allowed:[ 0 ] ();
  Bridge.register_flow bridge ~flow:2 ~allowed:[ 1 ] ();
  for _ = 1 to 10 do
    ignore (Bridge.send bridge (Packet.create ~flow:1 ~size:500 ~arrival:0.0));
    ignore (Bridge.send bridge (Packet.create ~flow:2 ~size:500 ~arrival:0.0))
  done;
  for _ = 1 to 10 do
    (match Bridge.transmit bridge 0 with
    | Some f -> Alcotest.(check int) "port 0 only flow 1" 1 f.payload.flow
    | None -> Alcotest.fail "port 0 starved");
    match Bridge.transmit bridge 1 with
    | Some f -> Alcotest.(check int) "port 1 only flow 2" 2 f.payload.flow
    | None -> Alcotest.fail "port 1 starved"
  done

let test_bridge_rewrites_to_port_addresses () =
  let bridge = make_bridge () in
  Bridge.register_flow bridge ~flow:1 ~allowed:[ 0 ] ();
  ignore (Bridge.send bridge (Packet.create ~flow:1 ~size:500 ~arrival:0.0));
  match Bridge.transmit bridge 0 with
  | Some f ->
      Alcotest.(check bool) "src is port local" true (f.src = addr 10);
      Alcotest.(check bool) "dst is gateway" true (f.dst = addr 20);
      Alcotest.(check bool) "valid checksum" true (Vif.checksum_valid f)
  | None -> Alcotest.fail "no frame"

let test_bridge_counters () =
  let bridge = make_bridge () in
  Bridge.register_flow bridge ~flow:1 ~allowed:[ 0 ] ();
  for _ = 1 to 5 do
    ignore (Bridge.send bridge (Packet.create ~flow:1 ~size:100 ~arrival:0.0))
  done;
  for _ = 1 to 5 do
    ignore (Bridge.transmit bridge 0)
  done;
  Alcotest.(check int) "tx frames" 5 (Bridge.tx_frames bridge 0);
  Alcotest.(check int) "rewrites" 5 (Bridge.rewrites bridge);
  Alcotest.(check bool) "empty now" true (Bridge.transmit bridge 0 = None)

let test_bridge_unknown_flow_rejected () =
  let bridge = make_bridge () in
  Alcotest.(check bool) "unknown flow" false
    (Bridge.send bridge (Packet.create ~flow:42 ~size:100 ~arrival:0.0))

(* --- Profiler ------------------------------------------------------------- *)

let test_profiler_produces_samples () =
  let r = Profiler.run ~decisions:500 ~n_ifaces:4 () in
  Alcotest.(check int) "sample count" 500 (Array.length r.samples_ns);
  Array.iter
    (fun s -> if s < 0.0 then Alcotest.failf "negative sample %f" s)
    r.samples_ns;
  let summary = Profiler.summary r in
  (* A scheduling decision takes well under a millisecond. *)
  if summary.median > 1e6 then
    Alcotest.failf "median decision %.0f ns implausibly slow" summary.median

let test_profiler_cdf_monotone () =
  let r = Profiler.run ~decisions:500 ~n_ifaces:8 () in
  let cdf = Profiler.cdf r in
  let points = Midrr_stats.Cdf.points cdf in
  let rec check_pairs = function
    | (_, p1) :: ((_, p2) :: _ as rest) ->
        if p2 < p1 then Alcotest.fail "CDF not monotone";
        check_pairs rest
    | _ -> ()
  in
  check_pairs (Array.to_list points)

let test_profiler_supported_rate_positive () =
  let r = Profiler.run ~decisions:500 ~n_ifaces:4 () in
  let gbps = Profiler.supported_rate_gbps r ~pkt_size:1000 in
  if gbps <= 0.0 then Alcotest.failf "non-positive rate %.3f" gbps

let () =
  Alcotest.run "bridge"
    [
      ( "vif",
        [
          Alcotest.test_case "addr validation" `Quick test_addr_validation;
          Alcotest.test_case "checksum valid" `Quick test_frame_checksum_valid;
          Alcotest.test_case "rewrite updates checksum" `Quick
            test_rewrite_updates_checksum;
          Alcotest.test_case "checksum covers length" `Quick
            test_checksum_depends_on_length;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "steering preferences" `Quick
            test_bridge_steering_respects_preferences;
          Alcotest.test_case "rewrite addresses" `Quick
            test_bridge_rewrites_to_port_addresses;
          Alcotest.test_case "counters" `Quick test_bridge_counters;
          Alcotest.test_case "unknown flow" `Quick
            test_bridge_unknown_flow_rejected;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "produces samples" `Quick
            test_profiler_produces_samples;
          Alcotest.test_case "cdf monotone" `Quick test_profiler_cdf_monotone;
          Alcotest.test_case "supported rate" `Quick
            test_profiler_supported_rate_positive;
        ] );
    ]
