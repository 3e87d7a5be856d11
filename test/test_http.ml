(* Tests for the HTTP byte-range proxy substrate. *)

open Midrr_core
module Chunk = Midrr_http.Chunk
module Proxy = Midrr_http.Proxy
module Link = Midrr_sim.Link

let close ?(tol = 1e-9) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.6g, got %.6g" what expected got

(* --- Chunk ---------------------------------------------------------------- *)

(* The range lengths the proxy requests: [next_length] walked from
   byte 0 until it reads 0. *)
let chunk_lengths ~total_bytes ~chunk_size ~from =
  let rec go sent acc =
    match Chunk.next_length ~total_bytes ~chunk_size ~sent with
    | 0 -> List.rev acc
    | n -> go (sent + n) (n :: acc)
  in
  go from []

let test_chunk_plan_exact () =
  Alcotest.(check (list int)) "three full chunks" [ 100; 100; 100 ]
    (chunk_lengths ~total_bytes:300 ~chunk_size:100 ~from:0)

let test_chunk_plan_remainder () =
  Alcotest.(check (list int)) "the last one short" [ 100; 100; 50 ]
    (chunk_lengths ~total_bytes:250 ~chunk_size:100 ~from:0)

let test_chunk_plan_empty () =
  Alcotest.(check (list int)) "zero bytes" []
    (chunk_lengths ~total_bytes:0 ~chunk_size:100 ~from:0)

(* An endless transfer (the proxy sizes it [max_int]) streams full
   chunks however far it has got. *)
let test_chunk_next_streaming () =
  Alcotest.(check int) "full chunk far in" 100
    (Chunk.next_length ~total_bytes:max_int ~chunk_size:100
       ~sent:1_000_000_000_000);
  Alcotest.(check (list int)) "resumes mid-transfer" [ 100; 50 ]
    (chunk_lengths ~total_bytes:250 ~chunk_size:100 ~from:100)

(* --- Proxy ------------------------------------------------------------------ *)

let make_proxy ?(chunk_size = 65536) ?(rtt = 0.02) () =
  let sched = Midrr.packed (Midrr.create ~base_quantum:chunk_size ()) in
  Proxy.create ~chunk_size ~rtt ~pipeline_depth:4 ~sched ()

let test_proxy_single_transfer_throughput () =
  let proxy = make_proxy () in
  Proxy.add_iface proxy 0 (Link.constant (Types.mbps 8.0));
  Proxy.add_transfer proxy 0 ~weight:1.0 ~allowed:[ 0 ] ();
  Proxy.run proxy ~until:30.0;
  (* Pipelining hides the RTT: goodput close to line rate. *)
  let g = Proxy.avg_goodput proxy 0 ~t0:2.0 ~t1:30.0 in
  if g < 7.5 || g > 8.05 then Alcotest.failf "goodput %.3f not near 8" g

let test_proxy_finite_completion_and_bytes () =
  let proxy = make_proxy () in
  Proxy.add_iface proxy 0 (Link.constant (Types.mbps 8.0));
  let total = 1_000_000 in
  Proxy.add_transfer proxy 0 ~total_bytes:total ~weight:1.0 ~allowed:[ 0 ] ();
  Proxy.run proxy ~until:30.0;
  Alcotest.(check int) "all bytes received" total (Proxy.received_bytes proxy 0);
  match Proxy.completion_time proxy 0 with
  | Some t ->
      (* 1 MB at 8 Mb/s = 1 s plus RTT overhead. *)
      if t < 1.0 || t > 1.5 then Alcotest.failf "completion %.3f out of range" t
  | None -> Alcotest.fail "never completed"

let test_proxy_two_transfers_fair () =
  let proxy = make_proxy () in
  Proxy.add_iface proxy 0 (Link.constant (Types.mbps 8.0));
  Proxy.add_transfer proxy 0 ~weight:1.0 ~allowed:[ 0 ] ();
  Proxy.add_transfer proxy 1 ~weight:1.0 ~allowed:[ 0 ] ();
  Proxy.run proxy ~until:60.0;
  let g0 = Proxy.avg_goodput proxy 0 ~t0:5.0 ~t1:60.0
  and g1 = Proxy.avg_goodput proxy 1 ~t0:5.0 ~t1:60.0 in
  close ~tol:0.6 "equal split g0" 4.0 g0;
  close ~tol:0.6 "equal split g1" 4.0 g1

let test_proxy_weighted_transfers () =
  let proxy = make_proxy () in
  Proxy.add_iface proxy 0 (Link.constant (Types.mbps 9.0));
  Proxy.add_transfer proxy 0 ~weight:2.0 ~allowed:[ 0 ] ();
  Proxy.add_transfer proxy 1 ~weight:1.0 ~allowed:[ 0 ] ();
  Proxy.run proxy ~until:60.0;
  let g0 = Proxy.avg_goodput proxy 0 ~t0:5.0 ~t1:60.0
  and g1 = Proxy.avg_goodput proxy 1 ~t0:5.0 ~t1:60.0 in
  close ~tol:0.25 "weighted ratio" 2.0 (g0 /. g1)

let test_proxy_aggregates_interfaces () =
  let proxy = make_proxy () in
  Proxy.add_iface proxy 0 (Link.constant (Types.mbps 5.0));
  Proxy.add_iface proxy 1 (Link.constant (Types.mbps 3.0));
  Proxy.add_transfer proxy 0 ~weight:1.0 ~allowed:[ 0; 1 ] ();
  Proxy.run proxy ~until:30.0;
  let g = Proxy.avg_goodput proxy 0 ~t0:2.0 ~t1:30.0 in
  if g < 7.4 || g > 8.1 then
    Alcotest.failf "aggregated goodput %.3f not near 8" g;
  Alcotest.(check bool) "used iface 0" true
    (Proxy.served_cell proxy ~flow:0 ~iface:0 > 0);
  Alcotest.(check bool) "used iface 1" true
    (Proxy.served_cell proxy ~flow:0 ~iface:1 > 0)

let test_proxy_respects_preferences () =
  let proxy = make_proxy () in
  Proxy.add_iface proxy 0 (Link.constant (Types.mbps 5.0));
  Proxy.add_iface proxy 1 (Link.constant (Types.mbps 5.0));
  Proxy.add_transfer proxy 0 ~weight:1.0 ~allowed:[ 0 ] ();
  Proxy.run proxy ~until:10.0;
  Alcotest.(check int) "banned interface untouched" 0
    (Proxy.served_cell proxy ~flow:0 ~iface:1)

let test_proxy_link_outage_resumes () =
  let proxy = make_proxy () in
  Proxy.add_iface proxy 0
    (Link.steps ~initial:(Types.mbps 8.0)
       [ (5.0, 0.0); (10.0, Types.mbps 8.0) ]);
  Proxy.add_transfer proxy 0 ~weight:1.0 ~allowed:[ 0 ] ();
  Proxy.run proxy ~until:20.0;
  close ~tol:1.0 "outage" 0.0 (Proxy.avg_goodput proxy 0 ~t0:6.0 ~t1:9.5);
  let after = Proxy.avg_goodput proxy 0 ~t0:11.0 ~t1:20.0 in
  if after < 7.0 then Alcotest.failf "did not resume: %.3f" after

let test_proxy_share_matrix () =
  let proxy = make_proxy () in
  Proxy.add_iface proxy 0 (Link.constant (Types.mbps 4.0));
  Proxy.add_iface proxy 1 (Link.constant (Types.mbps 4.0));
  Proxy.add_transfer proxy 0 ~weight:1.0 ~allowed:[ 0 ] ();
  Proxy.add_transfer proxy 1 ~weight:1.0 ~allowed:[ 1 ] ();
  let judged = Proxy.window proxy ~t0:5.0 ~t1:25.0 ~judge:(fun _ -> true) in
  Proxy.run proxy ~until:25.0;
  let { Midrr_sim.Meter.share; _ } = judged () in
  close ~tol:4e5 "f0 if0" 4e6 share.(0).(0);
  close ~tol:1e-9 "f0 if1" 0.0 share.(0).(1);
  close ~tol:4e5 "f1 if1" 4e6 share.(1).(1)

(* A negative id is rejected before any state changes: a retry raises
   the same error (not [duplicate]), a valid id then registers, and a
   deferred registration cannot fail inside [run]. *)
let test_proxy_negative_ids () =
  let sched = Midrr.packed (Midrr.create ~base_quantum:65536 ()) in
  let proxy =
    Proxy.create ~chunk_size:65536 ~rtt:0.02 ~pipeline_depth:4
      ~metrics:(Midrr_obs.Busmetrics.create ()) ~sched ()
  in
  let rejects what msg f =
    for _ = 1 to 2 do
      Alcotest.check_raises what (Invalid_argument msg) f
    done
  in
  rejects "negative iface" "Proxy.add_iface: negative interface id" (fun () ->
      Proxy.add_iface proxy (-1) (Link.constant (Types.mbps 8.0)));
  Proxy.add_iface proxy 0 (Link.constant (Types.mbps 8.0));
  rejects "negative deferred transfer" "Proxy.add_transfer: negative flow id"
    (fun () -> Proxy.add_transfer proxy ~at:1.0 (-1) ~weight:1.0 ~allowed:[ 0 ] ());
  Proxy.add_transfer proxy ~at:1.0 0 ~weight:1.0 ~allowed:[ 0 ] ();
  Proxy.run proxy ~until:20.0;
  let g = Proxy.avg_goodput proxy 0 ~t0:3.0 ~t1:20.0 in
  if g < 7.0 then Alcotest.failf "goodput %.3f after the rejected ids" g

let test_proxy_pipeline_depth_matters () =
  (* With a large RTT and depth 1, the link idles between requests; deeper
     pipelining recovers the capacity (the paper: "request pipelining ...
     making sure that all the available capacity is utilized"). *)
  let measure depth =
    let sched = Midrr.packed (Midrr.create ~base_quantum:65536 ()) in
    let proxy =
      Proxy.create ~chunk_size:65536 ~rtt:0.2 ~pipeline_depth:depth ~sched ()
    in
    Proxy.add_iface proxy 0 (Link.constant (Types.mbps 8.0));
    Proxy.add_transfer proxy 0 ~weight:1.0 ~allowed:[ 0 ] ();
    Proxy.run proxy ~until:30.0;
    Proxy.avg_goodput proxy 0 ~t0:2.0 ~t1:30.0
  in
  let shallow = measure 1 and deep = measure 6 in
  if shallow > 4.0 then
    Alcotest.failf "depth-1 goodput %.2f should be RTT-bound" shallow;
  if deep < 7.0 then
    Alcotest.failf "depth-6 goodput %.2f should hide the RTT" deep

let () =
  Alcotest.run "http"
    [
      ( "chunk",
        [
          Alcotest.test_case "plan exact" `Quick test_chunk_plan_exact;
          Alcotest.test_case "plan remainder" `Quick test_chunk_plan_remainder;
          Alcotest.test_case "plan empty" `Quick test_chunk_plan_empty;
          Alcotest.test_case "next streaming" `Quick test_chunk_next_streaming;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "single transfer throughput" `Quick
            test_proxy_single_transfer_throughput;
          Alcotest.test_case "finite completion" `Quick
            test_proxy_finite_completion_and_bytes;
          Alcotest.test_case "two transfers fair" `Quick
            test_proxy_two_transfers_fair;
          Alcotest.test_case "weighted transfers" `Quick
            test_proxy_weighted_transfers;
          Alcotest.test_case "aggregates interfaces" `Quick
            test_proxy_aggregates_interfaces;
          Alcotest.test_case "respects preferences" `Quick
            test_proxy_respects_preferences;
          Alcotest.test_case "link outage resumes" `Quick
            test_proxy_link_outage_resumes;
          Alcotest.test_case "share matrix" `Quick test_proxy_share_matrix;
          Alcotest.test_case "negative ids" `Quick test_proxy_negative_ids;
          Alcotest.test_case "pipeline depth matters" `Quick
            test_proxy_pipeline_depth_matters;
        ] );
    ]
