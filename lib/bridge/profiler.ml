open Midrr_core
module Rng = Midrr_stats.Rng

type result = { n_ifaces : int; n_flows : int; samples_ns : float array }

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* ~1,000 packets of 1000 bytes queued, drawn from one fixed seed. *)
let queued_packets = 1000
let pkt_size = 1000

let run ?(n_flows = 32) ?(decisions = 20000) ~n_ifaces () =
  if n_ifaces <= 0 then invalid_arg "Profiler.run: n_ifaces <= 0";
  let sched = Midrr.create () in
  let packed = Midrr.packed sched in
  let bridge = Bridge.create ~sched:packed () in
  let rng = Rng.create ~seed:7 in
  for j = 0 to n_ifaces - 1 do
    let local =
      Vif.addr ~mac:(Int64.of_int (0x02_000000 + j)) ~ip:(Int32.of_int (j + 1))
    in
    let gateway =
      Vif.addr
        ~mac:(Int64.of_int (0x06_000000 + j))
        ~ip:(Int32.of_int (0x0100 + j))
    in
    Bridge.add_port bridge j ~local ~gateway
  done;
  (* Flows willing to use every interface: the regime where service flags
     are dense and the per-decision search is longest (paper §6.3). *)
  for f = 0 to n_flows - 1 do
    Bridge.register_flow bridge ~flow:f ~weight:1.0
      ~allowed:(List.init n_ifaces Fun.id) ()
  done;
  let queued = ref 0 in
  let top_up () =
    while !queued < queued_packets do
      let flow = Rng.int rng ~bound:n_flows in
      let p = Packet.create ~flow ~size:pkt_size ~arrival:0.0 in
      if Bridge.send bridge p then incr queued
      else queued := queued_packets (* bounded queues full; stop *)
    done
  in
  top_up ();
  let samples = Array.make decisions 0.0 in
  let recorded = ref 0 in
  let iface = ref 0 in
  while !recorded < decisions do
    let j = !iface in
    iface := (!iface + 1) mod n_ifaces;
    let t0 = now_ns () in
    let sent = Option.is_some (Drr_engine.next_packet sched j) in
    let t1 = now_ns () in
    if sent then begin
      samples.(!recorded) <- t1 -. t0;
      incr recorded;
      decr queued;
      if !queued < queued_packets / 2 then top_up ()
    end
    else top_up ()
  done;
  { n_ifaces; n_flows; samples_ns = samples }

let cdf result = Midrr_stats.Cdf.of_samples result.samples_ns

let summary result = Midrr_stats.Summary.describe result.samples_ns

let supported_rate_gbps result ~pkt_size =
  let median = Midrr_stats.Summary.median result.samples_ns in
  8.0 *. Float.of_int pkt_size /. (median *. 1e-9) /. 1e9
