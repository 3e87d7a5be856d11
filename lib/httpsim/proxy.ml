open Midrr_core
module Engine = Midrr_sim.Engine
module Link = Midrr_sim.Link
module Meter = Midrr_sim.Meter

(* A transfer's datapath state, carried by its {!Meter} flow. *)
type transfer = {
  mutable requested : int; (* bytes covered by issued chunk requests *)
  mutable queued_tokens : int; (* chunk tokens currently in the scheduler *)
  mutable stopped : bool;
}

(* The requests issued on an interface whose response has not fully
   arrived, oldest first, in a ring of [pipeline_depth] entries starting
   at [head].  Responses stream back one at a time in issue order, so
   while [receiving] the head is the response streaming now, and the
   interface's [stream] and [complete] events, built once, find it
   there. *)
type iface = {
  i_id : Types.iface_id;
  profile : Link.t;
  req_flow : int array;
  req_bytes : int array;
  req_issued : float array;
  mutable head : int;
  mutable outstanding : int; (* ring entries: issued, not fully received *)
  mutable receiving : bool;
  i_outstanding_gauge : Midrr_obs.Metrics.gauge; (* -1 without metrics *)
  stream : unit -> unit; (* the head response's data begins to flow *)
  complete : unit -> unit; (* the head response has fully arrived *)
}

type t = {
  engine : Engine.t;
  sched : Sched_intf.packed;
  chunk_size : int;
  pipeline_depth : int;
  rtt : float;
  meter : transfer Meter.t;
  ifaces : iface Int_tbl.Slots.t;
}

let create ?(bin = 1.0) ?(chunk_size = 262144) ?(pipeline_depth = 4)
    ?(rtt = 0.05) ?sink ?metrics ~sched () =
  if chunk_size <= 0 then invalid_arg "Proxy.create: chunk_size <= 0";
  if pipeline_depth <= 0 then invalid_arg "Proxy.create: pipeline_depth <= 0";
  if rtt < 0.0 then invalid_arg "Proxy.create: negative rtt";
  let engine = Engine.create () in
  {
    engine;
    sched;
    chunk_size;
    pipeline_depth;
    rtt;
    meter = Meter.create ~bin ?sink ?metrics engine sched;
    ifaces = Int_tbl.Slots.create ();
  }

let engine t = t.engine
let now t = Engine.now t.engine

(* Platform-truth gauge: byte-range requests issued on the interface
   whose response has not fully arrived (the proxy's pipeline fill).
   The guard keeps a sinkless run from boxing the float. *)
let set_outstanding t ifc =
  if ifc.i_outstanding_gauge >= 0 then
    Meter.set_gauge t.meter ifc.i_outstanding_gauge
      (Float.of_int ifc.outstanding)

(* Bytes of the transfer's next chunk request; 0 once it is fully
   requested. *)
let next_chunk t fl =
  Chunk.next_length ~total_bytes:(Meter.size fl) ~chunk_size:t.chunk_size
    ~sent:(Meter.data fl).requested

(* Keep a small window of chunk tokens queued in the scheduler so the flow
   looks continuously backlogged while bytes remain. *)
let rec refill_tokens t fl =
  let x = Meter.data fl in
  if (not x.stopped) && x.queued_tokens < t.pipeline_depth then begin
    let len = next_chunk t fl in
    if len > 0 then begin
      let pkt = Packet.create ~flow:(Meter.id fl) ~size:len ~arrival:(now t) in
      if Sched_intf.Packed.enqueue t.sched pkt then begin
        x.requested <- x.requested + len;
        x.queued_tokens <- x.queued_tokens + 1;
        kick t (Meter.allowed fl);
        refill_tokens t fl
      end
    end
  end

(* Issue byte-range requests on an interface while it has free pipeline
   slots, letting the packet scheduler pick the flow each slot serves. *)
and issue_requests t ifc =
  if ifc.outstanding < t.pipeline_depth then begin
    match Sched_intf.Packed.next_packet t.sched ifc.i_id with
    | None -> ()
    | Some pkt ->
        (* head + outstanding < 2 * depth: wrap by one subtraction *)
        let slot = ifc.head + ifc.outstanding in
        let slot =
          if slot >= t.pipeline_depth then slot - t.pipeline_depth else slot
        in
        ifc.req_flow.(slot) <- pkt.flow;
        ifc.req_bytes.(slot) <- pkt.size;
        ifc.req_issued.(slot) <- now t;
        ifc.outstanding <- ifc.outstanding + 1;
        set_outstanding t ifc;
        (match Meter.find t.meter pkt.flow with
        | fl ->
            let x = Meter.data fl in
            x.queued_tokens <- x.queued_tokens - 1;
            refill_tokens t fl
        | exception Not_found -> ());
        start_receiving t ifc;
        issue_requests t ifc
  end

(* Begin the oldest response not yet streaming, one at a time per
   interface. *)
and start_receiving t ifc =
  if (not ifc.receiving) && ifc.outstanding > 0 then begin
    ifc.receiving <- true;
    let begin_data = Float.max (now t) (ifc.req_issued.(ifc.head) +. t.rtt) in
    Engine.schedule t.engine ~at:begin_data ifc.stream
  end

(* The body of [ifc.stream]. *)
and stream t ifc =
  let time = now t in
  let rate = Link.rate_at ifc.profile time in
  if rate <= 0.0 then begin
    (* Link is down: resume when the profile recovers. *)
    match Link.next_change ifc.profile time with
    | Some at -> Engine.schedule t.engine ~at ifc.stream
    | None -> () (* dead link, response never arrives *)
  end
  else begin
    let dt = Types.tx_time ~bytes:ifc.req_bytes.(ifc.head) ~rate in
    Engine.schedule_in t.engine ~after:dt ifc.complete
  end

(* The body of [ifc.complete]. *)
and complete t ifc =
  let flow = ifc.req_flow.(ifc.head) and bytes = ifc.req_bytes.(ifc.head) in
  (let next = ifc.head + 1 in
   ifc.head <- (if Int.equal next t.pipeline_depth then 0 else next));
  ifc.receiving <- false;
  ifc.outstanding <- ifc.outstanding - 1;
  set_outstanding t ifc;
  (match Meter.find t.meter flow with
  | fl -> Meter.deliver t.meter fl ~iface:ifc.i_id ~bytes
  | exception Not_found -> ());
  start_receiving t ifc;
  issue_requests t ifc

and kick t = function
  | [] -> ()
  | j :: rest ->
      (match Int_tbl.Slots.find t.ifaces j with
      | Some ifc -> issue_requests t ifc
      | None -> ());
      kick t rest

let add_iface t j profile =
  if j < 0 then invalid_arg "Proxy.add_iface: negative interface id";
  if Option.is_some (Int_tbl.Slots.find t.ifaces j) then
    invalid_arg "Proxy.add_iface: duplicate";
  let depth = t.pipeline_depth in
  let rec ifc =
    {
      i_id = j;
      profile;
      req_flow = Array.make depth 0;
      req_bytes = Array.make depth 0;
      req_issued = Array.make depth 0.0;
      head = 0;
      outstanding = 0;
      receiving = false;
      i_outstanding_gauge = Meter.gauge t.meter j "outstanding";
      stream = (fun () -> stream t ifc);
      complete = (fun () -> complete t ifc);
    }
  in
  Int_tbl.Slots.set t.ifaces j ifc;
  Sched_intf.Packed.add_iface t.sched j;
  issue_requests t ifc

let add_transfer t ?(at = 0.0) ?total_bytes f ~weight ~allowed () =
  if f < 0 then invalid_arg "Proxy.add_transfer: negative flow id";
  let fl =
    Meter.add_flow t.meter f ~weight ~allowed ?size:total_bytes
      { requested = 0; queued_tokens = 0; stopped = false }
  in
  let register () =
    Sched_intf.Packed.add_flow t.sched ~flow:f ~weight ~allowed;
    refill_tokens t fl;
    kick t allowed
  in
  if at <= now t then register () else Engine.schedule t.engine ~at register

let stop_transfer t ?at f =
  let x = Meter.data (Meter.flow t.meter f) in
  let act () =
    x.stopped <- true;
    if Sched_intf.Packed.has_flow t.sched f then
      Sched_intf.Packed.remove_flow t.sched f
  in
  match at with
  | None -> act ()
  | Some time -> Engine.schedule t.engine ~at:time act

let run t ~until = Engine.run ~until t.engine
let goodput_series t f = Meter.rate_series t.meter f
let avg_goodput t f ~t0 ~t1 = Meter.avg_rate t.meter f ~t0 ~t1
let received_bytes t f = Meter.delivered t.meter f
let completion_time t f = Meter.completion_time t.meter f
let served_cell t ~flow ~iface = Meter.served_cell t.meter ~flow ~iface

type snapshot = Meter.snapshot

let snapshot t = Meter.snapshot t.meter
let share_since t snap ~flows ~ifaces =
  Meter.share_since t.meter snap ~flows ~ifaces

let instance_of t ~flows ~ifaces =
  Meter.instance_of t.meter ~flows ~ifaces ~capacity:(fun j ->
      match Int_tbl.Slots.find t.ifaces j with
      | Some ifc -> Link.rate_at ifc.profile (now t)
      | None -> invalid_arg "Proxy: unknown interface")
