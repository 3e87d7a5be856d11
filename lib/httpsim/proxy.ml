open Midrr_core
module Engine = Midrr_sim.Engine
module Link = Midrr_sim.Link
module Timeseries = Midrr_stats.Timeseries
module Rng = Midrr_stats.Rng
module Counters = Midrr_obs.Counters
module Metrics = Midrr_obs.Metrics
module Busmetrics = Midrr_obs.Busmetrics
module Int_tbl = Midrr_sim.Int_tbl

type transfer = {
  x_flow : Types.flow_id;
  weight : float;
  allowed : Types.iface_id list;
  total : int option;
  mutable requested : int; (* bytes covered by issued chunk requests *)
  mutable received : int;
  mutable queued_tokens : int; (* chunk tokens currently in the scheduler *)
  mutable stopped : bool;
  mutable done_at : float option;
  ts : Timeseries.t;
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
  i_outstanding_gauge : Metrics.gauge; (* -1 when no metrics attached *)
  stream : unit -> unit; (* the head response's data begins to flow *)
  complete : unit -> unit; (* the head response has fully arrived *)
}

type t = {
  engine : Engine.t;
  sched : Sched_intf.packed;
  rng : Rng.t;
  bin : float;
  chunk_size : int;
  pipeline_depth : int;
  rtt : float;
  rtt_jitter : float;
  transfers : transfer Int_tbl.t;
  ifaces : iface Int_tbl.t;
  cells : Counters.t;
  sink : Midrr_obs.Sink.t option; (* effective: user sink + metrics fold *)
  ev : Midrr_obs.Event.record; (* refilled per [Complete] *)
  metrics : Busmetrics.t option;
}

let create ?(seed = 1) ?(bin = 1.0) ?(chunk_size = 262144)
    ?(pipeline_depth = 4) ?(rtt = 0.05) ?(rtt_jitter = 0.0) ?sink ?metrics
    ~sched () =
  if chunk_size <= 0 then invalid_arg "Proxy.create: chunk_size <= 0";
  if pipeline_depth <= 0 then invalid_arg "Proxy.create: pipeline_depth <= 0";
  if rtt < 0.0 then invalid_arg "Proxy.create: negative rtt";
  if rtt_jitter < 0.0 then invalid_arg "Proxy.create: negative rtt_jitter";
  let effective_sink =
    match (sink, metrics) with
    | None, None -> None
    | Some s, None -> Some s
    | None, Some m -> Some (Busmetrics.sink m)
    | Some s, Some m -> Some (Midrr_obs.Sink.tee s (Busmetrics.sink m))
  in
  let t =
    {
      engine = Engine.create ();
      sched;
      rng = Rng.create ~seed;
      bin;
      chunk_size;
      pipeline_depth;
      rtt;
      rtt_jitter;
      transfers = Int_tbl.create 16;
      ifaces = Int_tbl.create 8;
      cells = Counters.create ~kind:Completes ();
      sink = effective_sink;
      ev = Midrr_obs.Event.create ();
      metrics;
    }
  in
  (match t.sink with
  | None -> ()
  | Some s ->
      Sched_intf.Packed.subscribe sched
        (Midrr_obs.Sink.stamp ~clock:(fun () -> Engine.now t.engine) s));
  t

let engine t = t.engine
let now t = Engine.now t.engine

let transfer t f =
  match Int_tbl.find t.transfers f with
  | x -> x
  | exception Not_found -> invalid_arg "Proxy: unknown transfer"

(* Platform-truth gauge: byte-range requests issued on the interface
   whose response has not fully arrived (the proxy's pipeline fill). *)
let set_outstanding t ifc =
  match t.metrics with
  | None -> ()
  | Some m ->
      if ifc.i_outstanding_gauge >= 0 then
        Metrics.set_gauge (Busmetrics.registry m) ifc.i_outstanding_gauge
          (Float.of_int ifc.outstanding)

(* Bytes of the transfer's next chunk request; 0 once it is fully
   requested. *)
let next_chunk t x =
  match x.total with
  | None -> t.chunk_size
  | Some total ->
      Chunk.next_length ~total_bytes:total ~chunk_size:t.chunk_size
        ~sent:x.requested

(* Keep a small window of chunk tokens queued in the scheduler so the flow
   looks continuously backlogged while bytes remain. *)
let rec refill_tokens t x =
  if (not x.stopped) && x.queued_tokens < t.pipeline_depth then begin
    let len = next_chunk t x in
    if len > 0 then begin
      let pkt = Packet.create ~flow:x.x_flow ~size:len ~arrival:(now t) in
      if Sched_intf.Packed.enqueue t.sched pkt then begin
        x.requested <- x.requested + len;
        x.queued_tokens <- x.queued_tokens + 1;
        kick t x.allowed;
        refill_tokens t x
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
        let slot = (ifc.head + ifc.outstanding) mod t.pipeline_depth in
        ifc.req_flow.(slot) <- pkt.flow;
        ifc.req_bytes.(slot) <- pkt.size;
        ifc.req_issued.(slot) <- now t;
        ifc.outstanding <- ifc.outstanding + 1;
        set_outstanding t ifc;
        (match Int_tbl.find t.transfers pkt.flow with
        | x ->
            x.queued_tokens <- x.queued_tokens - 1;
            refill_tokens t x
        | exception Not_found -> ());
        start_receiving t ifc;
        issue_requests t ifc
  end

(* Begin the oldest response not yet streaming, one at a time per
   interface. *)
and start_receiving t ifc =
  if (not ifc.receiving) && ifc.outstanding > 0 then begin
    ifc.receiving <- true;
    (* Lognormal multiplicative jitter: realistic heavy-ish RTT tail while
       staying positive and deterministic per seed. *)
    let rtt =
      if t.rtt_jitter > 0.0 then
        t.rtt *. Rng.lognormal t.rng ~mu:0.0 ~sigma:t.rtt_jitter
      else t.rtt
    in
    let begin_data = Float.max (now t) (ifc.req_issued.(ifc.head) +. rtt) in
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
  let time = now t in
  let flow = ifc.req_flow.(ifc.head) and bytes = ifc.req_bytes.(ifc.head) in
  ifc.head <- (ifc.head + 1) mod t.pipeline_depth;
  ifc.receiving <- false;
  ifc.outstanding <- ifc.outstanding - 1;
  set_outstanding t ifc;
  Counters.add t.cells ~flow ~iface:ifc.i_id ~bytes;
  (match t.sink with
  | None -> ()
  | Some s ->
      Midrr_obs.Event.set_complete t.ev ~flow ~iface:ifc.i_id ~bytes;
      s ~time t.ev);
  (match Int_tbl.find t.transfers flow with
  | x -> (
      x.received <- x.received + bytes;
      Timeseries.record x.ts ~time ~bytes;
      match x.total with
      | Some total when x.received >= total && Option.is_none x.done_at ->
          x.done_at <- Some time
      | _ -> ())
  | exception Not_found -> ());
  start_receiving t ifc;
  issue_requests t ifc

and kick t = function
  | [] -> ()
  | j :: rest ->
      (match Int_tbl.find t.ifaces j with
      | ifc -> issue_requests t ifc
      | exception Not_found -> ());
      kick t rest

let add_iface t j profile =
  if Int_tbl.mem t.ifaces j then invalid_arg "Proxy.add_iface: duplicate";
  let i_outstanding_gauge =
    match t.metrics with
    | None -> -1
    | Some m ->
        Metrics.gauge (Busmetrics.registry m)
          (Printf.sprintf "iface%d_outstanding" j)
  in
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
      i_outstanding_gauge;
      stream = (fun () -> stream t ifc);
      complete = (fun () -> complete t ifc);
    }
  in
  Int_tbl.replace t.ifaces j ifc;
  Sched_intf.Packed.add_iface t.sched j;
  issue_requests t ifc

let add_transfer t ?(at = 0.0) ?total_bytes f ~weight ~allowed () =
  if Int_tbl.mem t.transfers f then invalid_arg "Proxy.add_transfer: duplicate";
  let x =
    {
      x_flow = f;
      weight;
      allowed;
      total = total_bytes;
      requested = 0;
      received = 0;
      queued_tokens = 0;
      stopped = false;
      done_at = None;
      ts = Timeseries.create ~bin:t.bin;
    }
  in
  Int_tbl.replace t.transfers f x;
  let register () =
    Sched_intf.Packed.add_flow t.sched ~flow:f ~weight ~allowed;
    refill_tokens t x;
    kick t allowed
  in
  if at <= now t then register () else Engine.schedule t.engine ~at register

let stop_transfer t ?at f =
  let x = transfer t f in
  let act () =
    x.stopped <- true;
    if Sched_intf.Packed.has_flow t.sched f then
      Sched_intf.Packed.remove_flow t.sched f
  in
  match at with
  | None -> act ()
  | Some time -> Engine.schedule t.engine ~at:time act

let run t ~until = Engine.run ~until t.engine

let goodput_series t f = Timeseries.rate_series ~unit_scale:1e6 (transfer t f).ts

let avg_goodput t f ~t0 ~t1 =
  Timeseries.rate_between ~unit_scale:1e6 (transfer t f).ts ~t0 ~t1

let received_bytes t f = (transfer t f).received

let completion_time t f = (transfer t f).done_at

let served_cell t ~flow ~iface = Counters.cell t.cells ~flow ~iface

type snapshot = { snap_time : float; snap_cells : Counters.t }

let snapshot t = { snap_time = now t; snap_cells = Counters.copy t.cells }

let share_since t snap ~flows ~ifaces =
  let dt = now t -. snap.snap_time in
  if not (dt > 0.0) then invalid_arg "Proxy.share_since: empty window";
  Array.of_list
    (List.map
       (fun f ->
         Array.of_list
           (List.map
              (fun j ->
                let d =
                  Counters.since t.cells snap.snap_cells ~flow:f ~iface:j
                in
                8.0 *. Float.of_int d /. dt)
              ifaces))
       flows)

let instance_of t ~flows ~ifaces =
  let weights = Array.of_list (List.map (fun f -> (transfer t f).weight) flows) in
  let capacities =
    Array.of_list
      (List.map
         (fun j ->
           match Int_tbl.find t.ifaces j with
           | ifc -> Link.rate_at ifc.profile (now t)
           | exception Not_found ->
               invalid_arg "Proxy.instance_of: unknown interface")
         ifaces)
  in
  let allowed =
    Array.of_list
      (List.map
         (fun f ->
           let x = transfer t f in
           Array.of_list
             (List.map (fun j -> List.exists (Int.equal j) x.allowed) ifaces))
         flows)
  in
  Midrr_flownet.Instance.make ~weights ~capacities ~allowed
