open Midrr_core
module Rng = Midrr_stats.Rng
module Timeseries = Midrr_stats.Timeseries
module Span = Midrr_obs.Span

type source =
  | Backlogged of { pkt_size : int }
  | Finite of { total_bytes : int; pkt_size : int }
  | Cbr of { rate : float; pkt_size : int; stop : float option }
  | Poisson of { rate : float; pkt_size : int; stop : float option }
  | On_off of {
      rate : float;
      pkt_size : int;
      on_mean : float;
      off_mean : float;
      stop : float option;
    }
  | Tb of { rate : float; burst : float; pkt_size : int; stop : float option }

(* A flow's datapath state, carried by its {!Meter} flow.  [queued]
   counts the flow's packets inside the scheduler: +1 per accepted
   enqueue, -1 per packet [try_start] hands out.  It equals the
   scheduler's backlog, because a scheduler loses packets only through
   [next_packet], a rejected enqueue or [remove_flow], after which the
   source is stopped. *)
type src = {
  source : source;
  rng : Rng.t;
  mutable remaining : int; (* bytes not yet enqueued; -1 = unbounded *)
  mutable queued : int;
  mutable stopped : bool;
}

(* An interface transmits one packet at a time, so its completion event
   is built once, at [add_iface], and finds the packet in [sending]. *)
type iface_info = {
  i_id : Types.iface_id;
  profile : Link.t;
  mutable sending : Packet.t; (* [Packet.none] while idle *)
  mutable wake_pending : bool;
  i_ts : Timeseries.t; (* bytes carried, for utilization measurement *)
  i_busy_gauge : Midrr_obs.Metrics.gauge; (* -1 without metrics *)
  transmitted : unit -> unit; (* the completion event *)
  wake : unit -> unit; (* the line-up event after an outage *)
}

type t = {
  engine : Engine.t;
  sched : Sched_intf.packed;
  master_rng : Rng.t;
  bin : float;
  meter : src Meter.t;
  ifaces : iface_info Int_tbl.Slots.t;
  spans : Span.t option;
  sp_decide : int;
  sp_enqueue : int;
  sp_complete : int;
}

(* Packets kept queued for backlogged and finite sources. *)
let window_depth = 32

let create ?(seed = 1) ?(bin = 1.0) ?sink ?metrics ?spans ~sched () =
  let engine = Engine.create () in
  let sp_decide, sp_enqueue, sp_complete =
    match spans with
    | None -> (-1, -1, -1)
    | Some sp ->
        (Span.phase sp "decide", Span.phase sp "enqueue", Span.phase sp "complete")
  in
  {
    engine;
    sched;
    master_rng = Rng.create ~seed;
    bin;
    meter = Meter.create ~bin ?sink ?metrics engine sched;
    ifaces = Int_tbl.Slots.create ();
    spans;
    sp_decide;
    sp_enqueue;
    sp_complete;
  }

let engine t = t.engine
let now t = Engine.now t.engine

(* --- queue replenishment ---------------------------------------------- *)

(* Platform-truth gauge: 1.0 while the interface is transmitting.  The
   stored values are float literals (static), so flipping the gauge on
   the decision path allocates nothing. *)
let set_busy t ifc v = Meter.set_gauge t.meter ifc.i_busy_gauge v

(* All scheduler enqueues funnel through here so span tracing sees one
   "enqueue" phase regardless of the source kind. *)
let enqueue_pkt t p =
  match t.spans with
  | None -> Sched_intf.Packed.enqueue t.sched p
  | Some sp ->
      Span.enter sp t.sp_enqueue;
      let accepted = Sched_intf.Packed.enqueue t.sched p in
      Span.exit sp t.sp_enqueue;
      accepted

(* Keep a window of packets queued for pull-style sources so the flow stays
   continuously backlogged without materializing the whole transfer.  A
   kick can start an interface that dequeues from this same flow, so the
   window is re-checked after each one. *)
let rec replenish t fl =
  let d = Meter.data fl and f = Meter.id fl in
  if (not d.stopped) && d.queued < window_depth then
    match d.source with
    | Backlogged { pkt_size } ->
        let p = Packet.create ~flow:f ~size:pkt_size ~arrival:(now t) in
        if enqueue_pkt t p then begin
          d.queued <- d.queued + 1;
          kick_allowed t (Meter.allowed fl);
          replenish t fl
        end
    | Finite { pkt_size; _ } ->
        if d.remaining > 0 then begin
          let size = Stdlib.min pkt_size d.remaining in
          let p = Packet.create ~flow:f ~size ~arrival:(now t) in
          if enqueue_pkt t p then begin
            d.queued <- d.queued + 1;
            d.remaining <- d.remaining - size;
            kick_allowed t (Meter.allowed fl);
            replenish t fl
          end
        end
    | Cbr _ | Poisson _ | On_off _ | Tb _ -> ()

(* --- transmission loop -------------------------------------------------- *)

and try_start t ifc =
  if Packet.is_none ifc.sending then begin
    let time = now t in
    let rate = Link.rate_at ifc.profile time in
    if rate <= 0.0 then begin
      (* Line is down: sleep until the profile brings it back. *)
      if not ifc.wake_pending then
        match Link.next_change ifc.profile time with
        | None -> ()
        | Some at ->
            ifc.wake_pending <- true;
            Engine.schedule t.engine ~at ifc.wake
    end
    else begin
      (match t.spans with
      | Some sp -> Span.enter sp t.sp_decide
      | None -> ());
      let next = Sched_intf.Packed.next_packet t.sched ifc.i_id in
      (match t.spans with
      | Some sp -> Span.exit sp t.sp_decide
      | None -> ());
      match next with
      | None -> ()
      | Some pkt ->
          ifc.sending <- pkt;
          set_busy t ifc 1.0;
          (match Meter.find t.meter pkt.flow with
          | fl ->
              let d = Meter.data fl in
              d.queued <- d.queued - 1;
              replenish t fl
          | exception Not_found -> ());
          let dt = Types.tx_time ~bytes:pkt.size ~rate in
          Engine.schedule_in t.engine ~after:dt ifc.transmitted
    end
  end

(* The body of [ifc.transmitted]. *)
and transmitted t ifc =
  let pkt = ifc.sending in
  ifc.sending <- Packet.none;
  set_busy t ifc 0.0;
  complete t ifc pkt;
  try_start t ifc

and complete t ifc (pkt : Packet.t) =
  (match t.spans with
  | Some sp -> Span.enter sp t.sp_complete
  | None -> ());
  Timeseries.record ifc.i_ts ~time:(now t) ~bytes:pkt.size;
  (match Meter.find t.meter pkt.flow with
  | fl ->
      Meter.deliver t.meter fl ~iface:ifc.i_id ~bytes:pkt.size;
      replenish t fl
  | exception Not_found -> ());
  match t.spans with Some sp -> Span.exit sp t.sp_complete | None -> ()

and kick_allowed t = function
  | [] -> ()
  | j :: rest ->
      (match Int_tbl.Slots.find t.ifaces j with
      | Some ifc -> try_start t ifc
      | None -> ());
      kick_allowed t rest

(* --- pushed sources ------------------------------------------------------ *)

(* Each pushed source builds its tick closure once, at start, and re-arms
   that same closure after every arrival; its constant packet time is
   computed there too, so a tick boxes no float for it. *)

let inject t fl size =
  let d = Meter.data fl in
  if not d.stopped then begin
    let p = Packet.create ~flow:(Meter.id fl) ~size ~arrival:(now t) in
    if enqueue_pkt t p then d.queued <- d.queued + 1;
    kick_allowed t (Meter.allowed fl)
  end

let running t fl stop =
  let beyond = match stop with Some s -> now t >= s | None -> false in
  (not (Meter.data fl).stopped) && not beyond

let start_cbr t fl ~rate ~pkt_size ~stop =
  let gap = Types.tx_time ~bytes:pkt_size ~rate in
  let rec tick () =
    if running t fl stop then begin
      inject t fl pkt_size;
      Engine.schedule_in t.engine ~after:gap tick
    end
  in
  tick ()

let start_poisson t fl ~rate ~pkt_size ~stop =
  let rng = (Meter.data fl).rng in
  let mean_gap = Types.tx_time ~bytes:pkt_size ~rate in
  let rec tick () =
    if running t fl stop then begin
      inject t fl pkt_size;
      let gap = Rng.exponential rng ~mean:mean_gap in
      Engine.schedule_in t.engine ~after:gap tick
    end
  in
  tick ()

(* Greedy token-bucket emitter: drain every packet the bucket can pay for,
   then sleep exactly until the next packet's worth of tokens accrues.  The
   resulting cumulative arrivals are tightly bounded by sigma + rho.t with
   sigma = burst bytes and rho = rate/8 bytes/s — the arrival curve the
   delay-bound harness assumes. *)
let start_tb t fl ~bucket ~pkt_size ~stop =
  let rec tick () =
    if running t fl stop then begin
      let time = now t in
      let continue_ = ref true in
      while !continue_ do
        if
          (not (Meter.data fl).stopped)
          && Tokenbucket.try_consume bucket ~now:time ~bytes:pkt_size
        then inject t fl pkt_size
        else continue_ := false
      done;
      let wait = Tokenbucket.time_until bucket ~now:time ~bytes:pkt_size in
      (* [wait] is infinite only when pkt_size exceeds the burst; the
         scenario parser rejects that, but guard anyway rather than loop
         forever. *)
      if Float.is_finite wait then
        Engine.schedule_in t.engine ~after:(Float.max wait 1e-9) tick
    end
  in
  tick ()

(* Alternating exponential on- and off-periods, sending at [rate] while
   on; [until] is the end of the current on-period. *)
let start_on_off t fl ~rate ~pkt_size ~on_mean ~off_mean ~stop =
  let rng = (Meter.data fl).rng in
  let gap = Types.tx_time ~bytes:pkt_size ~rate in
  let until = ref 0.0 in
  let rec on () =
    if running t fl stop then begin
      until := now t +. Rng.exponential rng ~mean:on_mean;
      send ()
    end
  and send () =
    if (not (Meter.data fl).stopped) && now t < !until then begin
      inject t fl pkt_size;
      Engine.schedule_in t.engine ~after:gap send
    end
    else begin
      let quiet = Rng.exponential rng ~mean:off_mean in
      Engine.schedule_in t.engine ~after:quiet on
    end
  in
  on ()

(* --- topology management ------------------------------------------------ *)

let add_iface t j profile =
  if j < 0 then invalid_arg "Netsim.add_iface: negative interface id";
  if Option.is_some (Int_tbl.Slots.find t.ifaces j) then
    invalid_arg "Netsim.add_iface: duplicate";
  let i_ts = Timeseries.create ~bin:t.bin in
  let rec ifc =
    {
      i_id = j;
      profile;
      sending = Packet.none;
      wake_pending = false;
      i_ts;
      i_busy_gauge = Meter.gauge t.meter j "busy";
      transmitted = (fun () -> transmitted t ifc);
      wake =
        (fun () ->
          ifc.wake_pending <- false;
          try_start t ifc);
    }
  in
  Int_tbl.Slots.set t.ifaces j ifc;
  Sched_intf.Packed.add_iface t.sched j;
  (* If the run has started, wake the new interface immediately. *)
  try_start t ifc

let start_source t fl =
  replenish t fl;
  kick_allowed t (Meter.allowed fl);
  match (Meter.data fl).source with
  | Backlogged _ | Finite _ -> ()
  | Cbr { rate; pkt_size; stop } -> start_cbr t fl ~rate ~pkt_size ~stop
  | Poisson { rate; pkt_size; stop } -> start_poisson t fl ~rate ~pkt_size ~stop
  | On_off { rate; pkt_size; on_mean; off_mean; stop } ->
      start_on_off t fl ~rate ~pkt_size ~on_mean ~off_mean ~stop
  | Tb { rate; burst; pkt_size; stop } ->
      (* [rate] is bits/s like every other source spec; the bucket works in
         bytes.  Starting full gives the worst-case sigma-burst head start. *)
      let bucket = Tokenbucket.create ~rate:(rate /. 8.0) ~burst in
      start_tb t fl ~bucket ~pkt_size ~stop

let add_flow t ?(at = 0.0) f ~weight ~allowed source =
  if f < 0 then invalid_arg "Netsim.add_flow: negative flow id";
  let size, remaining =
    match source with
    | Finite { total_bytes; _ } -> (Some total_bytes, total_bytes)
    | _ -> (None, -1)
  in
  let fl =
    Meter.add_flow t.meter f ~weight ~allowed ?size
      {
        source;
        rng = Rng.split t.master_rng;
        remaining;
        queued = 0;
        stopped = false;
      }
  in
  let register () =
    Sched_intf.Packed.add_flow t.sched ~flow:f ~weight ~allowed;
    start_source t fl
  in
  if at <= now t then register () else Engine.schedule t.engine ~at register

let remove_flow t ?at f =
  let d = Meter.data (Meter.flow t.meter f) in
  let act () =
    d.stopped <- true;
    if Sched_intf.Packed.has_flow t.sched f then
      Sched_intf.Packed.remove_flow t.sched f
  in
  match at with
  | None -> act ()
  | Some time -> Engine.schedule t.engine ~at:time act

let at t time f = Engine.schedule t.engine ~at:time f

let set_weight t f w =
  let fl = Meter.flow t.meter f in
  Sched_intf.Packed.set_weight t.sched f w;
  Meter.set_weight fl w

let set_allowed t f allowed =
  let fl = Meter.flow t.meter f in
  Sched_intf.Packed.set_allowed t.sched f allowed;
  Meter.set_allowed fl allowed;
  (* Newly allowed idle interfaces must be woken to notice the flow. *)
  kick_allowed t allowed

let run t ~until = Engine.run ~until t.engine

(* --- measurement --------------------------------------------------------- *)

let rate_series t f = Meter.rate_series t.meter f
let avg_rate t f ~t0 ~t1 = Meter.avg_rate t.meter f ~t0 ~t1
let completion_time t f = Meter.completion_time t.meter f

let iface_info t j =
  match Int_tbl.Slots.find t.ifaces j with
  | Some i -> i
  | None -> invalid_arg "Netsim: unknown interface"

let iface_utilization t j ~t0 ~t1 =
  let ifc = iface_info t j in
  let carried = Timeseries.rate_between ifc.i_ts ~t0 ~t1 in
  let offered = Link.average ifc.profile ~t0 ~t1 in
  if offered <= 0.0 then 0.0 else carried /. offered

let served_cell t ~flow ~iface = Meter.served_cell t.meter ~flow ~iface

let window t ~t0 ~t1 ~judge =
  let links f = Int_tbl.Slots.iter (fun j ifc -> f j ifc.profile) t.ifaces in
  Meter.window t.meter ~links ~t0 ~t1 ~judge
