open Midrr_core
module Rng = Midrr_stats.Rng
module Timeseries = Midrr_stats.Timeseries
module Counters = Midrr_obs.Counters
module Metrics = Midrr_obs.Metrics
module Busmetrics = Midrr_obs.Busmetrics
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

type flow_info = {
  f_id : Types.flow_id;
  mutable weight : float;
  mutable allowed : Types.iface_id list;
  source : source;
  rng : Rng.t;
  mutable remaining : int; (* bytes not yet enqueued; -1 = unbounded *)
  mutable inflight : int; (* packets handed to interfaces, not yet done *)
  mutable stopped : bool;
  mutable done_at : float option;
  ts : Timeseries.t;
}

(* An interface transmits one packet at a time, so its completion event
   is built once, at [add_iface], and finds the packet in [sending]. *)
type iface_info = {
  i_id : Types.iface_id;
  profile : Link.t;
  mutable sending : Packet.t; (* [Packet.none] while idle *)
  mutable wake_pending : bool;
  i_ts : Timeseries.t; (* bytes carried, for utilization measurement *)
  i_busy_gauge : Metrics.gauge; (* -1 when no metrics attached *)
  transmitted : unit -> unit; (* the completion event *)
  wake : unit -> unit; (* the line-up event after an outage *)
}

type t = {
  engine : Engine.t;
  sched : Sched_intf.packed;
  master_rng : Rng.t;
  bin : float;
  window_depth : int;
  flows : flow_info Int_tbl.t;
  ifaces : iface_info Int_tbl.t;
  cells : Counters.t;
  sink : Midrr_obs.Sink.t option; (* effective: user sink + metrics fold *)
  ev : Midrr_obs.Event.record; (* refilled per [Complete] *)
  metrics : Busmetrics.t option;
  spans : Span.t option;
  sp_decide : int;
  sp_enqueue : int;
  sp_complete : int;
  mutable hooks : (time:float -> iface:Types.iface_id -> Packet.t -> unit) list;
}

let create ?(seed = 1) ?(bin = 1.0) ?(window_depth = 32) ?sink ?metrics ?spans
    ~sched () =
  if not (bin > 0.0) then invalid_arg "Netsim.create: bin <= 0";
  if window_depth <= 0 then invalid_arg "Netsim.create: window_depth <= 0";
  (* The user sink runs first in the tee so an attached metrics fold can
     never perturb what a trace consumer observes. *)
  let effective_sink =
    match (sink, metrics) with
    | None, None -> None
    | Some s, None -> Some s
    | None, Some m -> Some (Busmetrics.sink m)
    | Some s, Some m -> Some (Midrr_obs.Sink.tee s (Busmetrics.sink m))
  in
  let sp_decide, sp_enqueue, sp_complete =
    match spans with
    | None -> (-1, -1, -1)
    | Some sp ->
        (Span.phase sp "decide", Span.phase sp "enqueue", Span.phase sp "complete")
  in
  let t =
    {
      engine = Engine.create ();
      sched;
      master_rng = Rng.create ~seed;
      bin;
      window_depth;
      flows = Int_tbl.create 32;
      ifaces = Int_tbl.create 8;
      cells = Counters.create ();
      sink = effective_sink;
      ev = Midrr_obs.Event.create ();
      metrics;
      spans;
      sp_decide;
      sp_enqueue;
      sp_complete;
      hooks = [];
    }
  in
  (* Only an attached consumer (user sink or metrics fold) turns
     scheduler emission on: the internal service counters are fed
     directly from [complete], so sink-less runs pay nothing per
     decision. *)
  (match t.sink with
  | None -> ()
  | Some s ->
      Sched_intf.Packed.subscribe sched
        (Midrr_obs.Sink.stamp ~clock:(fun () -> Engine.now t.engine) s));
  t

let engine t = t.engine
let now t = Engine.now t.engine

let flow_info t f =
  match Int_tbl.find t.flows f with
  | fi -> fi
  | exception Not_found -> invalid_arg "Netsim: unknown flow"

(* --- queue replenishment ---------------------------------------------- *)

(* Platform-truth gauge: 1.0 while the interface is transmitting.  The
   stored values are float literals (static), so flipping the gauge on
   the decision path allocates nothing. *)
let set_busy t ifc v =
  match t.metrics with
  | None -> ()
  | Some m ->
      if ifc.i_busy_gauge >= 0 then
        Metrics.set_gauge (Busmetrics.registry m) ifc.i_busy_gauge v

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

let rec run_hooks hooks ~time ~iface pkt =
  match hooks with
  | [] -> ()
  | hook :: rest ->
      hook ~time ~iface pkt;
      run_hooks rest ~time ~iface pkt

(* Keep a window of packets queued for pull-style sources so the flow stays
   continuously backlogged without materializing the whole transfer. *)
let rec replenish t fi =
  if not fi.stopped then
    match fi.source with
    | Backlogged { pkt_size } ->
        if Sched_intf.Packed.backlog_packets t.sched fi.f_id < t.window_depth
        then begin
          let p =
            Packet.create ~flow:fi.f_id ~size:pkt_size ~arrival:(now t)
          in
          if enqueue_pkt t p then begin
            kick_allowed t fi.allowed;
            replenish t fi
          end
        end
    | Finite { pkt_size; _ } ->
        if
          fi.remaining > 0
          && Sched_intf.Packed.backlog_packets t.sched fi.f_id < t.window_depth
        then begin
          let size = Stdlib.min pkt_size fi.remaining in
          let p = Packet.create ~flow:fi.f_id ~size ~arrival:(now t) in
          if enqueue_pkt t p then begin
            fi.remaining <- fi.remaining - size;
            kick_allowed t fi.allowed;
            replenish t fi
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
          (match Int_tbl.find t.flows pkt.flow with
          | fi ->
              fi.inflight <- fi.inflight + 1;
              replenish t fi
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
  let time = now t in
  (match t.spans with
  | Some sp -> Span.enter sp t.sp_complete
  | None -> ());
  Counters.add t.cells ~flow:pkt.flow ~iface:ifc.i_id ~bytes:pkt.size;
  (match t.sink with
  | None -> ()
  | Some s ->
      Midrr_obs.Event.set_complete t.ev ~flow:pkt.flow ~iface:ifc.i_id
        ~bytes:pkt.size;
      s ~time t.ev);
  Timeseries.record ifc.i_ts ~time ~bytes:pkt.size;
  run_hooks t.hooks ~time ~iface:ifc.i_id pkt;
  (match Int_tbl.find t.flows pkt.flow with
  | fi -> (
      Timeseries.record fi.ts ~time ~bytes:pkt.size;
      fi.inflight <- fi.inflight - 1;
      replenish t fi;
      match fi.source with
      | Finite _
        when Int.equal fi.remaining 0 && Int.equal fi.inflight 0
             && not (Sched_intf.Packed.is_backlogged t.sched fi.f_id) ->
          if Option.is_none fi.done_at then fi.done_at <- Some time
      | _ -> ())
  | exception Not_found -> ());
  match t.spans with Some sp -> Span.exit sp t.sp_complete | None -> ()

and kick_allowed t = function
  | [] -> ()
  | j :: rest ->
      (match Int_tbl.find t.ifaces j with
      | ifc -> try_start t ifc
      | exception Not_found -> ());
      kick_allowed t rest

(* --- pushed sources ------------------------------------------------------ *)

(* Each pushed source builds its tick closure once, at start, and re-arms
   that same closure after every arrival. *)

let inject t fi size =
  if not fi.stopped then begin
    let p = Packet.create ~flow:fi.f_id ~size ~arrival:(now t) in
    ignore (enqueue_pkt t p);
    kick_allowed t fi.allowed
  end

let running t fi stop =
  let beyond = match stop with Some s -> now t >= s | None -> false in
  (not fi.stopped) && not beyond

let start_cbr t fi ~rate ~pkt_size ~stop =
  let rec tick () =
    if running t fi stop then begin
      inject t fi pkt_size;
      let gap = Types.tx_time ~bytes:pkt_size ~rate in
      Engine.schedule_in t.engine ~after:gap tick
    end
  in
  tick ()

let start_poisson t fi ~rate ~pkt_size ~stop =
  let rec tick () =
    if running t fi stop then begin
      inject t fi pkt_size;
      let mean_gap = Types.tx_time ~bytes:pkt_size ~rate in
      let gap = Rng.exponential fi.rng ~mean:mean_gap in
      Engine.schedule_in t.engine ~after:gap tick
    end
  in
  tick ()

(* Greedy token-bucket emitter: drain every packet the bucket can pay for,
   then sleep exactly until the next packet's worth of tokens accrues.  The
   resulting cumulative arrivals are tightly bounded by sigma + rho.t with
   sigma = burst bytes and rho = rate/8 bytes/s — the arrival curve the
   delay-bound harness assumes. *)
let start_tb t fi ~bucket ~pkt_size ~stop =
  let rec tick () =
    if running t fi stop then begin
      let time = now t in
      let continue_ = ref true in
      while !continue_ do
        if
          (not fi.stopped)
          && Tokenbucket.try_consume bucket ~now:time ~bytes:pkt_size
        then inject t fi pkt_size
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
let start_on_off t fi ~rate ~pkt_size ~on_mean ~off_mean ~stop =
  let until = ref 0.0 in
  let rec on () =
    if running t fi stop then begin
      until := now t +. Rng.exponential fi.rng ~mean:on_mean;
      send ()
    end
  and send () =
    if (not fi.stopped) && now t < !until then begin
      inject t fi pkt_size;
      Engine.schedule_in t.engine
        ~after:(Types.tx_time ~bytes:pkt_size ~rate)
        send
    end
    else begin
      let quiet = Rng.exponential fi.rng ~mean:off_mean in
      Engine.schedule_in t.engine ~after:quiet on
    end
  in
  on ()

(* --- topology management ------------------------------------------------ *)

let add_iface t j profile =
  if Int_tbl.mem t.ifaces j then invalid_arg "Netsim.add_iface: duplicate";
  let i_busy_gauge =
    match t.metrics with
    | None -> -1
    | Some m ->
        Metrics.gauge (Busmetrics.registry m) (Printf.sprintf "iface%d_busy" j)
  in
  let i_ts = Timeseries.create ~bin:t.bin in
  let rec ifc =
    {
      i_id = j;
      profile;
      sending = Packet.none;
      wake_pending = false;
      i_ts;
      i_busy_gauge;
      transmitted = (fun () -> transmitted t ifc);
      wake =
        (fun () ->
          ifc.wake_pending <- false;
          try_start t ifc);
    }
  in
  Int_tbl.replace t.ifaces j ifc;
  Sched_intf.Packed.add_iface t.sched j;
  (* If the run has started, wake the new interface immediately. *)
  try_start t ifc

let start_source t fi =
  replenish t fi;
  kick_allowed t fi.allowed;
  match fi.source with
  | Backlogged _ | Finite _ -> ()
  | Cbr { rate; pkt_size; stop } -> start_cbr t fi ~rate ~pkt_size ~stop
  | Poisson { rate; pkt_size; stop } -> start_poisson t fi ~rate ~pkt_size ~stop
  | On_off { rate; pkt_size; on_mean; off_mean; stop } ->
      start_on_off t fi ~rate ~pkt_size ~on_mean ~off_mean ~stop
  | Tb { rate; burst; pkt_size; stop } ->
      (* [rate] is bits/s like every other source spec; the bucket works in
         bytes.  Starting full gives the worst-case sigma-burst head start. *)
      let bucket = Tokenbucket.create ~rate:(rate /. 8.0) ~burst in
      start_tb t fi ~bucket ~pkt_size ~stop

let add_flow t ?(at = 0.0) f ~weight ~allowed source =
  if Int_tbl.mem t.flows f then invalid_arg "Netsim.add_flow: duplicate";
  let fi =
    {
      f_id = f;
      weight;
      allowed;
      source;
      rng = Rng.split t.master_rng;
      remaining =
        (match source with Finite { total_bytes; _ } -> total_bytes | _ -> -1);
      inflight = 0;
      stopped = false;
      done_at = None;
      ts = Timeseries.create ~bin:t.bin;
    }
  in
  Int_tbl.replace t.flows f fi;
  let register () =
    Sched_intf.Packed.add_flow t.sched ~flow:f ~weight ~allowed;
    start_source t fi
  in
  if at <= now t then register () else Engine.schedule t.engine ~at register

let remove_flow t ?at f =
  let fi = flow_info t f in
  let act () =
    fi.stopped <- true;
    if Sched_intf.Packed.has_flow t.sched f then
      Sched_intf.Packed.remove_flow t.sched f
  in
  match at with
  | None -> act ()
  | Some time -> Engine.schedule t.engine ~at:time act

let at t time f = Engine.schedule t.engine ~at:time f

let set_weight t f w =
  let fi = flow_info t f in
  Sched_intf.Packed.set_weight t.sched f w;
  fi.weight <- w

let set_allowed t f allowed =
  let fi = flow_info t f in
  Sched_intf.Packed.set_allowed t.sched f allowed;
  fi.allowed <- allowed;
  (* Newly allowed idle interfaces must be woken to notice the flow. *)
  kick_allowed t allowed

let on_complete t hook = t.hooks <- hook :: t.hooks

let run t ~until = Engine.run ~until t.engine

(* --- measurement --------------------------------------------------------- *)

let rate_series t f = Timeseries.rate_series ~unit_scale:1e6 (flow_info t f).ts

let avg_rate t f ~t0 ~t1 =
  Timeseries.rate_between ~unit_scale:1e6 (flow_info t f).ts ~t0 ~t1

let completion_time t f = (flow_info t f).done_at

let iface_info t j =
  match Int_tbl.find t.ifaces j with
  | i -> i
  | exception Not_found -> invalid_arg "Netsim: unknown interface"

let iface_rate_series t j =
  Timeseries.rate_series ~unit_scale:1e6 (iface_info t j).i_ts

let iface_utilization t j ~t0 ~t1 =
  let ifc = iface_info t j in
  let carried = Timeseries.rate_between ifc.i_ts ~t0 ~t1 in
  let offered = Link.average ifc.profile ~t0 ~t1 in
  if offered <= 0.0 then 0.0 else carried /. offered

let served_cell t ~flow ~iface = Counters.cell t.cells ~flow ~iface

type snapshot = { snap_time : float; snap_cells : Counters.t }

let snapshot t = { snap_time = now t; snap_cells = Counters.copy t.cells }

let share_since t snap ~flows ~ifaces =
  let dt = now t -. snap.snap_time in
  if not (dt > 0.0) then invalid_arg "Netsim.share_since: empty window";
  let matrix =
    List.map
      (fun f ->
        List.map
          (fun j ->
            let d = Counters.since t.cells snap.snap_cells ~flow:f ~iface:j in
            8.0 *. Float.of_int d /. dt)
          ifaces)
      flows
  in
  Array.of_list (List.map Array.of_list matrix)

let instance_of t ~flows ~ifaces =
  let weights =
    Array.of_list (List.map (fun f -> (flow_info t f).weight) flows)
  in
  let capacities =
    Array.of_list
      (List.map
         (fun j ->
           match Int_tbl.find t.ifaces j with
           | ifc -> Link.rate_at ifc.profile (now t)
           | exception Not_found ->
               invalid_arg "Netsim.instance_of: unknown interface")
         ifaces)
  in
  let allowed =
    Array.of_list
      (List.map
         (fun f ->
           let fi = flow_info t f in
           Array.of_list
             (List.map (fun j -> List.exists (Int.equal j) fi.allowed) ifaces))
         flows)
  in
  Midrr_flownet.Instance.make ~weights ~capacities ~allowed

let backlogged_flows t =
  Int_tbl.fold
    (fun f _ acc ->
      if
        Sched_intf.Packed.has_flow t.sched f
        && Sched_intf.Packed.is_backlogged t.sched f
      then f :: acc
      else acc)
    t.flows []
  |> List.sort Int.compare
