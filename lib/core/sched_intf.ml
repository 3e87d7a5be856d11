(** Common signature for multi-interface packet schedulers.

    All schedulers in this repository — miDRR, naive per-interface DRR,
    per-interface WFQ, and round robin — expose this pull-based interface:
    the platform enqueues packets as they arrive and calls {!S.next_packet}
    whenever an interface is free to transmit.  The simulator, the bridge
    and the HTTP proxy are generic over it, which is how the evaluation
    compares algorithms under identical workloads. *)

module type S = sig
  type t

  val name : t -> string
  (** Human-readable algorithm name (used in experiment reports). *)

  val add_iface : t -> Types.iface_id -> unit
  (** Bring an interface online.  Raises [Invalid_argument] on duplicates. *)

  val remove_iface : t -> Types.iface_id -> unit
  (** Take an interface offline.  Queued packets stay with their flows. *)

  val has_iface : t -> Types.iface_id -> bool

  val ifaces : t -> Types.iface_id list
  (** Online interfaces, ascending. *)

  val add_flow :
    t -> flow:Types.flow_id -> weight:float -> allowed:Types.iface_id list -> unit
  (** Register a flow with its rate preference [weight] (> 0) and interface
      preference [allowed].  Interfaces not yet online may be listed; they
      take effect when they appear. *)

  val remove_flow : t -> Types.flow_id -> unit
  (** Deregister a flow, dropping its queue. *)

  val has_flow : t -> Types.flow_id -> bool

  val flows : t -> Types.flow_id list

  val set_weight : t -> Types.flow_id -> float -> unit

  val set_allowed : t -> Types.flow_id -> Types.iface_id list -> unit
  (** Replace a flow's interface preference at runtime. *)

  val allowed_ifaces : t -> Types.flow_id -> Types.iface_id list
  (** The flow's current interface preference, ascending. *)

  val enqueue : t -> Packet.t -> bool
  (** Offer a packet to its flow's queue; [false] when dropped (unknown flow
      or full queue). *)

  val next_packet : t -> Types.iface_id -> Packet.t option
  (** The scheduling decision: which packet should interface [j] send now?
      [None] when no eligible backlogged flow exists.  Must never return a
      packet of a flow that is unwilling to use [j]. *)

  val backlog_bytes : t -> Types.flow_id -> int

  val backlog_packets : t -> Types.flow_id -> int

  val is_backlogged : t -> Types.flow_id -> bool

  val served_bytes : t -> Types.flow_id -> int
  (** Cumulative bytes handed out for this flow over all interfaces. *)

  val served_bytes_on : t -> flow:Types.flow_id -> iface:Types.iface_id -> int
  (** Cumulative bytes handed to interface [j] for this flow. *)

  val set_sink : t -> Midrr_obs.Sink.raw option -> unit
  (** Install (or clear) the scheduler's event sink.  Schedulers have no
      clock, so the sink is untimed — platforms stamp events with their
      own clock (see {!Midrr_obs.Sink.stamp}).  With no sink installed,
      emission must cost nothing beyond one field check per decision;
      with one installed, the scheduler refills its own
      {!Midrr_obs.Event.record} per event and allocates nothing. *)

  val sink : t -> Midrr_obs.Sink.raw option
  (** The currently installed sink, if any. *)
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed
(** A scheduler instance bundled with its implementation, for callers that
    select the algorithm at runtime. *)

(** Operations on packed schedulers, so generic code reads naturally. *)
module Packed = struct
  let name (Packed ((module M), t)) = M.name t
  let add_iface (Packed ((module M), t)) j = M.add_iface t j
  let remove_iface (Packed ((module M), t)) j = M.remove_iface t j
  let has_iface (Packed ((module M), t)) j = M.has_iface t j
  let ifaces (Packed ((module M), t)) = M.ifaces t

  let add_flow (Packed ((module M), t)) ~flow ~weight ~allowed =
    M.add_flow t ~flow ~weight ~allowed

  let remove_flow (Packed ((module M), t)) f = M.remove_flow t f
  let has_flow (Packed ((module M), t)) f = M.has_flow t f
  let flows (Packed ((module M), t)) = M.flows t
  let set_weight (Packed ((module M), t)) f w = M.set_weight t f w
  let set_allowed (Packed ((module M), t)) f ifs = M.set_allowed t f ifs
  let allowed_ifaces (Packed ((module M), t)) f = M.allowed_ifaces t f
  let enqueue (Packed ((module M), t)) p = M.enqueue t p
  let next_packet (Packed ((module M), t)) j = M.next_packet t j
  let backlog_bytes (Packed ((module M), t)) f = M.backlog_bytes t f
  let backlog_packets (Packed ((module M), t)) f = M.backlog_packets t f
  let is_backlogged (Packed ((module M), t)) f = M.is_backlogged t f
  let served_bytes (Packed ((module M), t)) f = M.served_bytes t f

  let served_bytes_on (Packed ((module M), t)) ~flow ~iface =
    M.served_bytes_on t ~flow ~iface

  let set_sink (Packed ((module M), t)) s = M.set_sink t s
  let sink (Packed ((module M), t)) = M.sink t

  let subscribe p emit =
    (* Tee onto whatever is already installed, so several consumers
       (e.g. a platform's counters and a user tracer) can share the
       stream without knowing about each other. *)
    match sink p with
    | None -> set_sink p (Some emit)
    | Some prev ->
        set_sink p
          (Some
             (fun ev ->
               prev ev;
               emit ev))
end
