(** Common signature for multi-interface packet schedulers.

    All schedulers in this repository — miDRR, naive per-interface DRR,
    per-interface WFQ, round robin, the oracle, and every {!Sched_prog}
    program — expose this pull-based interface: the platform enqueues
    packets as they arrive and calls {!S.next_packet} whenever an
    interface is free to transmit.  The simulator, the bridge and the
    HTTP proxy are generic over it, which is how the evaluation compares
    algorithms under identical workloads. *)

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
    t ->
    flow:Types.flow_id ->
    weight:float ->
    allowed:Types.iface_id list ->
    unit
  (** Register a flow with its rate preference [weight] (> 0) and
      interface preference [allowed].  Interfaces not yet online may be
      listed; they take effect when they appear.  A scheduler that
      indexes its state by flow id (the DRR engines, every {!Sched_prog}
      program) rejects a negative id here with [Invalid_argument],
      before it changes any state; one that accepts it must then queue
      and serve the flow like any other. *)

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
  (** Offer a packet to its flow's queue; [false] when dropped (unknown
      flow or full queue). *)

  val next_packet : t -> Types.iface_id -> Packet.t option
  (** The scheduling decision: which packet should interface [j] send
      now?  [None] when no eligible backlogged flow exists.  Must never
      return a packet of a flow that is unwilling to use [j]. *)

  val backlog_bytes : t -> Types.flow_id -> int
  val backlog_packets : t -> Types.flow_id -> int
  val is_backlogged : t -> Types.flow_id -> bool

  val served_bytes : t -> Types.flow_id -> int
  (** Cumulative bytes handed out for this flow over all interfaces. *)

  val served_bytes_on : t -> flow:Types.flow_id -> iface:Types.iface_id -> int
  (** Cumulative bytes handed to interface [iface] for this flow. *)

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
(** A scheduler instance bundled with its implementation, for callers
    that select the algorithm at runtime. *)

(** Operations on packed schedulers, so generic code reads naturally. *)
module Packed : sig
  val name : packed -> string
  val add_iface : packed -> Types.iface_id -> unit
  val remove_iface : packed -> Types.iface_id -> unit
  val has_iface : packed -> Types.iface_id -> bool
  val ifaces : packed -> Types.iface_id list

  val add_flow :
    packed ->
    flow:Types.flow_id ->
    weight:float ->
    allowed:Types.iface_id list ->
    unit

  val remove_flow : packed -> Types.flow_id -> unit
  val has_flow : packed -> Types.flow_id -> bool
  val flows : packed -> Types.flow_id list
  val set_weight : packed -> Types.flow_id -> float -> unit
  val set_allowed : packed -> Types.flow_id -> Types.iface_id list -> unit
  val allowed_ifaces : packed -> Types.flow_id -> Types.iface_id list
  val enqueue : packed -> Packet.t -> bool
  val next_packet : packed -> Types.iface_id -> Packet.t option
  val backlog_bytes : packed -> Types.flow_id -> int
  val backlog_packets : packed -> Types.flow_id -> int
  val is_backlogged : packed -> Types.flow_id -> bool
  val served_bytes : packed -> Types.flow_id -> int

  val served_bytes_on :
    packed -> flow:Types.flow_id -> iface:Types.iface_id -> int

  val set_sink : packed -> Midrr_obs.Sink.raw option -> unit
  val sink : packed -> Midrr_obs.Sink.raw option

  val subscribe : packed -> Midrr_obs.Sink.raw -> unit
  (** Tee [emit] onto whatever sink is already installed, so several
      consumers (a platform's counters, a user tracer, a recorder) can
      share the stream without knowing about each other.

      Ordering guarantee: subscribers run in subscription order — the
      previously installed sink (or tee of sinks) is invoked first, the
      new [emit] last, synchronously, for every event.  A subscriber
      therefore observes scheduler state {e after} the operation that
      emitted the event, like every other sink, and cannot reorder or
      suppress events seen by earlier subscribers.  There is no
      unsubscribe: clearing via {!set_sink} drops the whole tee. *)
end
