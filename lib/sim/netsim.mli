(** Network simulation: schedulers driving simulated interfaces.

    Wires a {!Midrr_core.Sched_intf.packed} scheduler to a set of simulated
    interfaces with {!Link} capacity profiles and per-flow traffic sources,
    runs the discrete-event loop, and measures per-flow rates and
    per-(flow, interface) service through a {!Meter} — everything needed
    to regenerate the paper's simulation figures.

    Model: when an interface is free it asks the scheduler for the next
    packet and transmits it for [size * 8 / rate] seconds at the line rate
    in effect when transmission starts.  Sources keep flow queues stocked
    ([Backlogged], [Finite]) or inject packets on their own clock ([Cbr],
    [Poisson], [On_off], [Tb]). *)

open Midrr_core

type source =
  | Backlogged of { pkt_size : int }
      (** never runs dry: the queue is topped up as it drains *)
  | Finite of { total_bytes : int; pkt_size : int }
      (** a transfer of [total_bytes]; completion time is recorded *)
  | Cbr of { rate : float; pkt_size : int; stop : float option }
      (** constant bit rate arrivals from the flow's start until [stop] *)
  | Poisson of { rate : float; pkt_size : int; stop : float option }
      (** Poisson arrivals with mean load [rate] bits/s *)
  | On_off of {
      rate : float;  (** rate while on, bits/s *)
      pkt_size : int;
      on_mean : float;  (** mean on-period, seconds (exponential) *)
      off_mean : float;
      stop : float option;
    }
  | Tb of { rate : float; burst : float; pkt_size : int; stop : float option }
      (** greedy arrivals through a {!Midrr_core.Tokenbucket} of [burst]
          bytes filling at [rate] bits/s: the source sends whenever the
          bucket can pay for a packet, so cumulative arrivals are tightly
          token-bucket constrained — the shape the delay-bound harness
          ({!Midrr_netcalc}) assumes.  Requires [burst >= pkt_size]. *)

type t

val create :
  ?seed:int ->
  ?bin:float ->
  ?sink:Midrr_obs.Sink.t ->
  ?metrics:Midrr_obs.Busmetrics.t ->
  ?spans:Midrr_obs.Span.t ->
  sched:Sched_intf.packed ->
  unit ->
  t
(** [bin] is the width of rate-measurement bins in seconds (default 1.0);
    [seed] drives stochastic sources (default 1).  Backlogged and finite
    sources keep 32 packets queued.  The simulator counts that window
    itself, +1 per accepted enqueue and -1 per packet handed out, and
    never asks the scheduler for its backlog: the count equals
    {!Sched_intf.Packed.backlog_packets} because a scheduler loses
    packets only through [next_packet], a rejected enqueue or
    [remove_flow], after which the source is stopped.

    Flow and interface ids index slot arrays, so they must be
    non-negative: {!add_iface} and {!add_flow} reject a negative id
    with [Invalid_argument] before any state changes.

    [sink] subscribes to the run's full event stream, stamped with
    simulation time: the scheduler's decision events plus a [Complete]
    event per delivered packet (see {!Meter.create}).

    [metrics] attaches a {!Midrr_obs.Busmetrics} fold to the same
    stream, teed {e after} the user sink so traces are unaffected, and
    additionally maintains a platform-truth [iface<j>_busy] gauge per
    interface (1.0 while transmitting).  [spans] brackets the
    scheduler-facing phases — "decide" ({!Sched_intf.Packed.next_packet}),
    "enqueue", "complete" — with sampled timestamps for Chrome-trace
    export.  Without any of the three, no scheduler emission is enabled
    at all and the decision path stays allocation-free. *)

val engine : t -> Engine.t

val add_iface : t -> Types.iface_id -> Link.t -> unit
(** Attach an interface with its capacity profile.  May be called mid-run
    inside an {!at} hook ("a new interface comes online").  Raises
    [Invalid_argument] on a negative or registered id. *)

val add_flow :
  t ->
  ?at:float ->
  Types.flow_id ->
  weight:float ->
  allowed:Types.iface_id list ->
  source ->
  unit
(** Register a flow and start its source at time [at] (default 0).
    Raises [Invalid_argument] on a negative id, at the call, not when
    the deferred registration runs. *)

val remove_flow : t -> ?at:float -> Types.flow_id -> unit
(** Stop the source and deregister the flow at time [at] (default: now). *)

val at : t -> float -> (unit -> unit) -> unit
(** Schedule an arbitrary scenario action (e.g. changing weights through
    the scheduler handle). *)

val set_weight : t -> Types.flow_id -> float -> unit
(** Change a flow's rate preference in the scheduler and the simulator's
    bookkeeping.  Call from an {!at} hook for timed changes. *)

val set_allowed : t -> Types.flow_id -> Types.iface_id list -> unit
(** Change a flow's interface preference, waking newly allowed
    interfaces. *)

val run : t -> until:float -> unit
(** Advance the simulation to the given time. *)

(** {1 Measurement} *)

val rate_series : t -> Types.flow_id -> (float * float) array
(** Per-bin throughput of the flow in Mb/s, from completion events. *)

val avg_rate : t -> Types.flow_id -> t0:float -> t1:float -> float
(** Mean throughput over a window, Mb/s. *)

val completion_time : t -> Types.flow_id -> float option
(** When a [Finite] transfer delivered its last byte; [None] while bytes
    are missing, so always for a flow removed before it finished. *)

val iface_utilization : t -> Types.iface_id -> t0:float -> t1:float -> float
(** Fraction of the interface's offered capacity actually carried over the
    window (1.0 = fully utilized); 0 when the link offered nothing. *)

val served_cell : t -> flow:Types.flow_id -> iface:Types.iface_id -> int
(** Cumulative bytes of the flow carried by the interface. *)

val window :
  t -> t0:float -> t1:float -> judge:(Types.flow_id -> bool) ->
  (unit -> Meter.window)
(** {!Meter.window} over the simulator's interfaces. *)
