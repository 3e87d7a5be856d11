(** Delivery accounting for the platforms that drive a scheduler: the
    simulator ({!Netsim}) and the HTTP proxy.

    Both platforms measure a run the way the paper does (§5, §6.1): the
    per-(flow, interface) rates [r_ij] they deliver, next to the
    water-filling reference.  A meter holds the platform's one flow
    table: each flow's registered weight and preference row, its
    delivered-bytes series and per-interface byte cells, and the
    platform's datapath state ['a].  The platform reports every
    completed transmission with {!deliver}. *)

open Midrr_core

type 'a t
type 'a flow

val create :
  bin:float ->
  ?sink:Midrr_obs.Sink.t ->
  ?metrics:Midrr_obs.Busmetrics.t ->
  Engine.t ->
  Sched_intf.packed ->
  'a t
(** [bin] is the width of the delivered-bytes bins in seconds.  [sink]
    and then the [metrics] fold receive the scheduler's events and a
    [Complete] per delivery, stamped with the engine's clock.  Without
    either, nothing is subscribed and no event is built. *)

val add_flow :
  'a t ->
  Types.flow_id ->
  weight:float ->
  allowed:Types.iface_id list ->
  ?size:int ->
  'a ->
  'a flow
(** Register a flow that completes once [size] bytes are delivered
    (default: never).  Raises [Invalid_argument] on a registered or
    negative id. *)

val find : 'a t -> Types.flow_id -> 'a flow
(** The datapath's lookup: one bounds-checked load from a slot array
    indexed by flow id, which grows to the largest id registered.
    Raises [Not_found]. *)

val flow : 'a t -> Types.flow_id -> 'a flow
(** Raises [Invalid_argument] for an unregistered id. *)

val id : 'a flow -> Types.flow_id
val allowed : 'a flow -> Types.iface_id list
val size : 'a flow -> int
(** [max_int] for a flow that never completes. *)

val data : 'a flow -> 'a
val set_weight : 'a flow -> float -> unit
val set_allowed : 'a flow -> Types.iface_id list -> unit

val deliver : 'a t -> 'a flow -> iface:Types.iface_id -> bytes:int -> unit
(** [bytes] of the flow arrived through [iface] now: emit [Complete],
    credit the series and the cell, and record the completion time when
    the delivered bytes reach [size]. *)

val gauge : 'a t -> Types.iface_id -> string -> Midrr_obs.Metrics.gauge
(** [gauge t j name] registers the platform gauge [iface<j>_<name>]
    with the fold's registry; [-1] without [metrics]. *)

val set_gauge : 'a t -> Midrr_obs.Metrics.gauge -> float -> unit
(** No-op without [metrics].  A computed float is boxed to cross the
    call, so guard such a call with [g >= 0]. *)

(** {1 Measurement} *)

val rate_series : 'a t -> Types.flow_id -> (float * float) array
(** Per-bin delivered throughput in Mb/s. *)

val avg_rate : 'a t -> Types.flow_id -> t0:float -> t1:float -> float
(** Mean delivered throughput over a window, Mb/s. *)

val delivered : 'a t -> Types.flow_id -> int
val completion_time : 'a t -> Types.flow_id -> float option

val served_cell : 'a t -> flow:Types.flow_id -> iface:Types.iface_id -> int
(** Bytes of the flow delivered through the interface (0 if unknown). *)

type snapshot

val snapshot : 'a t -> snapshot

val share_since :
  'a t -> snapshot -> flows:Types.flow_id list -> ifaces:Types.iface_id list ->
  float array array
(** The rate matrix [r_ij] in bits/s since the snapshot, ordered by the
    given lists.  Requires time to have advanced. *)

(** {1 Judged windows: Theorem 2's judge around a measurement window} *)

type window = {
  t0 : float;
  t1 : float;
  flows : Types.flow_id list;
      (** the judged flows, ascending: row [i] of [share], flow [i] of
          [instance] and of the clusters *)
  ifaces : Types.iface_id list;
      (** the platform's interfaces at [t1], ascending: column [j] *)
  share : float array array;  (** [r_ij] over the window, bits/s *)
  rates : float array;  (** each judged flow's total, bits/s *)
  instance : Midrr_flownet.Instance.t;
      (** the judged flows' weights and preferences at [t1], on each
          interface's line rate at [t1] less the bytes that the other
          flows carried through it during the window (at least 0) *)
  reference : Midrr_flownet.Maxmin.allocation;  (** [Maxmin.solve instance] *)
  clusters : Midrr_flownet.Cluster.t list;
      (** [Cluster.decompose instance ~share ~rates] *)
  violations : Midrr_flownet.Cluster.violation list;
      (** [Cluster.check ~tol:0.03 instance ~share ~rates]: 3% absorbs
          packetized service's wobble around the fluid rates.  Call
          [Cluster.check] on the fields for another tolerance. *)
}

val window :
  'a t ->
  links:((Types.iface_id -> Link.t -> unit) -> unit) ->
  t0:float ->
  t1:float ->
  judge:(Types.flow_id -> bool) ->
  (unit -> window)
(** [window t ~links ~t0 ~t1 ~judge] plants the window [[t0, t1]] on the
    engine and returns its result, which raises [Invalid_argument] until
    the run has passed [t1].  At [t1] it judges every registered flow
    for which [judge] holds;
    every other flow, removed ones included, counts against the
    capacity.  [links f] calls [f j profile] on each of the platform's
    interfaces, ascending by id.  Requires [now <= t0 < t1]. *)

val cluster_lines : name:(Types.flow_id -> string) -> window -> string list
(** One line per cluster in Fig. 8's format,
    [cluster K: flows={a,b} ifaces={if1,if2} norm-rate=R Mb/s]. *)
