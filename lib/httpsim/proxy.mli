(** The in-client HTTP scheduling proxy of paper §5 (Figure 5), simulated.

    Inbound transfers are split into byte-range chunk requests
    ({!Chunk}); whenever an interface has a free pipeline slot the proxy
    asks the packet scheduler which flow's next chunk to request on it, so
    the scheduler's decision selects the interface over which the
    corresponding response data arrives.  Responses stream back serially per
    interface after a request round-trip latency; request pipelining keeps
    every interface busy (paper: "we can always have some pending requests
    on each interface").

    The granularity is deliberately coarse — whole chunks, not packets —
    reproducing the fidelity limits the paper observes for its HTTP
    prototype in Fig. 10. *)

open Midrr_core
module Link = Midrr_sim.Link

type t

val create :
  ?bin:float ->
  ?chunk_size:int ->
  ?pipeline_depth:int ->
  ?rtt:float ->
  ?sink:Midrr_obs.Sink.t ->
  ?metrics:Midrr_obs.Busmetrics.t ->
  sched:Sched_intf.packed ->
  unit ->
  t
(** [chunk_size] bytes per byte-range request (default 262144);
    [pipeline_depth] outstanding requests per interface (default 4);
    [rtt] request round-trip before response data flows (default 0.05 s);
    [bin] goodput measurement bin in seconds (default 1.0).  A
    {!Midrr_sim.Meter} does the accounting; [sink] sees the scheduler's
    events and a [Complete] per delivered chunk.

    [metrics] attaches a {!Midrr_obs.Busmetrics} fold to the event
    stream (teed after [sink]) and additionally maintains a
    platform-truth [iface<j>_outstanding] gauge per interface — the
    proxy's live pipeline fill, the "pending requests on each
    interface" signal of paper §5. *)

val engine : t -> Midrr_sim.Engine.t

val add_iface : t -> Types.iface_id -> Link.t -> unit
(** Raises [Invalid_argument] on a negative or registered id: interface
    ids index a slot array.  Checked before any state changes. *)

val add_transfer :
  t ->
  ?at:float ->
  ?total_bytes:int ->
  Types.flow_id ->
  weight:float ->
  allowed:Types.iface_id list ->
  unit ->
  unit
(** Start an inbound HTTP flow at time [at] (default 0).  Without
    [total_bytes] the transfer is endless (a long download).  Raises
    [Invalid_argument] on a negative id, at the call and before any
    state changes, not when the deferred registration runs. *)

val run : t -> until:float -> unit

(** {1 Measurement} *)

val goodput_series : t -> Types.flow_id -> (float * float) array
(** Per-bin goodput in Mb/s (chunk completions). *)

val avg_goodput : t -> Types.flow_id -> t0:float -> t1:float -> float

val received_bytes : t -> Types.flow_id -> int
[@@midrr.lint.allow "R9"] (* test_http reads the meter's counts with these *)

val completion_time : t -> Types.flow_id -> float option
(** When the received bytes reached [total_bytes]; [None] before, and
    always for an endless transfer. *)

val served_cell : t -> flow:Types.flow_id -> iface:Types.iface_id -> int
[@@midrr.lint.allow "R9"]
(** Bytes of the flow delivered through the interface. *)

type snapshot

val snapshot : t -> snapshot

val share_since :
  t -> snapshot -> flows:Types.flow_id list -> ifaces:Types.iface_id list ->
  float array array
(** Measured delivery-rate matrix [r_ij] (bits/s) since the snapshot. *)

val window :
  t -> t0:float -> t1:float -> judge:(Types.flow_id -> bool) ->
  (unit -> Midrr_sim.Meter.window)
(** {!Midrr_sim.Meter.window} over the proxy's interfaces. *)
