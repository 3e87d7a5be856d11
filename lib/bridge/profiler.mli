(** Scheduling-overhead profiler (paper §6.3 / Figure 9).

    Reproduces the paper's methodology: present the bridge with ~1,000
    packets spread and queued across the flows of [n] interfaces, then
    record the wall-clock time of each scheduling decision with a
    monotonic nanosecond clock.  The paper reports the CDF per interface
    count (4–16) and observes decisions stay under a few microseconds. *)

type target =
  | Decision  (** time [next_packet] alone: the scheduling decision *)
  | Transmit  (** time the full bridge datapath, including header rewrite *)

type result = {
  n_ifaces : int;
  n_flows : int;
  target : target;
  samples_ns : float array;  (** one per timed decision *)
}

val run :
  ?n_flows:int ->
  ?queued_packets:int ->
  ?decisions:int ->
  ?pkt_size:int ->
  ?seed:int ->
  ?target:target ->
  ?sink:Midrr_obs.Sink.raw ->
  n_ifaces:int ->
  unit ->
  result
(** Build a miDRR instance with [n_ifaces] interfaces and [n_flows]
    (default 32) flows willing to use every interface, keep
    [queued_packets] (default 1000) packets queued across them, and time
    [decisions] (default 20000) scheduling decisions round-robining over
    the interfaces.  Queues are topped up between timed sections.

    [sink], when given, is installed on the scheduler before the timed
    loop, so the measured per-decision cost {e includes} event emission —
    the knob behind the bench harness's observability-overhead numbers. *)

val cdf : result -> Midrr_stats.Cdf.t
(** Empirical CDF of the per-decision time in nanoseconds. *)

val summary : result -> Midrr_stats.Summary.t

val supported_rate_gbps : result -> pkt_size:int -> float
(** The paper's closing conversion: with median decision cost [d] and
    packets of [pkt_size] bytes, the scheduler sustains
    [pkt_size * 8 / d] bits/s. *)
