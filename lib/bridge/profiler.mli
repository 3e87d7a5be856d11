(** Scheduling-overhead profiler (paper §6.3 / Figure 9).

    Reproduces the paper's methodology: present the bridge with ~1,000
    packets spread and queued across the flows of [n] interfaces, then
    record the wall-clock time of each scheduling decision with a
    monotonic nanosecond clock.  The paper reports the CDF per interface
    count (4–16) and observes decisions stay under a few microseconds. *)

type result = {
  n_ifaces : int;
  n_flows : int;
  samples_ns : float array;  (** one per timed decision *)
}

val run : ?n_flows:int -> ?decisions:int -> n_ifaces:int -> unit -> result
(** Build a miDRR instance with [n_ifaces] interfaces and [n_flows]
    (default 32) flows willing to use every interface, keep 1000 packets
    of 1000 bytes queued across them, and time
    [decisions] (default 20000) scheduling decisions round-robining over
    the interfaces.  Queues are topped up between timed sections. *)

val cdf : result -> Midrr_stats.Cdf.t
(** Empirical CDF of the per-decision time in nanoseconds. *)

val summary : result -> Midrr_stats.Summary.t

val supported_rate_gbps : result -> pkt_size:int -> float
(** The paper's closing conversion: with median decision cost [d] and
    packets of [pkt_size] bytes, the scheduler sustains
    [pkt_size * 8 / d] bits/s. *)
