(** Ablation: quantum size vs convergence and smoothness (paper §6.2).

    Fig. 6(c) shows miDRR initially misallocating and then correcting
    "quickly", with rates that "fluctuate around the ideal fair rate due to
    the atomic nature of packets and the size of the quanta".  This
    experiment quantifies both effects as functions of the base quantum:

    - {e settling time}: the end of the last 1 s window, sliding by
      0.5 s, in which some flow's rate strays more than 10% from its
      reference (the water-filling rates of the run's judged second
      half); [nan] if that is within 2 s of the horizon;
    - {e ripple}: the standard deviation of per-bin rates around the
      reference in steady state, averaged over flows.

    Expected shape: larger quanta settle slower and ripple more; very
    small quanta pay more scheduling decisions per byte (reported as
    decisions per megabyte). *)

type row = {
  base_quantum : int;
  settling_time : float;  (** seconds; [nan] if never settled *)
  ripple_pct : float;  (** mean stddev around the reference, % of it *)
  decisions_per_mb : float;
}

type result = row list

val run : ?quanta:int list -> unit -> result
(** Default quanta: 1000, 1500, 6000, 24000 bytes (packets are 1000 B).
    Quanta below the maximum packet size break classic DRR's
    quantum >= MaxPacket premise; with the 1-bit flag they additionally
    destroy cross-interface exclusion (a flow that needs several turns per
    packet has its flag consumed on every lap), so they are excluded from
    the default sweep and covered by a dedicated regression test
    instead. *)

val print : Format.formatter -> result -> unit
