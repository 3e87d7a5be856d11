(** Concurrent-flow statistics over a trace (paper §6.1 / Figure 7).

    A sweep over flow intervals yields, for every instant, the number of
    simultaneously open flows.  The paper reports the distribution over
    {e active} periods only — instants with at least one ongoing flow. *)

val occupancy : ?horizon:float -> Gen.interval list -> (int * float) list
[@@midrr.lint.allow "R9"] (* test_trace checks Fig. 7's occupancy steps *)
(** [(k, seconds)] pairs: total time spent with exactly [k] concurrent
    flows, for every [k] that occurs (including 0), ascending.  Counting
    starts at time 0; pass [horizon] to also count the idle tail after the
    last flow ends. *)

val active_cdf : Gen.interval list -> Midrr_stats.Cdf.t
(** Time-weighted CDF of the concurrent-flow count conditioned on being
    active (k >= 1).  Raises [Invalid_argument] on a trace with no active
    time. *)

val max_concurrent : Gen.interval list -> int

val fraction_at_least : Gen.interval list -> int -> float
(** [fraction_at_least trace k]: fraction of active time with at least [k]
    concurrent flows (the paper: ~0.10 for k = 7). *)

val active_fraction : ?horizon:float -> Gen.interval list -> float
(** Fraction of the whole trace that is active at all. *)
