(** Time-binned accumulators for rate time series.

    The evaluation plots per-flow throughput against time (paper Fig. 6 and
    Fig. 10).  A [t] accumulates byte counts into fixed-width time bins and
    converts them to bit/s or Mb/s series. *)

type t

val create : bin:float -> t
(** [create ~bin] accumulates into bins of [bin] seconds, starting at
    time 0.  Requires [bin > 0]. *)

val record : t -> time:float -> bytes:int -> unit
(** Credit [bytes] to the bin containing [time].  Times must be >= 0 but may
    arrive out of order. *)

val n_bins : t -> int
[@@midrr.lint.allow "R9"] (* test_stats checks the bins rate_series reads *)
(** Index of the last touched bin + 1 (0 when empty). *)

val bytes_in_bin : t -> int -> int [@@midrr.lint.allow "R9"]
(** Bytes recorded in bin [i]; 0 for untouched bins in range. *)

val rate_series : ?unit_scale:float -> t -> (float * float) array
(** [(bin-midpoint-seconds, rate)] for each bin from 0 to the last touched
    bin.  Rate is bits/s divided by [unit_scale] (default [1.0]; pass
    [1e6] for Mb/s). *)

val rate_between : ?unit_scale:float -> t -> t0:float -> t1:float -> float
(** Average rate over [t0, t1) computed from whole bins overlapping the
    window (partial bins are weighted by overlap). *)

val total_bytes : t -> int
