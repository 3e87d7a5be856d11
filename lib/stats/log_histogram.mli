(** Streaming log-bucketed quantile histogram (HDR-style).

    Bucket [i] covers [lo * gamma^i, lo * gamma^(i+1)), so the relative
    width of every bucket is [gamma - 1] and a fixed bucket array covers
    many decades of dynamic range.  [observe] is allocation-free: the
    index is a [log], a multiply and a truncation into preallocated
    arrays, which lets the telemetry plane keep one of these per flow at
    O(1) memory while the simulation streams millions of samples.

    Quantiles are conservative: the reported value is the upper edge of
    the bucket holding the requested rank, clamped by the exact running
    maximum — never below the true quantile and never above the true
    max, so delay-bound checks made against the sketch remain sound.

    Instances with identical geometry merge ([merge_into]), which is the
    aggregation primitive for sharded schedulers: each shard observes
    locally, a collector merges snapshots. *)

type t

val create : lo:float -> gamma:float -> bins:int -> t
(** [lo > 0] is the smallest resolvable value, [gamma > 1] the bucket
    growth factor, [bins > 0] the number of log buckets.  Values in
    [0, lo) count as underflow, values at or beyond the last bucket as
    overflow, NaN into a dedicated cell. *)

val create_range : lo:float -> hi:float -> rel_error:float -> t
(** Geometry derived from a target range and relative error:
    [gamma = 1 + rel_error] and enough buckets to cover [hi]. *)

val observe : t -> float -> unit
(** Record one observation.  Allocation-free; NaN increments the [nan]
    cell and nothing else. *)

val observe_ns : t -> int -> unit
(** [observe_ns t ns] records a duration given as integer nanoseconds —
    semantically [observe t (Float.of_int ns *. 1e-9)].  Without
    flambda, float arguments box at call boundaries; an int does not,
    so hot paths that compute a duration use this entry point to stay
    allocation-free. *)

val count : t -> int
(** Numeric observations recorded (excludes NaN). *)

val nan_count : t -> int
[@@midrr.lint.allow "R9"] (* test_stats and test_metrics read sketch cells *)
val underflow : t -> int [@@midrr.lint.allow "R9"]
val overflow : t -> int [@@midrr.lint.allow "R9"]

val sum : t -> float
val max_value : t -> float
(** Exact running maximum; [nan] when empty. *)

val min_value : t -> float [@@midrr.lint.allow "R9"]
val mean : t -> float [@@midrr.lint.allow "R9"]

val quantile : t -> q:float -> float
(** Upper edge of the bucket holding rank [ceil (q * count)], clamped by
    the exact max; [nan] when empty.  Raises on [q] outside [0, 1]. *)

val bins : t -> int
val bucket_count : t -> int -> int
[@@midrr.lint.allow "R9"] (* test_stats checks observe_ns, merge_into by it *)

val same_geometry : t -> t -> bool
[@@midrr.lint.allow "R9"] (* test_stats checks merge_into's guard with it *)

val merge_into : src:t -> dst:t -> unit
(** Fold [src] into [dst].  Raises [Invalid_argument] when the two
    geometries differ. *)

val copy : t -> t
[@@midrr.lint.allow "R9"] (* test_stats' merge property keeps a copy *)

val lo : t -> float
val gamma : t -> float
