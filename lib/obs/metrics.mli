(** Dense-handle metrics registry: counters, gauges and streaming
    quantile histograms behind int handles.

    Registration ([counter] / [gauge] / [histogram]) is the cold path —
    it looks a name up (creating it on first use) and returns a dense
    int handle.  The hot operations ([incr], [add], [set_gauge],
    [incr_gauge], [observe]) are single stores into preallocated flat
    arrays and allocate nothing; they are part of the R1/R7 lint hot
    set, and [dune build @crosscheck] measures [incr], [add],
    [set_gauge], [observe] and [observe_ns] at runtime.

    Registries merge by metric name ([merge_into]): counters add,
    gauges sum, histograms fold bucket-wise — the collector step for
    per-shard scheduler instances. *)

module Log_histogram = Midrr_stats.Log_histogram

type t

(** Handles are dense ints (exposed so platforms can stash them in
    plain int fields and arrays, with [-1] as a convenient "none"). *)

type counter = int
type gauge = int
type histogram = int

val create : unit -> t

val counter : t -> string -> counter
(** Handle for the named counter, registering it at zero on first use.
    Same name, same handle. *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val counter_value : t -> counter -> int

val gauge : t -> string -> gauge
val set_gauge : t -> gauge -> float -> unit
val incr_gauge : t -> gauge -> float -> unit
val gauge_value : t -> gauge -> float
[@@midrr.lint.allow "R9"] (* test_metrics reads the gauges publish sets *)

val histogram :
  ?lo:float -> ?gamma:float -> ?bins:int -> t -> string -> histogram
(** Handle for the named histogram.  Geometry defaults suit latencies
    in seconds (1 ns resolution, ~5% buckets, range beyond 10^6 s); it
    is fixed at first registration — later calls with the same name
    return the existing sketch and ignore the geometry arguments. *)

val observe : t -> histogram -> float -> unit
[@@midrr.lint.allow "R9"] (* R7 roots @crosscheck measures; no program calls *)

val observe_ns : t -> histogram -> int -> unit [@@midrr.lint.allow "R9"]
(** Duration in integer nanoseconds; see
    {!Log_histogram.observe_ns} for why computed durations should
    cross the call boundary as ints. *)

val hist : t -> histogram -> Log_histogram.t

val counters : t -> (string * int) list
(** Registration-ordered snapshot (allocates; exporter path). *)

val gauges : t -> (string * float) list
val histograms : t -> (string * Log_histogram.t) list

val merge_into : src:t -> dst:t -> unit
(** Fold [src] into [dst] by name, registering names [dst] lacks.
    Raises [Invalid_argument] if same-named histograms differ in
    geometry. *)
