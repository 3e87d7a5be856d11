(** Sampled begin/end phase spans, exported as Chrome trace_event JSON.

    Register a phase once ([phase]), then bracket the instrumented
    region with [enter]/[exit].  The clock returns monotonic
    nanoseconds as an [int] (an immediate, unlike a boxed float), so
    the instrumented path stores at most two timestamps into
    preallocated rows and allocates nothing.  [sample_every = k] keeps
    every k-th span per phase; a full row buffer counts further spans
    as [dropped] instead of growing.

    Only completed spans are stored, so the exported trace has balanced
    "B"/"E" events by construction — the property CI's trace-smoke step
    checks.  Load the output in [chrome://tracing] or Perfetto. *)

type t

val create : ?capacity:int -> ?sample_every:int -> clock:(unit -> int) -> unit -> t
(** [clock] returns monotonic nanoseconds.  [capacity] bounds stored
    spans (default 65536); [sample_every] thins per phase (default 1 =
    every span). *)

val phase : t -> string -> int
(** Dense id for the named phase, registering on first use.  Cold. *)

val enter : t -> int -> unit
(** Mark phase begin.  Allocation-free; no-op on unsampled ticks. *)

val exit : t -> int -> unit
(** Mark phase end, completing the span begun by the matching sampled
    [enter] (no-op otherwise).  Allocation-free. *)

val count : t -> int
(** Completed spans stored. *)

val dropped : t -> int
(** Sampled spans discarded because the buffer was full. *)

val phases : t -> string list
[@@midrr.lint.allow "R9"] (* test_metrics checks the span probes by it *)

val write_chrome : t -> out_channel -> unit
(** Write the trace as a Chrome trace_event JSON object
    ({["{"traceEvents":[...]}"]}), timestamps rebased to the first
    sampled begin, in microseconds. *)
