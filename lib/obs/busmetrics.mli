(** Always-on telemetry fold over the event bus.

    Attach [sink] to a platform (or tee it next to a recorder/JSONL
    sink) and the fold maintains, purely from the event stream:

    - counters: enqueue/serve/drop/turn/flag-reset/complete totals and
      their byte volumes, plus per-interface serve counts;
    - gauges: total queue occupancy in packets and bytes, active flows,
      interfaces up, and per-interface queue occupancy (the summed
      backlog of the flows associated with each interface, the
      association learned from [Turn]/[Serve] events);
    - histograms: enqueue-to-service delay, aggregate, per-interface
      and per-flow, as streaming log-bucket sketches (1 us floor, 5%
      buckets).  Delays are taken at 1 ns resolution: the [n]-th
      [Serve] of a flow is matched with its [n]-th [Enqueue] (flow
      queues are FIFO), [Drop]s never enter the match and [Flow_remove]
      forgets the flow's unserved enqueues.  A [Serve] with no pending
      enqueue (fold attached mid-run) counts in the sketches' NaN cell.

    The steady-state [on_event] path allocates nothing (R7-checked):
    state lives in preallocated int/float arrays, and gauge values are
    mirrored as exact ints, written to the registry's float gauges only
    by [publish].  Call [publish] before exporting. *)

module Log_histogram = Midrr_stats.Log_histogram

type t

val create : ?registry:Metrics.t -> unit -> t
(** Fold state registering its metrics in [registry] (a fresh registry
    when omitted). *)

val registry : t -> Metrics.t

val on_event : t -> time:float -> Event.record -> unit
val sink : t -> Sink.t

val publish : t -> unit
(** Write the current gauge mirrors (queue occupancy, active flows,
    interfaces up, per-interface occupancy) into the registry so
    exporters see fresh values.  Cold path. *)

(** Exact current values, straight from the int mirrors: *)

val queue_packets : t -> int
val queue_bytes : t -> int
val flows_active : t -> int
val ifaces_up : t -> int
val iface_queue_packets : t -> iface:int -> int
val iface_serves : t -> iface:int -> int

val delay : t -> Log_histogram.t
(** Aggregate enqueue-to-service delay sketch (seconds). *)

val iface_delay : t -> iface:int -> Log_histogram.t option

val flow_delay : t -> flow:int -> Log_histogram.t option
(** The flow's delay sketch (seconds; shared, not a copy), created at
    its first [Serve] and kept across [Flow_remove]; [None] for a flow
    never served.  Per-flow sketches are not registered in
    {!registry}, so exports and registry merges do not carry them. *)
