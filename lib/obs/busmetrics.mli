(** Always-on telemetry fold over the event bus.

    Attach [sink] to a platform (or tee it next to a recorder/JSONL
    sink) and the fold maintains, purely from the event stream:

    - counters: enqueue/serve/drop/turn/flag-reset/complete totals and
      their byte volumes, plus per-interface serve counts;
    - gauges: total queue occupancy in packets and bytes, active flows,
      interfaces up, and per-interface queue occupancy (the summed
      backlog of the flows associated with each interface, the
      association learned from [Turn]/[Serve] events; it covers
      interface ids 0..61, and higher ids read 0);
    - histograms: enqueue-to-service delay, aggregate and
      per-interface only, as streaming log-bucket sketches (1 us floor,
      5% buckets).  Delays are taken at 1 ns resolution: the [n]-th
      [Serve] of a flow is matched with its [n]-th [Enqueue] (flow
      queues are FIFO), [Drop]s never enter the match and [Flow_remove]
      forgets the flow's unserved enqueues.  A [Serve] with no pending
      enqueue (fold attached mid-run) counts in the sketches' NaN cell.
      One flow's delays are the aggregate sketch of a fold fed only
      that flow's events (how [Bounds.report] measures them).

    The steady-state [on_event] path allocates nothing (R7-checked): it
    keeps one record per flow id (a few words plus a ring of pending
    enqueue times) and one per interface id, and updates no gauge.  It
    allocates only when an id appears for the first time (its record, a
    larger slot array, and for an interface its registry entries) and
    when a flow's pending ring fills up and doubles.  Gauge values are
    derived from the records by [publish], which writes them to the
    registry's float gauges, and by the accessors below.  Call
    [publish] before exporting. *)

module Log_histogram = Midrr_stats.Log_histogram

type t

val create : unit -> t
(** Fold state registering its metrics in a fresh registry. *)

val registry : t -> Metrics.t

val on_event : t -> time:float -> Event.record -> unit
val sink : t -> Sink.t

val publish : t -> unit
(** Derive the current gauges (queue occupancy, active flows,
    interfaces up, per-interface occupancy) and write them into the
    registry so exporters see fresh values.  Cold path: one pass over
    the flow and interface records. *)

(** Exact current values, derived from the records in O(flows) (the
    interface counts in O(interfaces)); [iface_serves] reads the
    registry counter [iface<j>_serves]: *)

val queue_packets : t -> int
val queue_bytes : t -> int
val flows_active : t -> int
val ifaces_up : t -> int
val iface_queue_packets : t -> iface:int -> int
val iface_serves : t -> iface:int -> int

val delay : t -> Log_histogram.t
(** Aggregate enqueue-to-service delay sketch (seconds). *)

val iface_delay : t -> iface:int -> Log_histogram.t option

