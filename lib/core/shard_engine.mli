(** The fast engine sharded across domains.

    miDRR runs an independent DRR round per interface, with the service
    flag as the only cross-interface coupling — and a flag only ever
    propagates among one flow's own links.  Scheduling state therefore
    decomposes along the connected components of the flow/interface
    preference graph (flows are hyperedges over the interfaces their Π
    row permits): two components never read or write each other's
    state, in either [Plain] or [Service_flags] mode.  This module
    exploits that: it partitions components across [shards] private
    {!Drr_engine} instances and routes every operation to the one shard
    that owns it.

    {b Partition function.}  A union-find over interface ids tracks
    components; registering a flow unions the interfaces its preference
    lists.  A component is bound to a shard at its first flow
    registration — to the least-loaded shard (by homed flows, lowest
    shard id on ties) — and the binding never moves.  When Π is
    block-separable (components map into shards without crossing), the
    sharded engine is {e exactly} the fast engine: same serve
    sequences, deficits, flags, events.  When a registration would
    merge two components already bound to different shards, Π is not
    separable under the current binding: in the default mode the flow
    falls back to a flow-id hash over the candidate shards (and is then
    servable only on the interfaces its home shard owns — a documented
    approximation, counted by {!partition_conflicts}); with
    [~strict:true] the registration raises instead, which is what the
    differential suite runs under.

    Interface ids run from 0 to 65535, the range [Scenario] accepts:
    [add_iface] (and an [Op_add_iface]) raises [Invalid_argument] above
    it, since the partition's slot arrays are sized by the id and
    {!run_ops}'s mailbox names an interface by a negative int derived
    from it.

    Interfaces with no registered flow are kept {e pending} at the
    routing layer (their [Iface_up]/[Iface_down] events are emitted
    from here) and materialize into a shard's sub-engine silently when
    a first flow binds their component, so event streams and ring
    orders match the single-engine run.

    Every operation takes one path: the routing layer updates the
    partition and names the owning shard, and one interpreter applies
    the operation to that shard's sub-engine.  Two ways to drive it:

    - {b Inline} — the full {!Sched_intf.S} implementation below, every
      call routed synchronously on the caller's domain.  This is what
      Netsim/Scenario use ([--engine sharded]); it is the fast engine
      plus an O(1) routing lookup, and an enqueue or a serve allocates
      what it allocates on the fast engine.
    - {b Parallel batch} — {!run_ops} pins each shard to its own domain
      via [Par], feeds them through bounded {!Spsc} mailboxes, and
      merges per-shard event streams back into the canonical
      single-engine order by operation sequence number
      (deterministically and without barriers: each operation touches
      exactly one shard, so sequence numbers never tie across shards).

    Both leave [t] in the same state as a single fast engine that
    applied the same operations in order. *)

type t

include Sched_intf.S with type t := t

val create :
  ?counter_max:int -> ?shards:int -> ?strict:bool -> Drr_engine.mode -> t
(** [create mode] builds an empty sharded scheduler; [counter_max] is
    {!Drr_engine.create}'s, applied to every shard.  [shards] defaults
    to [1]; [strict] (default [false]) makes
    non-separable registrations and preference changes raise
    [Invalid_argument], before touching the partition, instead of
    falling back to the flow-id hash. *)

val shard_of_flow : t -> Types.flow_id -> int
[@@midrr.lint.allow "R9"] (* test_shard checks apply's routing with these *)
(** Home shard of a registered flow; [-1] when unknown. *)

val shard_of_iface : t -> Types.iface_id -> int [@@midrr.lint.allow "R9"]
(** Shard owning the interface's component; [-1] while unbound/pending. *)

val shard_flow_counts : t -> int array [@@midrr.lint.allow "R9"]
(** Flows currently homed per shard, one entry per shard. *)

val partition_conflicts : t -> int [@@midrr.lint.allow "R9"]
(** Registrations that fell back to the flow-id hash because their
    preference spanned components bound to different shards. *)

(** {1 Introspection} — same meaning as the {!Drr_engine} originals,
    routed to the owning shard ({!considered} sums over shards). *)

val deficit : t -> Types.flow_id -> float
[@@midrr.lint.allow "R9"] (* test_shard walks this state against Drr_engine *)
val deficit_on : t -> flow:Types.flow_id -> iface:Types.iface_id -> float
[@@midrr.lint.allow "R9"]
val quantum : t -> Types.flow_id -> float [@@midrr.lint.allow "R9"]
val service_flag : t -> flow:Types.flow_id -> iface:Types.iface_id -> bool
[@@midrr.lint.allow "R9"]
val service_counter : t -> flow:Types.flow_id -> iface:Types.iface_id -> int
[@@midrr.lint.allow "R9"]
val turns : t -> Types.flow_id -> int [@@midrr.lint.allow "R9"]
val turns_on : t -> flow:Types.flow_id -> iface:Types.iface_id -> int
[@@midrr.lint.allow "R9"]
val ring_flows : t -> Types.iface_id -> Types.flow_id list
[@@midrr.lint.allow "R9"]
val considered : t -> int [@@midrr.lint.allow "R9"]
val drops : t -> Types.flow_id -> int [@@midrr.lint.allow "R9"]

(** {1 Batch operations}

    The parallel driver consumes a prerecorded operation stream — the
    shape the trace generator ({!Midrr_trace}) produces and the bench
    harness replays.

    Both drivers size their engines from the stream before its first
    operation: one pass over its registrations, removals and preference
    changes, starting from the flows the engines already hold, finds
    each engine's peak count of registered flows, its peak count of
    links (the sum of |Π_i| over its registered flows) and its largest
    flow id, and {!Drr_engine.reserve} grows the pools and the id index
    once to hold them.  {!run_ops} counts each flow on the shard that
    will hold it by routing the stream's control operations on a copy
    of its partition, and also grows its own shard-per-flow-id array
    once.  Sizing changes no decision, event, statistic or failure: the
    pass stops at the first operation it cannot count (a negative,
    duplicate or unknown flow id, or one that routing rejects), where
    the replay itself raises [Invalid_argument].  Inline {!apply} and
    the {!Sched_intf.S} calls still grow the pools by doubling. *)

type op =
  | Op_add_iface of Types.iface_id
  | Op_remove_iface of Types.iface_id
  | Op_add_flow of {
      flow : Types.flow_id;
      weight : float;
      allowed : Types.iface_id list;
    }
  | Op_remove_flow of Types.flow_id
  | Op_set_weight of { flow : Types.flow_id; weight : float }
  | Op_set_allowed of {
      flow : Types.flow_id;
      allowed : Types.iface_id list;
    }
  | Op_enqueue of { flow : Types.flow_id; size : int; arrival : float }
  | Op_serve of { iface : Types.iface_id; budget : int }
      (** up to [budget] scheduling decisions on [iface], stopping
          early when the interface has nothing to send *)

type run_stats = {
  rs_decisions : int;  (** [next_packet] calls made *)
  rs_sent : int;  (** packets handed out *)
  rs_sent_bytes : int;
  rs_enqueued : int;  (** packets accepted by flow queues *)
  rs_dropped : int;  (** packets refused (unknown flow or full queue) *)
  rs_events : (int * Midrr_obs.Event.t) array;
      (** canonical event stream as [(op sequence number, event)],
          merged across shards into single-engine order and decoded once
          at the end of the run; [[||]] unless recording was requested *)
}

val apply : t -> op -> unit
(** Apply one operation inline (synchronously, through the same
    routing layer as the {!Sched_intf.S} calls). *)

val run_ops :
  ?record:bool ->
  ?metrics:Midrr_obs.Metrics.t ->
  ?mailbox:int ->
  t ->
  op array ->
  run_stats
(** Apply the whole stream with one domain per shard plus the routing
    domain, communicating over bounded SPSC mailboxes of [mailbox]
    slots (default 8192; full mailboxes backpressure the router — a
    deep ring keeps the pipeline moving even when the OS time-slices
    more domains than it has cores).  A message is one int, an op's
    index: the workers read the ops from the array itself, so routing
    an op allocates nothing.
    [record] collects every scheduler event with its operation sequence
    number and returns the canonically merged stream.  [metrics] gives
    each shard a private {!Midrr_obs.Busmetrics} fold over its own
    events and folds the per-shard registries into the given one with
    {!Midrr_obs.Metrics.merge_into} after the run — the per-shard
    collector step.  Any sink installed via {!set_sink} is suspended
    for the duration of the run (events cross domains, so a shared
    callback would race) and restored afterwards.

    After [run_ops] returns, [t] is in the same state as if the stream
    had been {!apply}ed inline in order; when an operation raises, the
    exception propagates once every operation before it is applied. *)

val run_ops_single :
  ?record:bool ->
  ?metrics:Midrr_obs.Metrics.t ->
  Drr_engine.t ->
  op array ->
  run_stats
(** The single-domain baseline: the same operation stream applied in
    order to one fast engine on the calling domain, with the same
    recording and metrics treatment — what {!run_ops} is differentially
    tested and benchmarked against. *)
