(** The fast-path deficit-round-robin engine behind both DRR and miDRR.

    This is the default engine: each interface's round is an intrusive
    {!Active_ring} threaded through the per-(flow, interface) links — so
    a scheduling decision costs O(active flows), independent of how many
    idle flows are registered.  Flows, links and queued packets are int
    slots in three per-engine pools, not records:

    - a flow's ints (id, first link, served bytes, turns, its FIFO's
      tail, length and bytes, drops) fill one cache line of one flat int
      array, its weight sits in a float array and its preference list in
      a list array, 10 words a flow;
    - a link's deficit sits in a float array and its ints (its flow's
      slot, interface, service counter, served bytes, turns, ring
      prev/next, the flow's next link) on one cache line of an int
      array, 9 words a link.  A flow keeps its first link and chains the
      rest, one per allowed online interface, so its state is sized by
      its own preference list, not by the interface-id space;
    - a flow's FIFO is a circular chain through one packet pool, a
      packet array and an int array of successors, 2 words a queued
      packet.  A pop refills the packet's slot with {!Packet.none}, so
      the engine keeps no served packet alive.

    A flow id reaches its slot through an index of one int per id, the
    only state sized by the flow-id space, and a link names its flow's
    slot, so neither a decision nor [enqueue] looks an id up.  Removing
    a flow, dropping an interface from its preferences, taking an
    interface down or popping a packet returns the slots to their pool's
    free list for reuse; a pool doubles from 8 slots when its list runs
    dry, or grows once through {!reserve}.  Registering a flow and
    queueing a packet therefore allocate nothing once the pools have
    grown to the working set.  An empty
    cursor, ring head, chain end or queue is the sentinel slot -1, never
    an [option]; a cursor [C_j] is that sentinel or a slot linked in
    interface [j]'s ring, so a recycled slot is never a cursor.  Flow and
    interface ids must be non-negative (they index the id index and the
    interface slots directly; ids are expected to be small and dense).
    Semantics are specified by {!Drr_engine_ref}, the original
    list-and-hashtable implementation kept as the executable spec; the
    differential and golden-trace suites hold the two engines to
    identical serve sequences, deficits, flags and event streams.

    The paper's Table 1 presents miDRR as classic DRR with one line changed:
    the "advance to the next backlogged flow" step additionally consults a
    per-(flow, interface) {e service flag} (Algorithm 3.2).  This module
    implements both variants behind one engine so the only difference
    between the baselines and miDRR in this repository is, as in the paper,
    the advancement rule.

    State per flow: quantum [Q_i = weight * base_quantum].  State per
    interface: a ring of backlogged eligible flows and a cursor [C_j].
    State per (flow, interface) pair: a deficit counter [DC_ij] and the
    one-bit service flag [SF_ij].  Deficits are per-interface because the
    paper has every interface "implementing DRR independently", with the
    service flag as the {e only} cross-interface coordination ("at most one
    bit of coordination signaling from each interface for every flow").

    Implements {!Sched_intf.S} plus introspection used by tests and the
    evaluation harness. *)

type mode =
  | Plain  (** naive per-interface DRR: no coordination between interfaces *)
  | Service_flags  (** miDRR: Algorithm 3.2's flag-skipping advancement *)

type flag_policy =
  | Per_turn
      (** set [SF_ik] when the flow is selected for a service turn — the
          normative reading of Algorithm 3.2 *)
  | Per_send
      (** additionally refresh [SF_ik] on every transmitted packet — the
          paper's §3.1 prose reading ("when interface k serves flow i");
          kept as an ablation: it trades over-service for under-service
          when interface capacities are very asymmetric *)

include Sched_intf.S

val next_packet_noalloc : t -> Types.iface_id -> Packet.t
(** Allocation-free {!next_packet}: returns {!Packet.none} (compare with
    {!Packet.is_none}) instead of [None] when the interface has nothing to
    send.  With no sink subscribed, a decision through this entry point
    allocates zero minor words — the property [dune build @crosscheck]
    gates on. *)

val create :
  ?base_quantum:int -> ?queue_capacity:int -> ?flag_policy:flag_policy ->
  ?counter_max:int -> mode -> t
(** [create mode] builds an empty scheduler.  [base_quantum] (bytes,
    default 1500) scales per-flow quanta: [Q_i = weight_i * base_quantum].
    [queue_capacity] bounds each flow queue in bytes (unbounded by
    default; [Invalid_argument] unless positive): a packet that would
    take the flow's backlog above it is dropped and counted.
    [flag_policy] defaults to [Per_turn].

    [counter_max] (default 1 = the paper's one-bit flag) generalizes the
    service flag to a saturating counter: serving a flow elsewhere
    increments the counter (up to [counter_max]) and each skip decrements
    it.  With [counter_max = 1], when {e every} flow of an interface is
    also served elsewhere, one advancement lap consumes all flags and the
    interface falls back to plain round robin among them — the published
    algorithm's behavior.  Larger counters let the interface keep skipping
    flows that are served elsewhere {e more often}, tracking the max-min
    allocation more closely on asymmetric topologies (see the flag-policy
    ablation, [midrr ablation]). *)

val reserve : t -> flows:int -> links:int -> flow_id:int -> unit
(** [reserve t ~flows ~links ~flow_id] grows the flow pool to hold
    [flows] registered flows, the link pool [links] (flow, interface)
    links and the id index the id [flow_id], each in one step and only
    when it holds less (a negative [flow_id] asks nothing).  Doubling
    on demand would copy a pool once per power of two on the way and
    leave every old copy to the collector.  The new slots queue behind
    the free slots the pools already have, lowest first, as doubling
    queues them, so reserving changes no slot the engine assigns, no
    decision and no event; a pool that outgrows its reservation doubles
    from there.  {!Shard_engine.run_ops} and
    {!Shard_engine.run_ops_single} size their engines with it. *)

(** {1 Introspection} *)

val deficit : t -> Types.flow_id -> float
(** Largest per-interface deficit counter of the flow, in bytes. *)

val deficit_on : t -> flow:Types.flow_id -> iface:Types.iface_id -> float
(** The deficit counter [DC_ij] interface [iface] keeps for the flow; 0
    when the pair is not linked. *)

val quantum : t -> Types.flow_id -> float
(** Current quantum [Q_i] in bytes. *)

val service_flag : t -> flow:Types.flow_id -> iface:Types.iface_id -> bool
(** Whether [SF_ij] is raised.  [false] when the pair is not linked. *)

val service_counter : t -> flow:Types.flow_id -> iface:Types.iface_id -> int
(** The raw saturating counter behind [SF_ij]. *)

val turns : t -> Types.flow_id -> int
(** Number of service turns (quantum top-ups) the flow has received, summed
    over interfaces — the [m_i] of Lemma 4. *)

val turns_on : t -> flow:Types.flow_id -> iface:Types.iface_id -> int

val ring_flows : t -> Types.iface_id -> Types.flow_id list
(** Backlogged eligible flows in interface [j]'s round order, starting at
    the ring head. *)

val considered : t -> int
(** Total flows examined across all {!next_packet} calls — the search work
    that paper §6.3 profiles. *)

val drops : t -> Types.flow_id -> int
(** Packets dropped by the flow's bounded queue. *)
