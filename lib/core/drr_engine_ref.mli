(** The {e reference} deficit-round-robin engine — the executable
    specification of DRR and miDRR.

    This is the original list-and-hashtable implementation.  The default
    engine behind {!Midrr}/{!Drr} is the O(active) rewrite in
    {!Drr_engine}; this module is retained, API-identical, as the
    semantic oracle: the differential suite drives both in lockstep and
    requires identical serve sequences, deficits, flags and event
    streams.  Select it at runtime with [midrr run --engine ref].

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

val create :
  ?base_quantum:int -> ?queue_capacity:int -> ?flag_policy:flag_policy ->
  ?counter_max:int -> mode -> t
(** [create mode] builds an empty scheduler.  [base_quantum] (bytes,
    default 1500) scales per-flow quanta: [Q_i = weight_i * base_quantum].
    [queue_capacity] bounds each flow queue in bytes (unbounded by
    default).  [flag_policy] defaults to [Per_turn].

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

(** {1 Introspection} *)

val deficit : t -> Types.flow_id -> float
[@@midrr.lint.allow "R9"] (* test_differential walks this state in lockstep *)
(** Largest per-interface deficit counter of the flow, in bytes. *)

val deficit_on : t -> flow:Types.flow_id -> iface:Types.iface_id -> float
[@@midrr.lint.allow "R9"]
(** The deficit counter [DC_ij] interface [iface] keeps for the flow; 0
    when the pair is not linked. *)

val quantum : t -> Types.flow_id -> float [@@midrr.lint.allow "R9"]
(** Current quantum [Q_i] in bytes. *)

val service_flag : t -> flow:Types.flow_id -> iface:Types.iface_id -> bool
[@@midrr.lint.allow "R9"]
(** Whether [SF_ij] is raised.  [false] when the pair is not linked. *)

val service_counter : t -> flow:Types.flow_id -> iface:Types.iface_id -> int
[@@midrr.lint.allow "R9"]
(** The raw saturating counter behind [SF_ij]. *)

val turns : t -> Types.flow_id -> int [@@midrr.lint.allow "R9"]
(** Number of service turns (quantum top-ups) the flow has received, summed
    over interfaces — the [m_i] of Lemma 4. *)

val turns_on : t -> flow:Types.flow_id -> iface:Types.iface_id -> int
[@@midrr.lint.allow "R9"]

val ring_flows : t -> Types.iface_id -> Types.flow_id list
[@@midrr.lint.allow "R9"]
(** Backlogged eligible flows in interface [j]'s round order, starting at
    the ring head. *)

val considered : t -> int [@@midrr.lint.allow "R9"]
(** Total flows examined across all {!next_packet} calls — the search work
    that paper §6.3 profiles. *)

val drops : t -> Types.flow_id -> int [@@midrr.lint.allow "R9"]
(** Packets dropped by the flow's bounded queue. *)
