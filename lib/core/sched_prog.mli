(** Schedulers as programs over per-interface PIFOs.

    Following the programmable-scheduling line of work (PIFO, Universal
    Packet Scheduling), a discipline is reduced to a small {e program}: a
    rank function plus a handful of hooks and static policies.  The
    {!Make} functor lifts any such program to the full {!Sched_intf.S}
    API — flow/interface churn, [set_weight]/[set_allowed], backlog and
    served-bytes accounting, and zero-cost event emission all live in the
    shared substrate, so a new discipline is one small pure-ish module
    (see [prog_wfq.ml], [prog_srpt.ml], ...).

    Per interface the substrate keeps the program's candidates in an
    index-tracked {!Pifo}; [next_packet] pops the minimum (rank, flow id)
    and lets the program update its state via [on_service].

    {2 Rank semantics}

    [rank] is consulted whenever a flow (re-)enters an interface's PIFO
    or must be re-ranked; smaller ranks serve first, ties break toward
    the smaller flow id.  [rank] may mutate program state — round robin's
    rank {e is} "advance this interface's position counter" — so the
    substrate calls it exactly once per (re)insertion.

    {2 The floor}

    Virtual-time disciplines clamp ranks from below: WFQ serves by
    [max(v_j, F_ij)], so every flow whose finish tag has fallen behind
    the interface's virtual time ties at [v_j] and competes by flow id
    alone.  A program declares this with [floor_rank] (monotone
    non-decreasing per interface; [neg_infinity] = no floor).  The
    substrate keeps, per interface, a second PIFO ordered by flow id
    holding exactly the entries at or below the floor, migrating entries
    as the floor advances — each entry migrates at most once between its
    services, preserving O(log n) amortized decisions.

    {2 Ranks by reference}

    Ranks cross this interface only inside a {!Pifo.cell} that the
    substrate owns: [rank], [floor_rank] and [skip_rank] store their
    result in the cell they are handed, and [on_service] reads the
    effective rank from one.  A float computed in one function and
    handed to another by value, as a result or an argument, is boxed
    unless the call is inlined, and the dev build ([-opaque]) inlines
    nothing across modules: by value, every rank would cost a box.
    A cell's value lives only until the call returns: the substrate
    reuses its cells for the next rank, so a program copies [v] out
    (into cells of its own, as WFQ keeps [v_j] and its finish tags) and
    never keeps the cell. *)

module type PROG = sig
  type t
  (** The program's own state (virtual times, finish tags, counters...). *)

  val name : string

  val create : unit -> t

  val membership : [ `Backlogged | `All_flows ]
  (** What an interface's PIFO holds.  [`Backlogged]: exactly the flows
      that are backlogged and allow the interface (maintained eagerly by
      the substrate).  [`All_flows]: every registered flow, eligible or
      not — rotation disciplines keep ineligible flows in the cycle and
      pass over them with {!skip_rank}. *)

  val rank :
    t ->
    flow:Types.flow_id ->
    iface:Types.iface_id ->
    weight:float ->
    head:Packet.t ->
    backlog:int ->
    Pifo.cell ->
    unit
  (** The program: store in the cell this flow's rank on this interface,
      given its weight, head-of-line packet ({!Packet.none} when the
      queue is empty, which only happens under [`All_flows]) and backlog
      in bytes. *)

  val floor_rank : t -> iface:Types.iface_id -> Pifo.cell -> unit
  (** Store in the cell the monotone per-interface lower bound on
      effective ranks (see above); [neg_infinity] when the discipline has
      none.  Must be [neg_infinity] under [`All_flows]. *)

  val skip_rank :
    t -> flow:Types.flow_id -> iface:Types.iface_id -> Pifo.cell -> unit
  (** [`All_flows] only: store in the cell the new rank for an
      ineligible flow the interface just passed over (round robin: "move
      to the back"). *)

  val on_service :
    t ->
    flow:Types.flow_id ->
    iface:Types.iface_id ->
    weight:float ->
    size:int ->
    rank:Pifo.cell ->
    unit
  (** The flow was just served [size] bytes on [iface] at effective rank
      [rank.v] (the floor when the entry had been clamped).  WFQ advances
      [v_j] and the finish tag here. *)

  val rerank_on_enqueue : bool
  (** Re-rank a flow's entries when a packet joins its non-empty queue —
      needed when rank depends on backlog (SRPT, LSTF). *)

  val rerank_after_service : [ `Served_iface | `All_ifaces ]
  (** After a service, the popped flow always re-enters the served
      interface's PIFO with a fresh rank.  [`All_ifaces] additionally
      re-ranks the flow on every other interface — needed when rank
      depends on the (shared) queue's head or backlog. *)

  val rerank_on_weight : bool
  (** Re-rank a flow everywhere when [set_weight] changes it. *)

  val on_flow_add : t -> flow:Types.flow_id -> weight:float -> unit
  val on_flow_remove : t -> flow:Types.flow_id -> unit
  val on_iface_add : t -> iface:Types.iface_id -> unit
  val on_iface_remove : t -> iface:Types.iface_id -> unit
end

module Make (P : PROG) : sig
  include Sched_intf.S

  val create : ?queue_capacity:int -> unit -> t
  (** A fresh scheduler over a fresh [P.create ()].  [queue_capacity]
      bounds each flow's queue in bytes (drop-tail). *)

  val packed : t -> Sched_intf.packed
end
