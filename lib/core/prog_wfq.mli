(** Per-interface weighted fair queueing (start-time fair queueing): the
    [wfq] discipline, expressed as a {!Sched_prog} program.

    Implements the strategy the paper's introduction analyzes and rejects:
    run WFQ independently on every interface over the flows willing to use
    it.  Each interface keeps its own virtual time and per-flow finish
    tags; across interfaces this yields per-interface fair shares, which
    Figure 1(c) shows violate the aggregate max-min allocation.

    Rank = the flow's per-interface finish tag [F_ij]; floor = the
    interface's virtual time [v_j]; service sets [v_j := rank] and
    [F_ij := rank + size/weight].  Each decision is O(log backlogged).
    Golden transcripts recorded from the bespoke scan-all-flows engine
    this program replaced pin its behavior byte for byte. *)

include Sched_intf.S

val create : ?queue_capacity:int -> unit -> t
val packed : t -> Sched_intf.packed

val virtual_time : t -> Types.iface_id -> float
(** The interface's current virtual time ([neg_infinity] when the
    interface is offline). *)
