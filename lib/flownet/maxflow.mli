(** Maximum flow on directed graphs with float capacities (Dinic's
    algorithm).

    Used by the max-min reference solver ({!Maxmin}) for feasibility tests.
    Capacities are floats; a comparison tolerance [eps] treats residual
    capacities below it as zero, which keeps level-graph construction stable
    under rounding. *)

type t
(** A mutable flow network. *)

val create : n:int -> t
(** [create ~n] makes an empty network on nodes [0 .. n-1]. *)

val infinity_cap : float
(** Capacity value treated as unbounded. *)

val add_edge : t -> src:int -> dst:int -> cap:float -> int
(** Add a directed edge and its zero-capacity reverse edge; returns an edge
    handle usable with {!flow_on}.  Requires [cap >= 0]. *)

val max_flow : ?eps:float -> t -> src:int -> dst:int -> float
(** Compute the maximum [src]→[dst] flow.  The per-edge flows stay
    stored in the network. *)

val flow_on : t -> int -> float
(** Flow routed on the given edge handle by the last {!max_flow} run. *)

val residual_reachable : t -> src:int -> bool array
[@@midrr.lint.allow "R9"] (* test_flownet checks the cut beside coreachable *)
(** [residual_reachable t ~src] marks nodes reachable from [src] through
    edges with residual capacity above {!max_flow}'s default [eps], in the
    state left by the last {!max_flow} run.  Used to identify bottlenecked
    flows via min-cut membership. *)

val residual_coreachable : ?eps:float -> t -> dst:int -> bool array
(** [residual_coreachable t ~dst] marks nodes from which [dst] is reachable
    through residual edges.  A demand can be increased exactly when its
    source node co-reaches the sink. *)
