(** Least slack time first expressed as a {!Sched_prog} program.

    Rank = head deadline (as in {!Prog_edf}) minus the remaining service
    time of the flow's backlog at a fixed reference drain rate — the
    flow with the least slack is served first. *)

include Sched_intf.S

val create : ?queue_capacity:int -> unit -> t
val packed : t -> Sched_intf.packed
