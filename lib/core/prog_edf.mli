(** Earliest deadline first expressed as a {!Sched_prog} program.

    Rank = the head-of-line packet's deadline, where the relative
    deadline is derived from the flow's weight (heavier = tighter):
    [deadline = arrival + deadline_base / weight]. *)

include Sched_intf.S

val create : ?queue_capacity:int -> unit -> t
val packed : t -> Sched_intf.packed
