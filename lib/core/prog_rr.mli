(** Per-interface packet round robin: the [rr] discipline, expressed as
    a {!Sched_prog} program.

    Rank = a per-interface monotone position counter ("back of the
    rotation"); ineligible flows encountered during a lap are re-ranked
    to the back, eligible ones are served and re-ranked to the back.  One
    packet per turn regardless of size — the large-packet bias DRR fixes.
    Golden transcripts recorded from the bespoke list-rotation engine
    this program replaced pin its behavior byte for byte. *)

include Sched_intf.S

val create : ?queue_capacity:int -> unit -> t
val packed : t -> Sched_intf.packed
