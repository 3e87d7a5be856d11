(** The [sim-mesh64-wfq] scenario: many flows under overload.

    Four interfaces (20/10/5/3 Mb/s) and 64 Poisson flows cycling through
    the 15 non-empty Π rows, weights {1,2,4} and packet sizes
    {200,600,1500} B; the offered load is 1.2x the summed capacity.

    The scenario is fixed rather than drawn from the benchmark seed: the
    bespoke WFQ allocates per candidate flow it scans, so its words per
    packet move by about 2% between arrangements (or arrival draws),
    twice the bound on that metric. *)

val scenario : unit -> string
(** The scenario text ([scheduler wfq], [run 20], two measure windows). *)

val queue_capacity : int
(** Per-flow queue bound in bytes handed to the WFQ schedulers, so the
    overload turns into drops instead of unbounded queues. *)
