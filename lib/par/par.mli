(** Domain-based parallel execution of independent tasks.

    This is the {e only} module in the repository allowed to call
    [Domain.spawn] (lint rule R5 enforces this): every layer that fans
    out independent work — scenario sweeps, bench grids, the
    differential-test matrix — funnels through {!run} so the concurrency
    discipline lives in one place.

    Determinism contract: {!run} returns results positionally — task [i]'s
    result lands at index [i] of the returned array no matter which domain
    ran it or in what order tasks finished — so any fold over the results
    is independent of [jobs].  Tasks must not share mutable state (rule R8
    reports a task's writes to captured or module-level state); per-task
    randomness should come from {!split_seeds}. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1.  The
    default pool size of {!run}. *)

val run : ?jobs:int -> (unit -> 'a) array -> 'a array
(** [run ?jobs tasks] executes every task and returns their results in
    task order.  [jobs] (default {!recommended_jobs}) is clamped to
    [1 .. Array.length tasks]; with [jobs = 1] — or a single task — the
    tasks run sequentially on the calling domain in index order, with no
    domain spawned.  Otherwise [jobs - 1] worker domains plus the calling
    domain pull task indices from a shared atomic counter.

    If any task raises, the remaining tasks still run to completion (the
    pool never abandons in-flight domains), then the exception of the
    {e lowest-indexed} failing task is re-raised with its backtrace — so
    which error surfaces does not depend on [jobs]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?jobs f xs] is [run ?jobs] over [fun () -> f xs.(i)]. *)

val split_seeds : seed:int -> int -> int array
(** [split_seeds ~seed n] derives [n] statistically independent task
    seeds from one master seed via {!Midrr_stats.Rng.split}.  Pure
    function of [(seed, n)]: task [i] gets the same seed whatever [jobs]
    is, which is what keeps parallel sweeps bit-identical to serial
    ones. *)
