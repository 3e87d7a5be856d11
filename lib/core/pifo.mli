(** Index-tracked priority queue: the push-in-first-out substrate behind
    {!Sched_prog}.

    A PIFO holds integer keys (flow ids) ordered by a [float] rank,
    smallest first; equal ranks pop by key, smallest first, so every pop
    is deterministic.  Unlike a plain binary heap it tracks each key's
    slot, so membership tests are O(1) and removing an arbitrary key —
    the operation flow churn needs — is O(log n) rather than O(n).

    Keys and ranks sit in flat arrays (the ranks unboxed), so no
    operation allocates once the arrays have grown to the working set.
    Keys must be non-negative and small-dense (they index an internal
    slot array), which flow ids are.

    A rank crosses this interface only by reference, inside a {!cell}:
    a float passed to or returned from a function that is not inlined
    is boxed, and the dev build ([-opaque]) inlines nothing across
    modules, so a [float] rank would cost a box per push or read. *)

type cell = { mutable v : float }
(** A rank passed by reference.  A record of floats only is stored
    flat, so reading or writing [v] never allocates.  The caller owns
    the cell; no operation here keeps it. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty queue. [capacity] pre-sizes the internal arrays. *)

val length : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
(** O(1) membership for key. *)

val push : t -> key:int -> rank:cell -> unit
(** Insert [key] at [rank.v].  Raises [Invalid_argument] if the key is
    negative or already queued. *)

val min_rank : t -> cell -> unit
(** [min_rank t c] stores the minimum entry's rank in [c.v]: [infinity]
    when empty. *)

val min_key : t -> int
(** The minimum entry's key, without removing it; [-1] when empty. *)

val pop_key : t -> int
(** Remove the minimum entry and return its key; [-1] when empty. *)

val pop_at_most : t -> cell -> int
(** [pop_at_most t bound] is [pop_key t] when the minimum rank is at most
    [bound.v] (by [Float.compare]), and [-1] otherwise, empty included. *)

val remove : t -> int -> bool
(** Remove the key wherever it sits; [false] when it was not queued. *)
