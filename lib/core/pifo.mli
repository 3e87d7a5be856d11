(** Index-tracked priority queue: the push-in-first-out substrate behind
    {!Sched_prog}.

    A PIFO holds integer keys (flow ids) ordered by a [float] rank with an
    [int] tie-breaker, smallest first.  Unlike a plain binary heap it
    tracks each key's slot, so membership tests are O(1) and removing or
    re-ranking an arbitrary key — the operations flow churn and
    programmable reranking need — is O(log n) rather than O(n).

    Ties: when [push] is given no [~tie], keys of equal rank pop in push
    order (stable FIFO), via an internal monotone counter.  Callers that
    need a semantic tie-break (e.g. "smaller flow id first") pass [~tie]
    explicitly; [(rank, tie)] pairs must then be unique per key for the
    pop order to be deterministic.

    Keys must be non-negative and small-dense (they index an internal
    slot array), which flow ids are. *)

type t

type elt = { key : int; rank : float; tie : int }

val create : ?capacity:int -> unit -> t
(** An empty queue. [capacity] pre-sizes the internal arrays. *)

val length : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
(** O(1) membership for key. *)

val find : t -> int -> elt option
(** The key's current entry, if queued. O(1). *)

val push : ?tie:int -> t -> key:int -> rank:float -> unit
(** Insert [key] at [rank].  Raises [Invalid_argument] if the key is
    negative or already queued.  Without [~tie], equal ranks pop in
    insertion order. *)

val min_rank : t -> float
(** The minimum entry's rank, [infinity] when empty.  Allocation-free,
    like {!pop_key}: together they read and take the minimum on the
    per-decision path without boxing an [elt]. *)

val pop_key : t -> int
(** Remove the minimum entry and return its key; [-1] when empty. *)

val remove : t -> int -> bool
(** Remove the key wherever it sits; [false] when it was not queued. *)

val update : ?tie:int -> t -> key:int -> rank:float -> unit
(** Re-rank a queued key in place (O(log n)).  Keeps the key's existing
    tie unless [~tie] is given.  Raises [Invalid_argument] when the key
    is not queued. *)

val clear : t -> unit

val iter : (elt -> unit) -> t -> unit
(** Visit every entry in unspecified (heap) order. *)
