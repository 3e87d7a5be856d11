(** Bounded single-producer/single-consumer ring mailbox.

    The cross-shard channel of the sharded engine: the routing domain
    pushes operations, exactly one shard domain pops them.  The ring is
    a power-of-two array with monotonically increasing head (consumer)
    and tail (producer) cursors; a slot's payload is published by the
    producer's [Atomic.set] on the tail and acquired by the consumer's
    [Atomic.get], so the non-atomic array accesses never race (OCaml's
    memory model orders them through the atomic cursor pair).  Each side
    additionally keeps a private cached copy of the other side's cursor
    and refreshes it only on apparent full/empty, so the steady-state
    hot ops touch one shared atomic each.

    Single producer, single consumer is a {e contract}, not a checked
    property: at most one domain may ever call the push side and at most
    one the pop side.

    The hot operations [try_push] and [try_pop] are allocation-free
    (proven by the R7 typed lint): a push is an array store plus an
    atomic increment, a pop is an array load plus an atomic increment.
    [try_pop] therefore returns the ring's [dummy] element — not an
    option — when the ring is empty; compare with [==] against the
    dummy you supplied, or use {!pop_opt} off the hot path. *)

type 'a t

val create : dummy:'a -> int -> 'a t
(** [create ~dummy capacity] builds an empty ring holding at least
    [capacity] elements (rounded up to a power of two, minimum 1).
    [dummy] fills empty slots — consumed slots are reset to it so the
    ring never retains a popped element for the GC — and is what
    {!try_pop}/{!pop} return on empty.  The dummy itself must never be
    pushed: "try_pop returned the dummy" is the ring's only emptiness
    signal.  Raises [Invalid_argument] when
    [capacity <= 0] or exceeds [Sys.max_array_length / 2]. *)

val capacity : 'a t -> int
[@@midrr.lint.allow "R9"] (* test_shard checks the mailbox ring by these *)
(** The rounded-up power-of-two capacity. *)

val length : 'a t -> int [@@midrr.lint.allow "R9"]
(** Elements currently buffered.  Exact only from one of the two
    endpoint domains; a third-party reader sees a point-in-time bound. *)

val is_empty : 'a t -> bool [@@midrr.lint.allow "R9"]

val try_push : 'a t -> 'a -> bool [@@midrr.lint.allow "R9"]
(** Producer side.  [false] when the ring is full (backpressure — the
    element is {e not} stored); the producer decides whether to spin,
    batch, or shed.  Allocation-free. *)

val push : 'a t -> 'a -> unit
(** [try_push] in a [Domain.cpu_relax] spin until space appears.  Only
    correct when exactly one consumer is guaranteed to drain the ring. *)

val try_pop : 'a t -> 'a [@@midrr.lint.allow "R9"]
(** Consumer side.  Pops the oldest element, or returns the [dummy] the
    ring was created with when empty.  Allocation-free. *)

val pop : 'a t -> 'a
(** [try_pop] in a [Domain.cpu_relax] spin until an element appears. *)

val push_slice : 'a t -> 'a array -> pos:int -> len:int -> int
(** [push_slice t src ~pos ~len] pushes as many of
    [src.(pos) .. src.(pos + len - 1)] as currently fit, in order, with a
    {e single} tail publication, and returns how many were pushed (0 when
    full; elements beyond the return count are not stored).  FIFO order
    is preserved across any mix of [push]/[push_slice].  The batch
    amortizes the shared-cursor traffic that dominates per-element cost
    under cross-domain cache contention.  Raises [Invalid_argument] when
    [pos]/[len] fall outside [src]. *)

val pop_slice : 'a t -> 'a array -> pos:int -> len:int -> int
(** [pop_slice t dst ~pos ~len] pops up to [len] oldest elements into
    [dst.(pos) ..], overwriting, with a single head publication, and
    returns how many were popped (0 when empty).  Consumed ring slots
    are reset to the dummy, as with {!try_pop}.  Raises
    [Invalid_argument] when [pos]/[len] fall outside [dst]. *)
