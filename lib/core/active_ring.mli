(** Intrusive circular doubly-linked rings over int slots.

    Like {!Ring}, but the prev/next node state lives {e inside} the
    element's own storage instead of in a separately allocated
    [Ring.node], so linking and unlinking an element allocates nothing.
    An element is a non-negative int {e slot} into a caller-owned
    {e node store}, a flat [int array] in which slot [s] owns the
    {!stride} ints from [s * stride]: the ring keeps prev and next in the
    first {!fields} of them and leaves the rest to the caller.  The fast
    DRR engine threads one ring per interface through its pool of
    per-(flow, interface) link slots: only backlogged, flag-eligible
    flows are linked, which is what makes a scheduling decision
    O(active flows) rather than O(total flows).

    Heads and links are ints, with {!nil} for "none", so no operation
    allocates.  A slot is linked iff its prev int is a slot: the caller
    fills a new store's ints with {!nil}, and {!remove} puts {!nil} back,
    so a fresh or removed slot reads unlinked.  Every operation on a
    ring must be given the store its slots live in; the store may be
    replaced by a larger copy between operations (the caller's pool
    growing).

    Ordering semantics are identical to {!Ring} — same head movement on
    removal, same insert-before-head meaning of [push_back] — so an engine
    built on either structure visits flows in the same order. *)

type t
(** A ring's head and length; its links live in the node store. *)

val nil : int
(** -1: the head of an empty ring, and the prev and next of an unlinked
    slot. *)

val stride : int
(** Ints per slot in a node store: 8, one cache line of ints. *)

val fields : int
(** Ints of each slot the ring owns (2), at the start of the slot; the
    caller's own fields start at this offset. *)

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val head : t -> int
(** The head slot, or {!nil} when the ring is empty. *)

val linked : int array -> int -> bool
(** Whether the slot is linked into some ring. *)

val push_back : t -> int array -> int -> unit
(** Insert at the "end" of the ring: just before the head, so a full
    traversal starting at the head visits it last.  Raises
    [Invalid_argument] if the slot is already linked. *)

val insert_before : t -> int array -> anchor:int -> int -> unit
(** Insert immediately before [anchor].  The head does not move.  Raises
    [Invalid_argument] on an unlinked anchor or an already linked
    slot. *)

val remove : t -> int array -> int -> unit
(** Unlink the slot; if it was the head, the head moves to its
    successor.  Raises [Invalid_argument] if not linked. *)

val next : t -> int array -> int -> int
(** Clockwise successor, wrapping.  Raises [Invalid_argument] on an
    unlinked slot or empty ring. *)

val to_list : t -> int array -> int list
(** The slots from the head on, in ring order. *)
