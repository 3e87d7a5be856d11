(** Intrusive circular doubly-linked lists.

    Each interface's DRR round keeps its backlogged eligible flows in a ring
    so the scheduler can advance its cursor, insert a newly backlogged flow
    before the cursor (i.e. at the tail of the current round), and remove an
    emptied flow — all in O(1). *)

type 'a t
(** A ring of values of type ['a]. *)

type 'a node
(** A handle to one element, valid until removed. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val value : 'a node -> 'a

val push_back : 'a t -> 'a -> 'a node
(** Insert at the "end" of the ring: just before the head, so a full
    traversal starting at the head visits it last. *)

val insert_before : 'a t -> 'a node -> 'a -> 'a node
(** Insert a new element immediately before the given node. *)

val remove : 'a t -> 'a node -> unit
(** Unlink the node.  Safe to call once; raises [Invalid_argument] if the
    node was already removed. *)

val is_member : 'a node -> bool
(** Whether the node is still linked into a ring. *)

val head : 'a t -> 'a node option

val next : 'a t -> 'a node -> 'a node
(** Clockwise successor, wrapping.  Raises [Invalid_argument] on a removed
    node or empty ring. *)

val to_list : 'a t -> 'a list
