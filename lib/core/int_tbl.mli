(** Tables keyed by flow or interface id, without hashing.

    Ids are small non-negative ints, so a table is an array indexed by
    the id, grown to the largest id stored: a lookup is one
    bounds-checked load and allocates nothing. *)

val grow : 'a array -> int -> 'a -> 'a array
(** [grow slots id nil] is [slots] when it has a slot for [id], and
    otherwise a copy grown to [id + 1] slots plus the old length, the new
    slots holding [nil].  Dense ascending ids still at least double the
    length, while a sparse first id (4096, say) costs about [id] slots,
    not the next doubling past it.  [id] must be non-negative. *)

(** Option slots, [None] for an id never set. *)
module Slots : sig
  type 'a t

  val create : unit -> 'a t

  val find : 'a t -> int -> 'a option
  (** [None] for an id never set, negative ids included. *)

  val set : 'a t -> int -> 'a -> unit
  (** Raises [Invalid_argument] on a negative id. *)

  val iter : (int -> 'a -> unit) -> 'a t -> unit
  (** In ascending id order. *)
end

(** One flow's byte counts per interface: [iface; count] pairs in a flat
    [int array], in the order the interfaces were first credited.  A flow
    uses a handful of interfaces, so a scan finds its pair without
    hashing, and only a credit to a new interface with every pair taken
    allocates. *)
module Cells : sig
  val create : int -> int array
  (** Free pairs for [n] interfaces, at least one. *)

  val get : int array -> Types.iface_id -> int
  (** The interface's count; 0 when it has none. *)

  val credit : int array -> Types.iface_id -> int -> int array
  (** [credit cells iface n] adds [n] to the interface's count and
      returns the cells: [cells] itself, or, when a new interface finds
      every pair taken, a copy with twice the pairs. *)
end
