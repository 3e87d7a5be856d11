(** Hash tables keyed by flow or interface id.

    An id hashes to itself, so a per-packet lookup costs no call into the
    polymorphic hash and, through [find] with [Not_found], no option. *)

include Hashtbl.S with type key = int

(** Dense tables: a slot per id in an array indexed by the id, grown to
    the largest id stored, for ids that start near 0.  A lookup is one
    bounds-checked load and returns the stored option, so it allocates
    nothing. *)
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
