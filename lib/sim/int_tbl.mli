(** Hash tables keyed by flow or interface id.

    An id hashes to itself, so a per-packet lookup costs no call into the
    polymorphic hash and, through [find] with [Not_found], no option. *)

include Hashtbl.S with type key = int
