(** Packets as scheduled by the core.

    A packet is immutable: its flow, size and arrival time are fixed at
    creation.  Every {!create} returns a distinct packet, so packets are
    told apart by physical equality ([==]). *)

type t = private {
  flow : Types.flow_id;
  size : int;  (** bytes, > 0 *)
  arrival : float;  (** seconds *)
}

val create : flow:Types.flow_id -> size:int -> arrival:float -> t
(** Allocate a packet.  Raises [Invalid_argument] if [size <= 0]. *)

val none : t
(** A statically allocated sentinel meaning "no packet" ([flow = -1],
    [size = 0]).  Used by allocation-free hot-path APIs
    ({!Drr_engine.next_packet_noalloc}) and as array filler in packet
    ring buffers; compare with [==] (or {!is_none}).  Never schedule it. *)

val is_none : t -> bool
(** [is_none p] is [p == none]. *)

val pp : Format.formatter -> t -> unit
