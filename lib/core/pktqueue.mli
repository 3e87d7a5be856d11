(** Per-flow FIFO packet queues with byte accounting and optional drop-tail
    bounds. *)

type t

val create : ?capacity_bytes:int -> unit -> t
(** [create ?capacity_bytes ()] makes an empty queue.  When
    [capacity_bytes] is given, packets that would push the backlog above it
    are dropped (drop-tail) and counted. *)

val push : t -> Packet.t -> bool
(** Enqueue; returns [false] when dropped by the capacity bound. *)

val pop : t -> Packet.t option

val pop_exn : t -> Packet.t
(** Allocation-free [pop] for hot paths that already know the queue is
    non-empty.  Raises [Invalid_argument] on an empty queue. *)

val peek : t -> Packet.t
(** Head-of-line packet without removing it; {!Packet.none} when the
    queue is empty. *)

val head_size : t -> int
(** Size in bytes of the head-of-line packet; 0 when empty.  This is the
    [Size_i] of the paper's pseudocode. *)

val backlog_bytes : t -> int
(** Total queued bytes — the paper's [BL_i]. *)

val length : t -> int

val is_empty : t -> bool

val drops : t -> int
(** Packets rejected so far by the capacity bound. *)
