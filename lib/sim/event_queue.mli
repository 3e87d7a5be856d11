(** Priority queue of timestamped items (binary heap).

    Items with equal timestamps dequeue in insertion order, which keeps
    simulations deterministic when several events coincide.  The heap
    orders flat arrays of keys — unboxed [float] times, [int] tie-break
    sequence numbers and [int] slot indices — while each item is parked
    once in a slot table, so pushes allocate nothing once capacity is
    reserved and {!min_time}, {!due} and {!pop_min} build no option or
    tuple. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ~capacity ()] reserves room for [capacity] entries up front,
    so trace-driven loads of known size never re-double the heap.  The
    queue still grows past [capacity] on demand.  Raises
    [Invalid_argument] on a negative capacity. *)

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Raises [Invalid_argument] on a NaN timestamp. *)

val min_time : 'a t -> float
(** Earliest timestamp.  Raises [Invalid_argument] when empty. *)

val due : 'a t -> until:float -> bool
(** Whether the queue holds an item timestamped at or before [until]. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest item.  Raises [Invalid_argument] when
    empty. *)
