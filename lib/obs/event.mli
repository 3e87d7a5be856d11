(** The typed scheduler-event stream.

    Every observable state change in a scheduler or platform substrate is
    one event.  Producers ({!Midrr_core.Drr_engine}, the PIFO programs of
    [Sched_prog] — WFQ and round robin among them — [Oracle], the
    simulator, the HTTP proxy) emit into an optional sink; consumers
    (ring-buffer recorder, per-cell counters, the fairness monitor, the
    JSONL exporter, the metrics fold) subscribe to the one stream instead
    of polling three incompatible substrates.

    {b Two shapes.}  On the bus an event is a {!record}: one mutable
    block that each producer instance allocates once and refills for
    every emission, so emitting allocates nothing.  Off the bus, {!t} is
    the cold decoded view ({!decode}) for exporters, [pp] and test
    assertions.

    {b Ownership.}  The record belongs to its producer.  A sink reads it
    during the call and must not keep it after returning (copy the
    fields, as {!Columns} does, or {!decode} it), must not write it, and
    must not call back into the producer: the next emission overwrites
    the record in place.

    Flow and interface identifiers are plain [int]s so this library stays
    dependency-free; they are the same values as
    [Midrr_core.Types.flow_id] / [iface_id]. *)

type kind =
  | Enqueue  (** a packet was accepted into the flow's queue *)
  | Drop  (** a packet was rejected (unknown flow or full queue) *)
  | Serve
      (** the scheduling decision: [iface] dequeued [bytes] from [flow];
          the float is the remaining per-link deficit after the send (0
          for schedulers without deficit state) *)
  | Turn
      (** the interface's round-robin cursor granted the flow a service
          turn (quantum top-up in DRR terms) *)
  | Flag_reset
      (** miDRR skipped the flow and consumed one unit of its service
          flag/counter (Algorithm 3.2's skip-and-clear) *)
  | Iface_up
  | Iface_down
  | Flow_add  (** the float is the flow's weight *)
  | Flow_remove
  | Weight_change  (** the float is the new weight *)
  | Complete
      (** platform-level delivery: the bytes finished transmission on the
          interface (emitted by the simulator / proxy, not by schedulers) *)

type num = { mutable value : float }
(** The record's float part.  An all-float record is stored flat, so
    [ev.num.value <- x] is a direct store that never boxes [x]; a float
    passed to a non-inlined setter, or stored in a mixed record, would
    box. *)

type record = {
  mutable kind : kind;
  mutable flow : int;
  mutable iface : int;
  mutable bytes : int;
  num : num;  (** deficit of [Serve]; weight of [Flow_add]/[Weight_change] *)
}
(** The bus payload.  Only the fields the [kind] carries are meaningful;
    the setters below write the others to [-1]. *)

val create : unit -> record
(** A fresh record, for one producer instance (never one per event). *)

(** {2 Producer-side setters}

    Each writes the kind and every int field.  [Serve], [Flow_add] and
    [Weight_change] also carry a float: the producer stores it right
    after, with [ev.num.value <- x]. *)

val set_enqueue : record -> flow:int -> bytes:int -> unit
val set_drop : record -> flow:int -> bytes:int -> unit
val set_serve : record -> flow:int -> iface:int -> bytes:int -> unit
val set_turn : record -> flow:int -> iface:int -> unit
val set_flag_reset : record -> flow:int -> iface:int -> unit
val set_iface_up : record -> iface:int -> unit
val set_iface_down : record -> iface:int -> unit
val set_flow_add : record -> flow:int -> unit
val set_flow_remove : record -> flow:int -> unit
val set_weight_change : record -> flow:int -> unit
val set_complete : record -> flow:int -> iface:int -> bytes:int -> unit

(** {2 The decoded view} *)

type t =
  | Enqueue of { flow : int; bytes : int }
  | Drop of { flow : int; bytes : int }
  | Serve of { flow : int; iface : int; bytes : int; deficit : float }
  | Turn of { flow : int; iface : int }
  | Flag_reset of { flow : int; iface : int }
  | Iface_up of { iface : int }
  | Iface_down of { iface : int }
  | Flow_add of { flow : int; weight : float }
  | Flow_remove of { flow : int }
  | Weight_change of { flow : int; weight : float }
  | Complete of { flow : int; iface : int; bytes : int }

val decode : record -> t
(** The record's current contents as an immutable value (allocates). *)

val encode : record -> t -> unit
(** Refill the record from a decoded event: the inverse of {!decode}, for
    feeding recorded or hand-built events to a sink. *)

val flow : t -> int option
(** The flow the event concerns, when it concerns one. *)

val iface : t -> int option

val bytes : t -> int option
(** Byte payload of [Enqueue]/[Drop]/[Serve]/[Complete] events. *)

val label : t -> string
(** Short lowercase tag, e.g. ["serve"]; stable across versions (used as
    the ["ev"] field of the JSONL export). *)

val pp : Format.formatter -> t -> unit

(** {2 Copies that outlive the call}

    Struct-of-arrays storage for sinks that keep events: one flat column
    per field, so a copy is five stores and allocates nothing. *)
module Columns : sig
  type event := t
  type t

  val create : int -> t
  (** Room for [n > 0] events. *)

  val grow : t -> unit
  (** Double the capacity, keeping the stored events. *)

  val store : t -> int -> record -> unit
  (** Copy the record into slot [i], within the room made so far. *)

  val decode : t -> int -> event
end
