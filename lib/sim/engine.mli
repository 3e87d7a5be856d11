(** Discrete-event simulation engine.

    Events are closures executed at their scheduled virtual time; executing
    an event may schedule further events.  Time never flows backwards:
    scheduling before the current time raises. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] pre-sizes the event heap (see {!Event_queue.create}) for
    trace-driven loads of known size. *)

val now : t -> float
(** Current virtual time in seconds (0 before the first event). *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Run the closure at absolute time [at >= now]. *)

val schedule_in : t -> after:float -> (unit -> unit) -> unit
(** Run the closure [after >= 0] seconds from now. *)

val step : t -> bool
[@@midrr.lint.allow "R9"] (* test_sim's engine model drives the loop by these *)
(** Execute the earliest pending event; [false] when none remain. *)

val run : ?until:float -> t -> unit
(** Execute events in order until the queue empties or the next event is
    scheduled after [until]; time is then advanced to [until] if given. *)

val pending : t -> int [@@midrr.lint.allow "R9"]

val executed : t -> int [@@midrr.lint.allow "R9"]
(** Events executed so far. *)
