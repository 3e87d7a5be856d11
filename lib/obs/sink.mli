(** Event sinks: where producers hand off the event stream.

    Two shapes exist on purpose.  Schedulers in [midrr_core] have no
    notion of time, so they call a {e raw} sink ([Event.record -> unit]);
    platforms that own a clock (the simulator, the HTTP proxy, the
    bridge) accept a {e timed} sink ({!t}) from their caller and
    {!stamp} it with their clock before installing it on the scheduler.
    Consumers are written once, against timed events.

    The hook is zero-cost when disabled: producers store [raw option] and
    fill their event record only inside the [Some] branch, so with no
    sink attached the only added work per decision is one mutable-field
    match.  With a sink attached, emission allocates nothing either: the
    record is the producer's own, refilled per event.

    {b Contract.}  A sink reads the record during the call.  It must not
    keep it after returning — copy the fields ({!Event.Columns}) or
    {!Event.decode} it — must not write it, and must not call back into
    the producer that emitted it. *)

type raw = Event.record -> unit
(** What schedulers call: an event, no timestamp. *)

type t = time:float -> Event.record -> unit
(** What platforms and consumers exchange: events stamped with the
    platform's clock (simulated seconds, or seconds since start for the
    wall-clock bridge). *)

val tee : t -> t -> t
(** [tee a b] delivers every event to [a] then [b]: both read the same
    record. *)

val stamp : clock:(unit -> float) -> t -> raw
(** Close a timed sink over a clock, producing the raw sink a scheduler
    can call.  A clock that returns an already-boxed float (a record
    field, as [Engine.now] does) stamps without allocating; one that
    computes a fresh float per call boxes it, two words per event. *)
