(** Bounded ring-buffer recorder over the event stream.

    Retains the most recent [capacity] timestamped events and exposes
    them through direct folds over the ring — no intermediate list is
    materialized, so windowed queries ({!fold_between}) and tallies stay
    O(capacity) time and O(1) extra space even at full buffers.

    The ring copies each event's fields into flat columns, so {!record}
    allocates nothing and keeps no reference to the producer's record;
    folds hand out the decoded view. *)

type entry = { time : float; event : Event.t }

type t

val create : ?capacity:int -> unit -> t
(** Keep at most [capacity] most-recent events (default 65536). *)

val sink : t -> Sink.t
(** The recorder as a subscriber: attach it anywhere a {!Sink.t} goes. *)

val record : t -> time:float -> Event.record -> unit

val length : t -> int
(** Entries currently retained. *)

val total : t -> int
(** Entries ever recorded. *)

val dropped : t -> int
(** Entries discarded because the buffer wrapped. *)

val clear : t -> unit

val fold : t -> init:'a -> f:('a -> entry -> 'a) -> 'a
(** Fold over retained entries, oldest first. *)

val iter : t -> f:(entry -> unit) -> unit

val fold_between :
  t -> t0:float -> t1:float -> init:'a -> f:('a -> entry -> 'a) -> 'a
(** Fold over retained entries with [t0 <= time < t1], oldest first. *)

val entries : t -> entry list
(** Retained entries, oldest first.  Materializes a list; prefer
    {!fold} in hot paths. *)

val pp : Format.formatter -> t -> unit
