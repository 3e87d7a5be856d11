(** Token-bucket rate limiting.

    The paper motivates interface preferences partly by {e capped} cellular
    plans; a production scheduler pairs preferences with enforcement.  A
    bucket of capacity [burst] bytes fills at [rate] bytes/s; sending
    [n] bytes requires [n] tokens.  Used by {!Midrr_sim.Netsim}-based
    scenarios to cap a flow's or an interface's long-term throughput. *)

type t

val create : rate:float -> burst:float -> t
(** [rate] in bytes/s (> 0), [burst] in bytes (> 0).  The bucket starts
    full. *)

val available : t -> now:float -> float
[@@midrr.lint.allow "R9"] (* tests check try_consume's refill with it *)
(** Tokens available at time [now] (monotone in [now]). *)

val try_consume : t -> now:float -> bytes:int -> bool
(** Take [bytes] tokens if available; [false] leaves the bucket
    unchanged. *)

val time_until : t -> now:float -> bytes:int -> float
(** Seconds from [now] until [bytes] tokens will be available (0 when
    already available).  [infinity] if [bytes] exceeds the burst size
    beyond a scale-relative float tolerance ({!Midrr_flownet.Feq}); the
    boundary case [bytes = burst] is finite.  Whenever the result is
    finite, {!try_consume} succeeds once that much time has elapsed. *)
