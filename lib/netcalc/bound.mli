(** Per-flow performance bounds from arrival and service curves. *)

val delay : arrival:Curve.t -> service:Curve.t -> float
(** Worst-case delay (seconds): the horizontal deviation
    {!Curve.hdev} between the flow's arrival curve and its residual
    service curve.  [infinity] when the flow's long-run rate exceeds
    its guaranteed rate (no bound exists). *)

val backlog : arrival:Curve.t -> service:Curve.t -> float
[@@midrr.lint.allow "R9"] (* test_bounds checks vdev's closed form by it *)
(** Worst-case backlog (bytes): the vertical deviation. *)

val tightness : bound:float -> observed:float -> float option
(** [observed /. bound] when the bound is finite and positive — the
    harness's regression signal in both directions (a ratio above 1 is
    a violated bound; a ratio collapsing toward 0 is a bound gone
    vacuous).  [None] for unbounded rows. *)
