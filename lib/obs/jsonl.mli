(** JSON-lines export of the event stream.

    One object per line, streamed as events arrive (no buffering beyond
    the channel's), so arbitrarily long runs can be traced without a
    ring buffer.  Schema: every line has ["t"] (seconds, platform clock)
    and ["ev"] ({!Event.label}); ["flow"], ["iface"] and ["bytes"] appear
    when the event carries them, plus ["deficit"] on [serve] and
    ["weight"] on [flow_add] / [weight_change]. *)

val to_string : time:float -> Event.t -> string
[@@midrr.lint.allow "R9"] (* tests pin the line the JSONL sink writes *)
(** One JSONL line, without the trailing newline. *)

val sink : out_channel -> Sink.t
(** Stream every event to the channel.  The caller owns the channel
    (flush/close). *)
