(** Per-(flow, interface) byte tallies.

    The one cell table {!Netsim} and the HTTP proxy share: each
    platform's datapath calls {!add} on every completed transmission,
    and the measurement windows read cells back through {!copy} and
    {!since}. *)

type t

val create : unit -> t

val add : t -> flow:int -> iface:int -> bytes:int -> unit

val cell : t -> flow:int -> iface:int -> int
(** Cumulative bytes of [flow] on [iface] (0 if never served). *)

val copy : t -> t
(** Independent snapshot of the current tallies. *)

val since : t -> t -> flow:int -> iface:int -> int
(** [since cur base ~flow ~iface] is the bytes accumulated in the cell
    after [base] was captured: [cell cur - cell base]. *)
