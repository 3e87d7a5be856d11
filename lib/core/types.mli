(** Shared identifiers, preference lists and unit helpers for the
    scheduler core.

    Flows and interfaces are identified by small integers chosen by the
    caller; the scheduler treats them as opaque keys.  Rates are bits per
    second, sizes are bytes, times are seconds — all conversions go through
    the helpers here so the units stay consistent across the repository. *)

type flow_id = int
type iface_id = int

(** {1 Interface preferences}

    Every scheduler holds a flow's Π_i row as a canonical list:
    interface ids in strictly ascending order. *)

val canonical : iface_id list -> iface_id list
(** The list sorted and deduplicated; the list itself, copying nothing,
    when it already is canonical (the common case). *)

val mem_sorted : iface_id -> iface_id list -> bool
(** Membership in a canonical list, stopping at the first larger id. *)

(** {1 Units} *)

val mbps : float -> float
(** [mbps x] is [x] megabits/s in bits/s. *)

val kbps : float -> float
(** [kbps x] is [x] kilobits/s in bits/s. *)

val to_mbps : float -> float
(** bits/s to Mb/s. *)

val tx_time : bytes:int -> rate:float -> float
(** Transmission time in seconds of [bytes] on a [rate] bit/s line.
    Raises [Invalid_argument] when [rate <= 0]. *)
