(** HTTP byte-range chunking.

    The proxy of paper §5 splits one GET into multiple byte-range requests
    so different parts of a single response can arrive over different
    interfaces.  This module plans those ranges. *)

type range = { offset : int; length : int }

val plan : total_bytes:int -> chunk_size:int -> range list
(** Split a transfer into consecutive ranges of [chunk_size] bytes (the
    last one possibly shorter).  Raises [Invalid_argument] when
    [total_bytes < 0] or [chunk_size <= 0]. *)

val next : total_bytes:int -> chunk_size:int -> sent:int -> range option
(** The next range after [sent] bytes have been requested; [None] when the
    transfer is fully covered.  Streaming variant of {!plan} for endless or
    very large transfers. *)

val next_length : total_bytes:int -> chunk_size:int -> sent:int -> int
(** The length of {!next}'s range, [0] when the transfer is fully
    covered: the allocation-free form, for a caller that needs only the
    length.  Raises as {!next} does. *)

val is_contiguous : range list -> bool
(** Whether ranges tile [0, total) without gaps or overlaps — the splice
    invariant the proxy relies on to reassemble responses. *)

val pp : Format.formatter -> range -> unit
