(** HTTP byte-range chunking.

    The proxy of paper §5 splits one GET into multiple byte-range requests
    so different parts of a single response can arrive over different
    interfaces.  This module sizes those ranges. *)

val next_length : total_bytes:int -> chunk_size:int -> sent:int -> int
(** The length of the range requested after [sent] bytes: [chunk_size]
    bytes, the last one possibly shorter, and [0] when the transfer is
    fully covered, so the ranges walked from [sent = 0] tile
    [0, total_bytes) without gaps or overlaps — the splice invariant the
    proxy relies on to reassemble responses.  Raises [Invalid_argument]
    when [chunk_size <= 0] or [sent < 0]. *)
