(** Virtual-interface frames and header rewriting.

    The paper's Linux bridge (Fig. 3) presents applications with one
    virtual interface holding an arbitrary address; before transmission on
    the physical interface chosen by the scheduler, the bridge rewrites
    the Ethernet/IP headers to the physical interface's addresses and fixes
    the checksum.  This module models that datapath: compact address
    records, a frame type carrying a header, and a rewrite step that
    recomputes a real 16-bit ones'-complement checksum — so the profiler
    pays a realistic per-packet cost. *)

type addr = { mac : int64;  (** 48-bit MAC in the low bits *) ip : int32 }

val addr : mac:int64 -> ip:int32 -> addr
(** Raises [Invalid_argument] if [mac] does not fit 48 bits. *)

type frame = {
  src : addr;
  dst : addr;
  payload : Midrr_core.Packet.t;
  checksum : int;  (** header checksum, 16-bit *)
}

val make : src:addr -> dst:addr -> Midrr_core.Packet.t -> frame
(** Build a frame with a freshly computed checksum. *)

val rewrite : frame -> src:addr -> dst:addr -> frame
(** Replace addresses (virtual -> physical) and recompute the checksum. *)

val checksum_valid : frame -> bool
[@@midrr.lint.allow "R9"] (* test_bridge checks emitted frames with these *)
(** Recompute and compare — the invariant tests rely on. *)

val header_checksum : src:addr -> dst:addr -> payload_len:int -> int
[@@midrr.lint.allow "R9"]
(** The 16-bit internet checksum over the modeled header fields. *)
