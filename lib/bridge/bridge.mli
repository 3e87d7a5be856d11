(** The packet-steering bridge of paper §5 / Figure 3.

    Applications send through one virtual interface, each packet already
    tagged with its flow ([Packet.t]'s [flow]); the bridge hands it to the
    packet scheduler and — when a physical port is free — pulls the
    scheduler's decision, rewrites the headers from the virtual to the
    chosen physical interface and emits the frame.  This mirrors the
    1,010-line Linux kernel module functionally: virtual address
    transparency, per-port rewriting, and a scheduling decision on every
    transmit opportunity.  The kernel module's five-tuple classifier has
    no counterpart here: {!send} takes the flow id as given. *)

open Midrr_core

type t

val create : sched:Sched_intf.packed -> unit -> t

val add_port :
  t -> Types.iface_id -> local:Vif.addr -> gateway:Vif.addr -> unit
(** Attach a physical interface with its own addresses. *)

val register_flow :
  t -> flow:Types.flow_id -> ?weight:float -> allowed:Types.iface_id list -> unit -> unit
(** Install the user's preferences for a flow. *)

val send : t -> Packet.t -> bool
(** Application-side entry: accept a packet addressed to the virtual
    interface, queued under its [flow] field.  [false] when the flow is
    unknown or its queue is full. *)

val transmit : t -> Types.iface_id -> Vif.frame option
[@@midrr.lint.allow "R9"] (* test_bridge checks the section 5 datapath *)
(** Pull one frame for the physical port: asks the scheduler which packet
    to send and rewrites its headers for that port.  [None] when nothing is
    eligible. *)

val tx_frames : t -> Types.iface_id -> int [@@midrr.lint.allow "R9"]
(** Frames emitted through the port so far. *)

val rewrites : t -> int [@@midrr.lint.allow "R9"]
(** Total header rewrites performed. *)
