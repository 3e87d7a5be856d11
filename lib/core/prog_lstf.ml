(* Least slack time first as a Sched_prog program.  Slack = deadline
   minus remaining service time: the deadline is derived from weight as
   in [Prog_edf], the remaining service time from the flow's backlog at
   a fixed reference drain rate.  A flow with more queued work has less
   slack and is served earlier than an equal-deadline peer.  "Now" is
   common to every candidate at a decision, so it drops out of the
   order and the scheduler stays clockless. *)

let deadline_base = 1.0 (* seconds of relative deadline at weight 1 *)
let drain_bytes_per_sec = 125_000.0 (* 1 Mb/s reference service rate *)

module P = struct
  type t = unit

  let name = "lstf"
  let create () = ()
  let membership = `Backlogged

  let rank () ~flow:_ ~iface:_ ~weight ~head ~backlog (into : Pifo.cell) =
    into.v <-
      (head : Packet.t).arrival
      +. (deadline_base /. weight)
      -. (Float.of_int backlog /. drain_bytes_per_sec)

  let floor_rank () ~iface:_ (into : Pifo.cell) = into.v <- neg_infinity
  let skip_rank () ~flow:_ ~iface:_ (into : Pifo.cell) = into.v <- 0.0
  let on_service () ~flow:_ ~iface:_ ~weight:_ ~size:_ ~rank:_ = ()
  let rerank_on_enqueue = true
  let rerank_after_service = `All_ifaces
  let rerank_on_weight = true
  let on_flow_add () ~flow:_ ~weight:_ = ()
  let on_flow_remove () ~flow:_ = ()
  let on_iface_add () ~iface:_ = ()
  let on_iface_remove () ~iface:_ = ()
end

include Sched_prog.Make (P)
