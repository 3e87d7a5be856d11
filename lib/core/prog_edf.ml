(* Earliest deadline first as a Sched_prog program.  The Sched_intf API
   carries no explicit deadlines, so the relative deadline is derived
   from the one knob it does carry: weight, with heavier = tighter —
   deadline(pkt) = arrival + deadline_base / weight.  Rank = the
   head-of-line packet's deadline.  Schedulers are clockless; "now" is
   common to every candidate at a decision, so absolute deadlines order
   identically to time-to-deadline. *)

let deadline_base = 1.0 (* seconds of relative deadline at weight 1 *)

module P = struct
  type t = unit

  let name = "edf"
  let create () = ()
  let membership = `Backlogged

  let rank () ~flow:_ ~iface:_ ~weight ~head ~backlog:_ (into : Pifo.cell) =
    into.v <- (head : Packet.t).arrival +. (deadline_base /. weight)

  let floor_rank () ~iface:_ (into : Pifo.cell) = into.v <- neg_infinity
  let skip_rank () ~flow:_ ~iface:_ (into : Pifo.cell) = into.v <- 0.0
  let on_service () ~flow:_ ~iface:_ ~weight:_ ~size:_ ~rank:_ = ()

  (* The queue is FIFO, so the head — and with it the rank — changes
     only when the head is served, never on enqueue to a non-empty
     queue. *)
  let rerank_on_enqueue = false
  let rerank_after_service = `All_ifaces
  let rerank_on_weight = true
  let on_flow_add () ~flow:_ ~weight:_ = ()
  let on_flow_remove () ~flow:_ = ()
  let on_iface_add () ~iface:_ = ()
  let on_iface_remove () ~iface:_ = ()
end

include Sched_prog.Make (P)
