(* Shortest remaining processing time as a Sched_prog program: rank =
   the flow's remaining backlog in bytes, so the flow closest to
   draining finishes first (the classic mean-flow-completion-time
   optimal policy).  Backlog changes on every enqueue and service, hence
   the rerank flags. *)

module P = struct
  type t = unit

  let name = "srpt"
  let create () = ()
  let membership = `Backlogged
  let rank () ~flow:_ ~iface:_ ~weight:_ ~head:_ ~backlog (into : Pifo.cell) =
    into.v <- Float.of_int backlog

  let floor_rank () ~iface:_ (into : Pifo.cell) = into.v <- neg_infinity
  let skip_rank () ~flow:_ ~iface:_ (into : Pifo.cell) = into.v <- 0.0
  let on_service () ~flow:_ ~iface:_ ~weight:_ ~size:_ ~rank:_ = ()
  let rerank_on_enqueue = true
  let rerank_after_service = `All_ifaces
  let rerank_on_weight = false
  let on_flow_add () ~flow:_ ~weight:_ = ()
  let on_flow_remove () ~flow:_ = ()
  let on_iface_add () ~iface:_ = ()
  let on_iface_remove () ~iface:_ = ()
end

include Sched_prog.Make (P)
