(* Strict priority as a Sched_prog program: rank = -weight, so the
   heaviest flow monopolizes every interface it allows until it drains
   (ties toward the smaller flow id).  The only dynamic input is the
   weight, hence [rerank_on_weight]. *)

module P = struct
  type t = unit

  let name = "sprio"
  let create () = ()
  let membership = `Backlogged
  let rank () ~flow:_ ~iface:_ ~weight ~head:_ ~backlog:_ (into : Pifo.cell) =
    into.v <- -.weight

  let floor_rank () ~iface:_ (into : Pifo.cell) = into.v <- neg_infinity
  let skip_rank () ~flow:_ ~iface:_ (into : Pifo.cell) = into.v <- 0.0
  let on_service () ~flow:_ ~iface:_ ~weight:_ ~size:_ ~rank:_ = ()
  let rerank_on_enqueue = false
  let rerank_after_service = `Served_iface
  let rerank_on_weight = true
  let on_flow_add () ~flow:_ ~weight:_ = ()
  let on_flow_remove () ~flow:_ = ()
  let on_iface_add () ~iface:_ = ()
  let on_iface_remove () ~iface:_ = ()
end

include Sched_prog.Make (P)
