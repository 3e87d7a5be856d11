(* Round robin as a Sched_prog program in [`All_flows] mode: rank is a
   per-interface monotone position counter, so "rank this flow" means
   "append it to the rotation", and skipping an ineligible flow moves it
   to the back of the rotation.  Positions are exact in a float far
   beyond any run length (2^53). *)

module P = struct
  type t = { mutable counters : int array (* by interface id *) }

  let name = "rr"
  let create () = { counters = Array.make 16 0 }
  let membership = `All_flows

  (* Ranks are only asked for on online interfaces. *)
  let next_pos t iface (into : Pifo.cell) =
    let c = t.counters.(iface) + 1 in
    t.counters.(iface) <- c;
    into.v <- Float.of_int c

  let rank t ~flow:_ ~iface ~weight:_ ~head:_ ~backlog:_ into =
    next_pos t iface into

  let floor_rank _ ~iface:_ (into : Pifo.cell) = into.v <- neg_infinity
  let skip_rank t ~flow:_ ~iface into = next_pos t iface into
  let on_service _ ~flow:_ ~iface:_ ~weight:_ ~size:_ ~rank:_ = ()
  let rerank_on_enqueue = false
  let rerank_after_service = `Served_iface
  let rerank_on_weight = false
  let on_flow_add _ ~flow:_ ~weight:_ = ()
  let on_flow_remove _ ~flow:_ = ()

  let on_iface_add t ~iface =
    t.counters <- Int_tbl.grow t.counters iface 0;
    t.counters.(iface) <- 0

  (* [on_iface_add] restarts the counter. *)
  let on_iface_remove _ ~iface:_ = ()
end

include Sched_prog.Make (P)
