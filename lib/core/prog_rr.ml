(* Round robin as a Sched_prog program in [`All_flows] mode: rank is a
   per-interface monotone position counter, so "rank this flow" means
   "append it to the rotation", and skipping an ineligible flow moves it
   to the back of the rotation.  Positions are exact in a float far
   beyond any run length (2^53). *)

module P = struct
  type t = { counters : (Types.iface_id, int ref) Hashtbl.t }

  let name = "rr"
  let create () = { counters = Hashtbl.create 16 }
  let membership = `All_flows

  let next_pos t iface =
    let c =
      match Hashtbl.find_opt t.counters iface with
      | Some c -> c
      | None ->
          let c = ref 0 in
          Hashtbl.replace t.counters iface c;
          c
    in
    incr c;
    Float.of_int !c

  let rank t ~flow:_ ~iface ~weight:_ ~head:_ ~backlog:_ = next_pos t iface
  let floor_rank _ ~iface:_ = neg_infinity
  let skip_rank t ~flow:_ ~iface = next_pos t iface
  let admit _ _ ~backlog:_ = true
  let on_service _ ~flow:_ ~iface:_ ~weight:_ ~size:_ ~rank:_ = ()
  let rerank_on_enqueue = false
  let rerank_after_service = `Served_iface
  let rerank_on_weight = false
  let on_flow_add _ ~flow:_ ~weight:_ = ()
  let on_flow_remove _ ~flow:_ = ()
  let on_iface_add _ ~iface:_ = ()
  let on_iface_remove t ~iface = Hashtbl.remove t.counters iface
end

include Sched_prog.Make (P)
