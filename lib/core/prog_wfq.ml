(* Per-interface weighted fair queueing as a Sched_prog program: the
   rank is the flow's finish tag F_ij, the floor is the interface's
   virtual time v_j, and service advances both.  [rank] and
   [floor_rank] run on every decision, so they look up with
   [Hashtbl.find] rather than boxing through [find_opt]. *)

module P = struct
  type t = {
    vtimes : (Types.iface_id, float ref) Hashtbl.t;
    (* flow -> iface -> F_ij; a fresh table per registration, so a
       reused flow id never inherits stale tags. *)
    finish : (Types.flow_id, (Types.iface_id, float) Hashtbl.t) Hashtbl.t;
  }

  let name = "wfq"
  let create () = { vtimes = Hashtbl.create 16; finish = Hashtbl.create 64 }
  let membership = `Backlogged

  let rank t ~flow ~iface ~weight:_ ~head:_ ~backlog:_ =
    match Hashtbl.find (Hashtbl.find t.finish flow) iface with
    | tag -> tag
    | exception Not_found -> 0.0

  let floor_rank t ~iface =
    match Hashtbl.find t.vtimes iface with
    | v -> !v
    | exception Not_found -> neg_infinity

  let skip_rank _ ~flow:_ ~iface:_ = 0.0
  let admit _ _ ~backlog:_ = true

  let on_service t ~flow ~iface ~weight ~size ~rank =
    (match Hashtbl.find_opt t.vtimes iface with
    | Some v -> v := rank
    | None -> ());
    let tags =
      match Hashtbl.find_opt t.finish flow with
      | Some tags -> tags
      | None ->
          let tags = Hashtbl.create 8 in
          Hashtbl.replace t.finish flow tags;
          tags
    in
    Hashtbl.replace tags iface (rank +. (Float.of_int size /. weight))

  let rerank_on_enqueue = false
  let rerank_after_service = `Served_iface
  let rerank_on_weight = false
  let on_flow_add t ~flow ~weight:_ = Hashtbl.replace t.finish flow (Hashtbl.create 8)
  let on_flow_remove t ~flow = Hashtbl.remove t.finish flow
  let on_iface_add t ~iface = Hashtbl.replace t.vtimes iface (ref 0.0)
  let on_iface_remove t ~iface = Hashtbl.remove t.vtimes iface
end

include Sched_prog.Make (P)

let virtual_time t j = P.floor_rank (prog t) ~iface:j
