(* Per-interface weighted fair queueing as a Sched_prog program: the
   rank is the flow's finish tag F_ij, the floor is the interface's
   virtual time v_j, and service advances both.  [rank], [floor_rank]
   and [on_service] run on every decision, so their lookups go through
   [Int_tbl.find]: no polymorphic hash, no option. *)

module P = struct
  type t = {
    vtimes : float ref Int_tbl.t;
    (* flow -> iface -> F_ij; a fresh table per registration, so a
       reused flow id never inherits stale tags. *)
    finish : float Int_tbl.t Int_tbl.t;
  }

  let name = "wfq"
  let create () = { vtimes = Int_tbl.create 16; finish = Int_tbl.create 64 }
  let membership = `Backlogged

  let rank t ~flow ~iface ~weight:_ ~head:_ ~backlog:_ =
    match Int_tbl.find (Int_tbl.find t.finish flow) iface with
    | tag -> tag
    | exception Not_found -> 0.0

  let floor_rank t ~iface =
    match Int_tbl.find t.vtimes iface with
    | v -> !v
    | exception Not_found -> neg_infinity

  let skip_rank _ ~flow:_ ~iface:_ = 0.0
  let admit _ _ ~backlog:_ = true

  (* Only an online interface serves, and only a registered flow: both
     have their entries ([on_iface_add], [on_flow_add]). *)
  let on_service t ~flow ~iface ~weight ~size ~rank =
    Int_tbl.find t.vtimes iface := rank;
    Int_tbl.replace (Int_tbl.find t.finish flow) iface
      (rank +. (Float.of_int size /. weight))

  let rerank_on_enqueue = false
  let rerank_after_service = `Served_iface
  let rerank_on_weight = false

  let on_flow_add t ~flow ~weight:_ =
    Int_tbl.replace t.finish flow (Int_tbl.create 8)

  let on_flow_remove t ~flow = Int_tbl.remove t.finish flow
  let on_iface_add t ~iface = Int_tbl.replace t.vtimes iface (ref 0.0)
  let on_iface_remove t ~iface = Int_tbl.remove t.vtimes iface
end

include Sched_prog.Make (P)

let virtual_time t j = P.floor_rank (prog t) ~iface:j
