(* Per-interface weighted fair queueing as a Sched_prog program: the
   rank is the flow's finish tag F_ij, the floor is the interface's
   virtual time v_j, and service advances both.  [rank], [floor_rank]
   and [on_service] run on every decision, so they hash nothing and
   allocate nothing: v_j sits in a [Pifo.cell] in an array indexed by
   interface id, and each flow's tags in a short array of (interface,
   cell) pairs, scanned by interface, in an array indexed by flow id.
   Every float is read from and written into a cell, so none is boxed;
   only a flow's first service on an interface grows its tag array. *)

module P = struct
  type tag = { iface : Types.iface_id; finish : Pifo.cell }

  type t = {
    idle : Pifo.cell; (* never written: fills the offline slots *)
    mutable vtimes : Pifo.cell array; (* by interface id *)
    (* by flow id, a fresh [||] per registration, so a reused flow id
       never inherits stale tags; one cell per interface served *)
    mutable tags : tag array array;
  }

  let name = "wfq"

  let create () =
    let idle = { Pifo.v = neg_infinity } in
    { idle; vtimes = Array.make 16 idle; tags = Array.make 64 [||] }

  let membership = `Backlogged

  let rec tag_index tags i iface =
    if i >= Array.length tags then -1
    else if Int.equal tags.(i).iface iface then i
    else tag_index tags (i + 1) iface

  let rank t ~flow ~iface ~weight:_ ~head:_ ~backlog:_ (into : Pifo.cell) =
    let tags = t.tags.(flow) in
    let i = tag_index tags 0 iface in
    into.v <- (if i < 0 then 0.0 else tags.(i).finish.v)

  let floor_rank t ~iface (into : Pifo.cell) =
    into.v <-
      (if iface < Array.length t.vtimes then t.vtimes.(iface).v
       else neg_infinity)

  let skip_rank _ ~flow:_ ~iface:_ (into : Pifo.cell) = into.v <- 0.0

  (* A flow's first service on an interface: the only allocation. *)
  let add_tag t ~flow ~iface finish =
    let tag = { iface; finish = { v = finish } } in
    t.tags.(flow) <- Array.append t.tags.(flow) [| tag |]
  [@@midrr.lint.allow "R7"]

  (* Only an online interface serves, and only a registered flow: both
     have their slots ([on_iface_add], [on_flow_add]). *)
  let on_service t ~flow ~iface ~weight ~size ~(rank : Pifo.cell) =
    t.vtimes.(iface).v <- rank.v;
    let finish = rank.v +. (Float.of_int size /. weight) in
    let tags = t.tags.(flow) in
    let i = tag_index tags 0 iface in
    if i >= 0 then tags.(i).finish.v <- finish
    else add_tag t ~flow ~iface finish

  let rerank_on_enqueue = false
  let rerank_after_service = `Served_iface
  let rerank_on_weight = false

  let on_flow_add t ~flow ~weight:_ =
    t.tags <- Int_tbl.grow t.tags flow [||];
    t.tags.(flow) <- [||]

  let on_flow_remove t ~flow = t.tags.(flow) <- [||]

  let on_iface_add t ~iface =
    t.vtimes <- Int_tbl.grow t.vtimes iface t.idle;
    t.vtimes.(iface) <- { v = 0.0 }

  let on_iface_remove t ~iface = t.vtimes.(iface) <- t.idle
end

include Sched_prog.Make (P)
