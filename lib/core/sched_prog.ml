(* The shared substrate lifting a PROG to Sched_intf.S.  See the .mli for
   the model.  This module is on the lint hot-path list: no polymorphic
   compare/equality, membership via Iset/Pifo, all state inside [t].

   Invariants on the two per-interface PIFOs:
   - [`Backlogged]: fresh+stale together hold exactly the flows that are
     backlogged and allow the interface; [stale] holds those whose rank
     is at or below the program's floor, ordered by flow id.
   - [`All_flows]: [fresh] holds every registered flow except ones
     registered before the interface came up, which [next_packet] sweeps
     in at the back of the rotation in ascending id order.
     [stale] stays empty (the floor is neg_infinity by contract). *)

module Iset = Set.Make (Int)

module type PROG = sig
  type t

  val name : string
  val create : unit -> t
  val membership : [ `Backlogged | `All_flows ]

  val rank :
    t ->
    flow:Types.flow_id ->
    iface:Types.iface_id ->
    weight:float ->
    head:Packet.t ->
    backlog:int ->
    float

  val floor_rank : t -> iface:Types.iface_id -> float
  val skip_rank : t -> flow:Types.flow_id -> iface:Types.iface_id -> float
  val admit : t -> Packet.t -> backlog:int -> bool

  val on_service :
    t ->
    flow:Types.flow_id ->
    iface:Types.iface_id ->
    weight:float ->
    size:int ->
    rank:float ->
    unit

  val rerank_on_enqueue : bool
  val rerank_after_service : [ `Served_iface | `All_ifaces ]
  val rerank_on_weight : bool
  val on_flow_add : t -> flow:Types.flow_id -> weight:float -> unit
  val on_flow_remove : t -> flow:Types.flow_id -> unit
  val on_iface_add : t -> iface:Types.iface_id -> unit
  val on_iface_remove : t -> iface:Types.iface_id -> unit
end

type flow = {
  f_id : Types.flow_id;
  mutable weight : float;
  mutable allowed : Iset.t;
  queue : Pktqueue.t;
  mutable served : int;
  served_on : (Types.iface_id, int) Hashtbl.t;
}

type iface = {
  i_id : Types.iface_id;
  fresh : Pifo.t; (* rank above the floor: ordered by (rank, flow id) *)
  stale : Pifo.t; (* clamped at the floor: ordered by flow id alone *)
}

module Make (P : PROG) = struct
  type t = {
    queue_capacity : int option;
    prog : P.t;
    flows_tbl : (Types.flow_id, flow) Hashtbl.t;
    ifaces_tbl : (Types.iface_id, iface) Hashtbl.t;
    mutable t_sink : (Midrr_obs.Event.t -> unit) option;
  }

  let create ?queue_capacity () =
    {
      queue_capacity;
      prog = P.create ();
      flows_tbl = Hashtbl.create 64;
      ifaces_tbl = Hashtbl.create 16;
      t_sink = None;
    }

  let prog t = t.prog
  let name _ = P.name
  let emit t ev = match t.t_sink with None -> () | Some s -> s ev
  let set_sink t s = t.t_sink <- s
  let sink t = t.t_sink

  let flow_state t f =
    match Hashtbl.find_opt t.flows_tbl f with
    | Some fs -> fs
    | None -> invalid_arg "Sched_prog: unknown flow"

  let iface_state t j =
    match Hashtbl.find_opt t.ifaces_tbl j with
    | Some s -> s
    | None -> invalid_arg "Sched_prog: unknown interface"

  let has_iface t j = Hashtbl.mem t.ifaces_tbl j
  let has_flow t f = Hashtbl.mem t.flows_tbl f

  let flows t =
    Hashtbl.fold (fun f _ acc -> f :: acc) t.flows_tbl []
    |> List.sort Int.compare

  let ifaces t =
    Hashtbl.fold (fun j _ acc -> j :: acc) t.ifaces_tbl []
    |> List.sort Int.compare

  let head_of q =
    match Pktqueue.peek q with Some p -> p | None -> Packet.none

  (* [P.rank] may mutate program state (round robin's position counter),
     so call it exactly once per (re)insertion. *)
  let rank_of t fs j =
    P.rank t.prog ~flow:fs.f_id ~iface:j ~weight:fs.weight
      ~head:(head_of fs.queue)
      ~backlog:(Pktqueue.backlog_bytes fs.queue)

  let eligible fs j =
    Iset.mem j fs.allowed && not (Pktqueue.is_empty fs.queue)

  let heap_insert t ifc fs =
    let r = rank_of t fs ifc.i_id in
    if Float.compare r (P.floor_rank t.prog ~iface:ifc.i_id) <= 0 then
      Pifo.push ifc.stale ~tie:fs.f_id ~key:fs.f_id ~rank:neg_infinity
    else Pifo.push ifc.fresh ~tie:fs.f_id ~key:fs.f_id ~rank:r

  let heap_remove ifc f =
    ignore (Pifo.remove ifc.fresh f : bool);
    ignore (Pifo.remove ifc.stale f : bool)

  let heap_mem ifc f = Pifo.mem ifc.fresh f || Pifo.mem ifc.stale f

  let heap_update t ifc fs =
    if heap_mem ifc fs.f_id then begin
      heap_remove ifc fs.f_id;
      heap_insert t ifc fs
    end

  let add_iface t j =
    if has_iface t j then invalid_arg "Sched_prog.add_iface: duplicate";
    let ifc = { i_id = j; fresh = Pifo.create (); stale = Pifo.create () } in
    Hashtbl.replace t.ifaces_tbl j ifc;
    P.on_iface_add t.prog ~iface:j;
    (match P.membership with
    | `Backlogged ->
        List.iter
          (fun f ->
            let fs = flow_state t f in
            if eligible fs j then heap_insert t ifc fs)
          (flows t)
    | `All_flows -> ());
    emit t (Midrr_obs.Event.Iface_up { iface = j })

  let remove_iface t j =
    (match Hashtbl.find_opt t.ifaces_tbl j with
    | Some _ ->
        Hashtbl.remove t.ifaces_tbl j;
        P.on_iface_remove t.prog ~iface:j
    | None -> ());
    emit t (Midrr_obs.Event.Iface_down { iface = j })

  let add_flow t ~flow ~weight ~allowed =
    if has_flow t flow then invalid_arg "Sched_prog.add_flow: duplicate";
    if not (weight > 0.0) then invalid_arg "Sched_prog.add_flow: weight <= 0";
    let fs =
      {
        f_id = flow;
        weight;
        allowed = Iset.of_list allowed;
        queue = Pktqueue.create ?capacity_bytes:t.queue_capacity ();
        served = 0;
        served_on = Hashtbl.create 8;
      }
    in
    Hashtbl.replace t.flows_tbl flow fs;
    P.on_flow_add t.prog ~flow ~weight;
    (match P.membership with
    | `Backlogged -> () (* empty queue: nothing to link yet *)
    | `All_flows -> Hashtbl.iter (fun _ ifc -> heap_insert t ifc fs) t.ifaces_tbl);
    emit t (Midrr_obs.Event.Flow_add { flow; weight })

  let remove_flow t f =
    (match Hashtbl.find_opt t.flows_tbl f with
    | Some _ ->
        Hashtbl.remove t.flows_tbl f;
        Hashtbl.iter (fun _ ifc -> heap_remove ifc f) t.ifaces_tbl;
        P.on_flow_remove t.prog ~flow:f
    | None -> ());
    emit t (Midrr_obs.Event.Flow_remove { flow = f })

  let set_weight t f w =
    if not (w > 0.0) then invalid_arg "Sched_prog.set_weight: weight <= 0";
    let fs = flow_state t f in
    fs.weight <- w;
    if P.rerank_on_weight then
      Hashtbl.iter (fun _ ifc -> heap_update t ifc fs) t.ifaces_tbl;
    emit t (Midrr_obs.Event.Weight_change { flow = f; weight = w })

  let set_allowed t f allowed =
    let fs = flow_state t f in
    fs.allowed <- Iset.of_list allowed;
    match P.membership with
    | `All_flows -> ()
    | `Backlogged ->
        Hashtbl.iter
          (fun j ifc ->
            let should = eligible fs j in
            if should && not (heap_mem ifc f) then heap_insert t ifc fs
            else if (not should) && heap_mem ifc f then heap_remove ifc f)
          t.ifaces_tbl

  let allowed_ifaces t f = Iset.elements (flow_state t f).allowed

  let enqueue t (p : Packet.t) =
    match Hashtbl.find_opt t.flows_tbl p.flow with
    | None ->
        emit t (Midrr_obs.Event.Drop { flow = p.flow; bytes = p.size });
        false
    | Some fs ->
        if not (P.admit t.prog p ~backlog:(Pktqueue.backlog_bytes fs.queue))
        then begin
          emit t (Midrr_obs.Event.Drop { flow = p.flow; bytes = p.size });
          false
        end
        else begin
          let was_empty = Pktqueue.is_empty fs.queue in
          let accepted = Pktqueue.push fs.queue p in
          (if accepted then
             match P.membership with
             | `All_flows -> ()
             | `Backlogged ->
                 if was_empty then
                   Iset.iter
                     (fun j ->
                       match Hashtbl.find_opt t.ifaces_tbl j with
                       | Some ifc -> heap_insert t ifc fs
                       | None -> ())
                     fs.allowed
                 else if P.rerank_on_enqueue then
                   Iset.iter
                     (fun j ->
                       match Hashtbl.find_opt t.ifaces_tbl j with
                       | Some ifc -> heap_update t ifc fs
                       | None -> ())
                     fs.allowed);
          emit t
            (if accepted then
               Midrr_obs.Event.Enqueue { flow = p.flow; bytes = p.size }
             else Midrr_obs.Event.Drop { flow = p.flow; bytes = p.size });
          accepted
        end

  (* Entries whose rank fell at or below the advancing floor migrate to
     the id-ordered stale heap.  Each entry migrates at most once between
     its services, so decisions stay O(log n) amortized. *)
  let migrate t ifc =
    let fl = P.floor_rank t.prog ~iface:ifc.i_id in
    if Float.compare fl neg_infinity > 0 then
      while
        (not (Pifo.is_empty ifc.fresh))
        && Float.compare (Pifo.min_rank ifc.fresh) fl <= 0
      do
        let f = Pifo.pop_key ifc.fresh in
        Pifo.push ifc.stale ~tie:f ~key:f ~rank:neg_infinity
      done

  let serve t ifc fs ~rank =
    let j = ifc.i_id in
    let pkt = Pktqueue.pop_exn fs.queue in
    fs.served <- fs.served + pkt.size;
    let prev = Option.value (Hashtbl.find_opt fs.served_on j) ~default:0 in
    Hashtbl.replace fs.served_on j (prev + pkt.size);
    P.on_service t.prog ~flow:fs.f_id ~iface:j ~weight:fs.weight
      ~size:pkt.size ~rank;
    pkt

  let serve_backlogged t ifc f ~rank =
    let fs = flow_state t f in
    let pkt = serve t ifc fs ~rank in
    (if Pktqueue.is_empty fs.queue then
       Hashtbl.iter
         (fun _ other ->
           if not (Int.equal other.i_id ifc.i_id) then heap_remove other f)
         t.ifaces_tbl
     else begin
       heap_insert t ifc fs;
       match P.rerank_after_service with
       | `Served_iface -> ()
       | `All_ifaces ->
           Hashtbl.iter
             (fun _ other ->
               if not (Int.equal other.i_id ifc.i_id) then
                 heap_update t other fs)
             t.ifaces_tbl
     end);
    emit t
      (Midrr_obs.Event.Serve
         { flow = f; iface = ifc.i_id; bytes = pkt.size; deficit = 0.0 });
    Some pkt

  (* A stale entry is served at the floor; a fresh one at its own rank,
     read before the pop. *)
  let next_backlogged t ifc =
    migrate t ifc;
    if not (Pifo.is_empty ifc.stale) then
      serve_backlogged t ifc (Pifo.pop_key ifc.stale)
        ~rank:(P.floor_rank t.prog ~iface:ifc.i_id)
    else if not (Pifo.is_empty ifc.fresh) then
      let rank = Pifo.min_rank ifc.fresh in
      serve_backlogged t ifc (Pifo.pop_key ifc.fresh) ~rank
    else None

  (* Sweep in flows registered before this interface existed, ascending
     id, at the back of the rotation.  O(1) when nothing is missing. *)
  let refresh t ifc =
    if Pifo.length ifc.fresh < Hashtbl.length t.flows_tbl then
      List.iter
        (fun f ->
          if not (Pifo.mem ifc.fresh f) then heap_insert t ifc (flow_state t f))
        (flows t)

  let next_rotation t ifc =
    refresh t ifc;
    let j = ifc.i_id in
    let rec lap k =
      if Int.equal k 0 then None
      else
        let rank = Pifo.min_rank ifc.fresh in
        let f = Pifo.pop_key ifc.fresh in
        let fs = flow_state t f in
        if eligible fs j then begin
          let pkt = serve t ifc fs ~rank in
          heap_insert t ifc fs (* back of the rotation, served or not *);
          emit t
            (Midrr_obs.Event.Serve
               { flow = f; iface = j; bytes = pkt.size; deficit = 0.0 });
          Some pkt
        end
        else begin
          Pifo.push ifc.fresh ~tie:f ~key:f
            ~rank:(P.skip_rank t.prog ~flow:f ~iface:j);
          lap (k - 1)
        end
    in
    lap (Pifo.length ifc.fresh)

  let next_packet t j =
    let ifc = iface_state t j in
    match P.membership with
    | `Backlogged -> next_backlogged t ifc
    | `All_flows -> next_rotation t ifc

  let backlog_bytes t f = Pktqueue.backlog_bytes (flow_state t f).queue
  let backlog_packets t f = Pktqueue.length (flow_state t f).queue
  let is_backlogged t f = not (Pktqueue.is_empty (flow_state t f).queue)
  let served_bytes t f = (flow_state t f).served

  let served_bytes_on t ~flow ~iface =
    Option.value
      (Hashtbl.find_opt (flow_state t flow).served_on iface)
      ~default:0

  let packed t =
    let module M = struct
      type nonrec t = t

      let name = name
      let add_iface = add_iface
      let remove_iface = remove_iface
      let has_iface = has_iface
      let ifaces = ifaces
      let add_flow = add_flow
      let remove_flow = remove_flow
      let has_flow = has_flow
      let flows = flows
      let set_weight = set_weight
      let set_allowed = set_allowed
      let allowed_ifaces = allowed_ifaces
      let enqueue = enqueue
      let next_packet = next_packet
      let backlog_bytes = backlog_bytes
      let backlog_packets = backlog_packets
      let is_backlogged = is_backlogged
      let served_bytes = served_bytes
      let served_bytes_on = served_bytes_on
      let set_sink = set_sink
      let sink = sink
    end in
    Sched_intf.Packed ((module M), t)
end
