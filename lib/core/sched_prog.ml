(* The shared substrate lifting a PROG to Sched_intf.S.  See the .mli for
   the model.  This module is on the lint hot-path list: no polymorphic
   compare/equality, all state inside [t].  The per-packet path (enqueue,
   next_packet and the re-ranks they trigger) allocates nothing of its
   own and hashes nothing: flows and interfaces sit in slot arrays
   indexed by id, with the sentinels [nil_flow] and [nil_iface] in the
   empty slots, served bytes sit in per-flow [Int_tbl.Cells] sized by
   Π_i, Π_i is a canonical ascending list walked by top-level loops, and
   no call builds a closure or an option.

   Invariants on the two per-interface PIFOs:
   - [`Backlogged]: fresh+stale together hold exactly the flows that are
     backlogged and allow the interface; [stale] holds those whose rank
     is at or below the program's floor, ordered by flow id.  A flow
     therefore sits only in the PIFOs of interfaces in its Π_i, which is
     all that linking, draining and re-ranking it visit.
   - [`All_flows]: [fresh] holds every registered flow except ones
     registered before the interface came up, which [next_packet] sweeps
     in at the back of the rotation in ascending id order.
     [stale] stays empty (the floor is neg_infinity by contract). *)

module Event = Midrr_obs.Event

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
    Pifo.cell ->
    unit

  val floor_rank : t -> iface:Types.iface_id -> Pifo.cell -> unit

  val skip_rank :
    t -> flow:Types.flow_id -> iface:Types.iface_id -> Pifo.cell -> unit

  val on_service :
    t ->
    flow:Types.flow_id ->
    iface:Types.iface_id ->
    weight:float ->
    size:int ->
    rank:Pifo.cell ->
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
  mutable allowed : Types.iface_id list; (* Π_i, strictly ascending *)
  queue : Pktqueue.t;
  mutable served : int;
  mutable served_on : int array; (* [Int_tbl.Cells]: iface -> bytes *)
}

type iface = {
  i_id : Types.iface_id;
  fresh : Pifo.t; (* rank above the floor: ordered by (rank, flow id) *)
  stale : Pifo.t; (* clamped at the floor: ordered by flow id alone *)
}

(* The sentinels filling empty slots.  No path writes either: every path
   that writes a flow or an interface reaches it through a lookup that
   rejects them, so schedulers can share them. *)
let nil_flow =
  {
    f_id = -1;
    weight = 1.0;
    allowed = [];
    queue = Pktqueue.create ();
    served = 0;
    served_on = [||];
  }

let nil_iface =
  {
    i_id = -1;
    fresh = Pifo.create ~capacity:1 ();
    stale = Pifo.create ~capacity:1 ();
  }

(* The ids of the occupied slots, ascending. *)
let ids slots nil =
  let acc = ref [] in
  for id = Array.length slots - 1 downto 0 do
    if slots.(id) != nil then acc := id :: !acc
  done;
  !acc

(* The [`Backlogged] walks over the online interfaces of Π_i. *)
type walk = Link | Rerank | Unlink

module Make (P : PROG) = struct
  type t = {
    queue_capacity : int option;
    prog : P.t;
    mutable flow_slots : flow array; (* indexed by flow id *)
    mutable iface_slots : iface array; (* indexed by interface id *)
    mutable nflows : int;
    mutable t_sink : Midrr_obs.Sink.raw option;
    t_ev : Event.record; (* refilled per emission, see [Event] *)
    (* The cells every rank crosses [P] and [Pifo] in: [rank] takes what
       [P.rank]/[P.skip_rank] write and what [P.on_service] reads,
       [floor] what [P.floor_rank] writes; [bottom] stays at
       [neg_infinity], the rank of every stale entry. *)
    rank : Pifo.cell;
    floor : Pifo.cell;
    bottom : Pifo.cell;
  }

  let create ?queue_capacity () =
    {
      queue_capacity;
      prog = P.create ();
      flow_slots = Array.make 64 nil_flow;
      iface_slots = Array.make 16 nil_iface;
      nflows = 0;
      t_sink = None;
      t_ev = Event.create ();
      rank = { v = 0.0 };
      floor = { v = neg_infinity };
      bottom = { v = neg_infinity };
    }

  let name _ = P.name

  (* Emission of the record the caller just filled.  The enqueue and serve
     paths match on [t_sink] first, so without a sink they never touch the
     record. *)
  let emit t = match t.t_sink with None -> () | Some s -> s t.t_ev

  (* Programs keep no deficit: their Serve carries 0. *)
  let emit_serve t ~flow ~iface ~bytes =
    match t.t_sink with
    | None -> ()
    | Some s ->
        Event.set_serve t.t_ev ~flow ~iface ~bytes;
        t.t_ev.num.value <- 0.0;
        s t.t_ev

  let set_sink t s = t.t_sink <- s
  let sink t = t.t_sink

  (* [nil_flow]/[nil_iface] when the id has none. *)
  let flow_slot t f =
    if f >= 0 && f < Array.length t.flow_slots then t.flow_slots.(f)
    else nil_flow

  let iface_slot t j =
    if j >= 0 && j < Array.length t.iface_slots then t.iface_slots.(j)
    else nil_iface

  let flow_state t f =
    let fs = flow_slot t f in
    if fs == nil_flow then invalid_arg "Sched_prog: unknown flow" else fs

  let iface_state t j =
    let ifc = iface_slot t j in
    if ifc == nil_iface then invalid_arg "Sched_prog: unknown interface"
    else ifc

  let has_iface t j = iface_slot t j != nil_iface
  let has_flow t f = flow_slot t f != nil_flow
  let flows t = ids t.flow_slots nil_flow
  let ifaces t = ids t.iface_slots nil_iface

  (* The online interfaces, ascending id: the control path only. *)
  let iter_ifaces t f =
    Array.iter (fun ifc -> if ifc != nil_iface then f ifc) t.iface_slots

  (* [P.rank] may mutate program state (round robin's position counter),
     so call it exactly once per (re)insertion. *)
  let rank_of t fs j =
    P.rank t.prog ~flow:fs.f_id ~iface:j ~weight:fs.weight
      ~head:(Pktqueue.peek fs.queue)
      ~backlog:(Pktqueue.backlog_bytes fs.queue)
      t.rank

  let eligible fs j =
    Types.mem_sorted j fs.allowed && not (Pktqueue.is_empty fs.queue)

  let heap_insert t ifc fs =
    rank_of t fs ifc.i_id;
    P.floor_rank t.prog ~iface:ifc.i_id t.floor;
    if Float.compare t.rank.v t.floor.v <= 0 then
      Pifo.push ifc.stale ~key:fs.f_id ~rank:t.bottom
    else Pifo.push ifc.fresh ~key:fs.f_id ~rank:t.rank

  let heap_remove ifc f =
    ignore (Pifo.remove ifc.fresh f : bool);
    ignore (Pifo.remove ifc.stale f : bool)

  let heap_mem ifc f = Pifo.mem ifc.fresh f || Pifo.mem ifc.stale f

  let heap_update t ifc fs =
    if heap_mem ifc fs.f_id then begin
      heap_remove ifc fs.f_id;
      heap_insert t ifc fs
    end

  (* Every [`Backlogged] rank is pure, so the order of the visits is
     free.  [Rerank] and [Unlink] pass over an interface that does not
     hold the flow, such as the one that just popped it. *)
  let rec walk t op fs = function
    | [] -> ()
    | j :: rest ->
        let ifc = iface_slot t j in
        (if ifc != nil_iface then
           match op with
           | Link -> heap_insert t ifc fs
           | Rerank -> heap_update t ifc fs
           | Unlink -> heap_remove ifc fs.f_id);
        walk t op fs rest

  let add_iface t j =
    if j < 0 then invalid_arg "Sched_prog.add_iface: negative interface id";
    if has_iface t j then invalid_arg "Sched_prog.add_iface: duplicate";
    let ifc = { i_id = j; fresh = Pifo.create (); stale = Pifo.create () } in
    t.iface_slots <- Int_tbl.grow t.iface_slots j nil_iface;
    t.iface_slots.(j) <- ifc;
    P.on_iface_add t.prog ~iface:j;
    (match P.membership with
    | `Backlogged ->
        Array.iter
          (fun fs ->
            if fs != nil_flow && eligible fs j then heap_insert t ifc fs)
          t.flow_slots
    | `All_flows -> ());
    Event.set_iface_up t.t_ev ~iface:j;
    emit t

  let remove_iface t j =
    if has_iface t j then begin
      t.iface_slots.(j) <- nil_iface;
      P.on_iface_remove t.prog ~iface:j
    end;
    Event.set_iface_down t.t_ev ~iface:j;
    emit t

  let add_flow t ~flow ~weight ~allowed =
    if flow < 0 then invalid_arg "Sched_prog.add_flow: negative flow id";
    if has_flow t flow then invalid_arg "Sched_prog.add_flow: duplicate";
    if not (weight > 0.0) then invalid_arg "Sched_prog.add_flow: weight <= 0";
    let allowed = Types.canonical allowed in
    let fs =
      {
        f_id = flow;
        weight;
        allowed;
        queue = Pktqueue.create ?capacity_bytes:t.queue_capacity ();
        served = 0;
        served_on = Int_tbl.Cells.create (List.length allowed);
      }
    in
    t.flow_slots <- Int_tbl.grow t.flow_slots flow nil_flow;
    t.flow_slots.(flow) <- fs;
    t.nflows <- t.nflows + 1;
    P.on_flow_add t.prog ~flow ~weight;
    (match P.membership with
    | `Backlogged -> () (* empty queue: nothing to link yet *)
    | `All_flows -> iter_ifaces t (fun ifc -> heap_insert t ifc fs));
    Event.set_flow_add t.t_ev ~flow;
    t.t_ev.num.value <- weight;
    emit t

  let remove_flow t f =
    if has_flow t f then begin
      t.flow_slots.(f) <- nil_flow;
      t.nflows <- t.nflows - 1;
      iter_ifaces t (fun ifc -> heap_remove ifc f);
      P.on_flow_remove t.prog ~flow:f
    end;
    Event.set_flow_remove t.t_ev ~flow:f;
    emit t

  let set_weight t f w =
    if not (w > 0.0) then invalid_arg "Sched_prog.set_weight: weight <= 0";
    let fs = flow_state t f in
    fs.weight <- w;
    if P.rerank_on_weight then iter_ifaces t (fun ifc -> heap_update t ifc fs);
    Event.set_weight_change t.t_ev ~flow:f;
    t.t_ev.num.value <- w;
    emit t

  let set_allowed t f allowed =
    let fs = flow_state t f in
    fs.allowed <- Types.canonical allowed;
    match P.membership with
    | `All_flows -> ()
    | `Backlogged ->
        iter_ifaces t (fun ifc ->
            let should = eligible fs ifc.i_id in
            if should && not (heap_mem ifc f) then heap_insert t ifc fs
            else if (not should) && heap_mem ifc f then heap_remove ifc f)

  let allowed_ifaces t f = (flow_state t f).allowed

  let drop t (p : Packet.t) =
    Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
    emit t;
    false

  let enqueue t (p : Packet.t) =
    let fs = flow_slot t p.flow in
    if fs == nil_flow then drop t p
    else begin
      let was_empty = Pktqueue.is_empty fs.queue in
      let accepted = Pktqueue.push fs.queue p in
      (if accepted then
         match P.membership with
         | `All_flows -> ()
         | `Backlogged ->
             if was_empty then walk t Link fs fs.allowed
             else if P.rerank_on_enqueue then walk t Rerank fs fs.allowed);
      (match t.t_sink with
      | None -> ()
      | Some s ->
          if accepted then Event.set_enqueue t.t_ev ~flow:p.flow ~bytes:p.size
          else Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
          s t.t_ev);
      accepted
    end

  (* Entries whose rank fell at or below the advancing floor migrate to
     the id-ordered stale heap.  Each entry migrates at most once between
     its services, so decisions stay O(log n) amortized.  Leaves the
     floor in [t.floor]. *)
  let migrate t ifc =
    P.floor_rank t.prog ~iface:ifc.i_id t.floor;
    if Float.compare t.floor.v neg_infinity > 0 then begin
      let f = ref (Pifo.pop_at_most ifc.fresh t.floor) in
      while !f >= 0 do
        Pifo.push ifc.stale ~key:!f ~rank:t.bottom;
        f := Pifo.pop_at_most ifc.fresh t.floor
      done
    end

  (* [rank] holds the effective rank until [P.on_service] has read it. *)
  let serve t ifc fs ~rank =
    let j = ifc.i_id in
    let pkt = Pktqueue.pop_exn fs.queue in
    fs.served <- fs.served + pkt.size;
    let cells = Int_tbl.Cells.credit fs.served_on j pkt.size in
    if cells != fs.served_on then fs.served_on <- cells;
    P.on_service t.prog ~flow:fs.f_id ~iface:j ~weight:fs.weight
      ~size:pkt.size ~rank;
    pkt

  (* The served interface already popped the flow: a drained flow leaves
     the others, a backlogged one re-enters it with a fresh rank. *)
  let serve_backlogged t ifc f ~rank =
    let fs = flow_state t f in
    let pkt = serve t ifc fs ~rank in
    (if Pktqueue.is_empty fs.queue then walk t Unlink fs fs.allowed
     else begin
       (match P.rerank_after_service with
       | `Served_iface -> ()
       | `All_ifaces -> walk t Rerank fs fs.allowed);
       heap_insert t ifc fs
     end);
    emit_serve t ~flow:f ~iface:ifc.i_id ~bytes:pkt.size;
    Some pkt

  (* A stale entry is served at the floor that [migrate] left; a fresh
     one at its own rank, read before the pop. *)
  let next_backlogged t ifc =
    migrate t ifc;
    if not (Pifo.is_empty ifc.stale) then
      serve_backlogged t ifc (Pifo.pop_key ifc.stale) ~rank:t.floor
    else if not (Pifo.is_empty ifc.fresh) then begin
      Pifo.min_rank ifc.fresh t.rank;
      serve_backlogged t ifc (Pifo.pop_key ifc.fresh) ~rank:t.rank
    end
    else None

  (* Sweep in flows registered before this interface existed, ascending
     id, at the back of the rotation.  O(1) when nothing is missing. *)
  let refresh t ifc =
    if Pifo.length ifc.fresh < t.nflows then
      for f = 0 to Array.length t.flow_slots - 1 do
        let fs = t.flow_slots.(f) in
        if fs != nil_flow && not (Pifo.mem ifc.fresh f) then
          heap_insert t ifc fs
      done

  (* At most one lap: ineligible flows at the front move to the back,
     then the front flow, if eligible, is served and moves to the back. *)
  let next_rotation t ifc =
    refresh t ifc;
    let j = ifc.i_id in
    let lap = ref (Pifo.length ifc.fresh) in
    while
      !lap > 0 && not (eligible (flow_state t (Pifo.min_key ifc.fresh)) j)
    do
      let f = Pifo.pop_key ifc.fresh in
      P.skip_rank t.prog ~flow:f ~iface:j t.rank;
      Pifo.push ifc.fresh ~key:f ~rank:t.rank;
      decr lap
    done;
    if Int.equal !lap 0 then None
    else begin
      Pifo.min_rank ifc.fresh t.rank;
      let fs = flow_state t (Pifo.pop_key ifc.fresh) in
      let pkt = serve t ifc fs ~rank:t.rank in
      heap_insert t ifc fs;
      emit_serve t ~flow:fs.f_id ~iface:j ~bytes:pkt.size;
      Some pkt
    end

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
    Int_tbl.Cells.get (flow_state t flow).served_on iface

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
