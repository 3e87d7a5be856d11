module Iset = Set.Make (Int)
module Instance = Midrr_flownet.Instance
module Maxmin = Midrr_flownet.Maxmin
module Event = Midrr_obs.Event

type flow = {
  f_id : Types.flow_id;
  mutable weight : float;
  mutable allowed : Iset.t;
  queue : Pktqueue.t;
  mutable served : int;
  served_on : (Types.iface_id, int) Hashtbl.t;
  (* Bytes served per interface since the last allocation recompute; the
     lag comparison below uses these epoch-local counters so stale history
     does not bias new targets. *)
  epoch_served : (Types.iface_id, int) Hashtbl.t;
  mutable target : (Types.iface_id, float) Hashtbl.t;
}

type t = {
  queue_capacity : int option;
  capacity : Types.iface_id -> float;
  flows_tbl : (Types.flow_id, flow) Hashtbl.t;
  mutable iface_list : Types.iface_id list;
  mutable stale : bool;
  mutable recomputations : int;
  mutable t_sink : Midrr_obs.Sink.raw option;
  t_ev : Event.record; (* refilled per emission, see [Event] *)
}

let create ?queue_capacity ~capacity () =
  {
    queue_capacity;
    capacity;
    flows_tbl = Hashtbl.create 32;
    iface_list = [];
    stale = true;
    recomputations = 0;
    t_sink = None;
    t_ev = Event.create ();
  }

let name _ = "oracle"

(* Emission of the record the caller just filled. *)
let emit t = match t.t_sink with None -> () | Some s -> s t.t_ev
let set_sink t s = t.t_sink <- s
let sink t = t.t_sink

let flow_state t f =
  match Hashtbl.find_opt t.flows_tbl f with
  | Some fs -> fs
  | None -> invalid_arg "Oracle: unknown flow"

let has_iface t j = List.mem j t.iface_list

let add_iface t j =
  if has_iface t j then invalid_arg "Oracle.add_iface: duplicate";
  t.iface_list <- List.sort Int.compare (j :: t.iface_list);
  t.stale <- true;
  Event.set_iface_up t.t_ev ~iface:j;
  emit t

let remove_iface t j =
  t.iface_list <- List.filter (fun k -> k <> j) t.iface_list;
  t.stale <- true;
  Event.set_iface_down t.t_ev ~iface:j;
  emit t

let ifaces t = t.iface_list

let has_flow t f = Hashtbl.mem t.flows_tbl f

let add_flow t ~flow ~weight ~allowed =
  if has_flow t flow then invalid_arg "Oracle.add_flow: duplicate";
  if not (weight > 0.0) then invalid_arg "Oracle.add_flow: weight <= 0";
  Hashtbl.replace t.flows_tbl flow
    {
      f_id = flow;
      weight;
      allowed = Iset.of_list allowed;
      queue = Pktqueue.create ?capacity_bytes:t.queue_capacity ();
      served = 0;
      served_on = Hashtbl.create 8;
      epoch_served = Hashtbl.create 8;
      target = Hashtbl.create 8;
    };
  t.stale <- true;
  Event.set_flow_add t.t_ev ~flow;
  t.t_ev.num.value <- weight;
  emit t

let remove_flow t f =
  Hashtbl.remove t.flows_tbl f;
  t.stale <- true;
  Event.set_flow_remove t.t_ev ~flow:f;
  emit t

let flows t =
  Hashtbl.fold (fun f _ acc -> f :: acc) t.flows_tbl []
  |> List.sort Int.compare

let set_weight t f w =
  if not (w > 0.0) then invalid_arg "Oracle.set_weight: weight <= 0";
  (flow_state t f).weight <- w;
  t.stale <- true;
  Event.set_weight_change t.t_ev ~flow:f;
  t.t_ev.num.value <- w;
  emit t

let set_allowed t f allowed =
  (flow_state t f).allowed <- Iset.of_list allowed;
  t.stale <- true

let allowed_ifaces t f = Iset.elements (flow_state t f).allowed

(* Recompute the water-filling allocation over the currently backlogged
   flows and install per-(flow, interface) target rates. *)
let recompute t =
  t.stale <- false;
  t.recomputations <- t.recomputations + 1;
  let backlogged =
    Hashtbl.fold
      (fun _ fs acc -> if Pktqueue.is_empty fs.queue then acc else fs :: acc)
      t.flows_tbl []
    |> List.sort (fun a b -> Int.compare a.f_id b.f_id)
  in
  Hashtbl.iter
    (fun _ fs ->
      Hashtbl.reset fs.target;
      Hashtbl.reset fs.epoch_served)
    t.flows_tbl;
  match (backlogged, t.iface_list) with
  | [], _ | _, [] -> ()
  | flows, ifaces ->
      let weights = Array.of_list (List.map (fun fs -> fs.weight) flows) in
      let capacities = Array.of_list (List.map t.capacity ifaces) in
      let allowed =
        Array.of_list
          (List.map
             (fun fs ->
               Array.of_list
                 (List.map (fun j -> Iset.mem j fs.allowed) ifaces))
             flows)
      in
      let alloc = Maxmin.solve (Instance.make ~weights ~capacities ~allowed) in
      List.iteri
        (fun i fs ->
          List.iteri
            (fun k j ->
              let share = alloc.share.(i).(k) in
              if share > 1e-6 then Hashtbl.replace fs.target j share)
            ifaces)
        flows

let enqueue t (p : Packet.t) =
  match Hashtbl.find_opt t.flows_tbl p.flow with
  | None ->
      Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
      emit t;
      false
  | Some fs ->
      let was_empty = Pktqueue.is_empty fs.queue in
      let accepted = Pktqueue.push fs.queue p in
      if accepted && was_empty then t.stale <- true;
      if accepted then Event.set_enqueue t.t_ev ~flow:p.flow ~bytes:p.size
      else Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
      emit t;
      accepted

let next_packet t j =
  if not (has_iface t j) then invalid_arg "Oracle: unknown interface";
  if t.stale then recompute t;
  (* Serve the backlogged flow farthest behind its target share on this
     interface (smallest served/target ratio). *)
  let best = ref None in
  Hashtbl.iter
    (fun _ fs ->
      if not (Pktqueue.is_empty fs.queue) then
        match Hashtbl.find_opt fs.target j with
        | Some target when target > 0.0 ->
            let served =
              Option.value (Hashtbl.find_opt fs.epoch_served j) ~default:0
            in
            let lag = Float.of_int served /. target in
            (match !best with
            | Some (l, other) when l < lag || (l = lag && other.f_id < fs.f_id)
              ->
                ()
            | _ -> best := Some (lag, fs))
        | _ -> ())
    t.flows_tbl;
  (* Work conservation fallback: if no flow has a target here (e.g. the
     allocation routed nothing through this interface but capacity remains),
     serve any eligible backlogged flow. *)
  let chosen =
    match !best with
    | Some (_, fs) -> Some fs
    | None ->
        Hashtbl.fold
          (fun _ fs acc ->
            if Iset.mem j fs.allowed && not (Pktqueue.is_empty fs.queue) then
              match acc with
              | Some (other : flow) when other.f_id < fs.f_id -> acc
              | _ -> Some fs
            else acc)
          t.flows_tbl None
  in
  match chosen with
  | None -> None
  | Some fs ->
      let pkt = Option.get (Pktqueue.pop fs.queue) in
      fs.served <- fs.served + pkt.size;
      let bump table =
        Hashtbl.replace table j
          (pkt.size + Option.value (Hashtbl.find_opt table j) ~default:0)
      in
      bump fs.served_on;
      bump fs.epoch_served;
      if Pktqueue.is_empty fs.queue then t.stale <- true;
      Event.set_serve t.t_ev ~flow:fs.f_id ~iface:j ~bytes:pkt.size;
      t.t_ev.num.value <- 0.0;
      emit t;
      Some pkt

let backlog_bytes t f = Pktqueue.backlog_bytes (flow_state t f).queue
let backlog_packets t f = Pktqueue.length (flow_state t f).queue
let is_backlogged t f = not (Pktqueue.is_empty (flow_state t f).queue)
let served_bytes t f = (flow_state t f).served

let served_bytes_on t ~flow ~iface =
  Option.value (Hashtbl.find_opt (flow_state t flow).served_on iface) ~default:0

let recomputations t = t.recomputations

let target_share t ~flow ~iface =
  if t.stale then recompute t;
  Option.value (Hashtbl.find_opt (flow_state t flow).target iface) ~default:0.0

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

(* --- UPS-style replay ---------------------------------------------------- *)

module Replay = struct
  type step = {
    r_flow : Types.flow_id;
    r_iface : Types.iface_id;
    r_bytes : int;
  }

  let recorder () =
    let acc = ref [] in
    let emit (ev : Event.record) =
      match ev.kind with
      | Serve ->
          acc :=
            { r_flow = ev.flow; r_iface = ev.iface; r_bytes = ev.bytes } :: !acc
      | _ -> ()
    in
    (emit, fun () -> Array.of_list (List.rev !acc))

  let record sched =
    let emit, finish = recorder () in
    Sched_intf.Packed.subscribe sched emit;
    finish

  (* Replay-as-ranks (the Universal Packet Scheduling construction): flow
     f's rank on interface j is the index of f's next unconsumed
     occurrence in j's recorded service order, so scripted flows serve in
     recorded order whenever they are backlogged.  Flows the schedule
     never routes through j rank behind every scripted occurrence and
     are served only when no scripted candidate is eligible (the
     substrate stays work-conserving). *)
  let sched (schedule : step array) : Sched_intf.packed =
    let module P = struct
      type t = {
        (* iface -> flow -> remaining script indices, ascending *)
        pending :
          (Types.iface_id, (Types.flow_id, int Queue.t) Hashtbl.t) Hashtbl.t;
        mutable off_script : int;
      }

      let horizon = Float.of_int (Array.length schedule)
      let name = "replay"

      let create () =
        let pending = Hashtbl.create 8 in
        Array.iteri
          (fun i s ->
            let per_flow =
              match Hashtbl.find_opt pending s.r_iface with
              | Some h -> h
              | None ->
                  let h = Hashtbl.create 16 in
                  Hashtbl.replace pending s.r_iface h;
                  h
            in
            let q =
              match Hashtbl.find_opt per_flow s.r_flow with
              | Some q -> q
              | None ->
                  let q = Queue.create () in
                  Hashtbl.replace per_flow s.r_flow q;
                  q
            in
            Queue.add i q)
          schedule;
        { pending; off_script = 0 }

      let membership = `Backlogged

      let next_index t ~flow ~iface =
        match Hashtbl.find_opt t.pending iface with
        | None -> None
        | Some per_flow -> (
            match Hashtbl.find_opt per_flow flow with
            | None -> None
            | Some q -> Queue.peek_opt q)

      let rank t ~flow ~iface ~weight:_ ~head:_ ~backlog:_ (into : Pifo.cell)
          =
        into.v <-
          (match next_index t ~flow ~iface with
          | Some i -> Float.of_int i
          | None -> horizon +. Float.of_int flow)

      let floor_rank _ ~iface:_ (into : Pifo.cell) = into.v <- neg_infinity
      let skip_rank _ ~flow:_ ~iface:_ (into : Pifo.cell) = into.v <- 0.0

      let on_service t ~flow ~iface ~weight:_ ~size:_ ~rank:_ =
        match Hashtbl.find_opt t.pending iface with
        | None -> t.off_script <- t.off_script + 1
        | Some per_flow -> (
            match Hashtbl.find_opt per_flow flow with
            | None -> t.off_script <- t.off_script + 1
            | Some q ->
                if Queue.is_empty q then t.off_script <- t.off_script + 1
                else ignore (Queue.pop q))

      let rerank_on_enqueue = false
      let rerank_after_service = `Served_iface
      let rerank_on_weight = false
      let on_flow_add _ ~flow:_ ~weight:_ = ()
      let on_flow_remove _ ~flow:_ = ()
      let on_iface_add _ ~iface:_ = ()
      let on_iface_remove _ ~iface:_ = ()
    end in
    let module M = Sched_prog.Make (P) in
    M.packed (M.create ())

  type comparison = {
    golden_total : int;
    candidate_total : int;
    matched : int;
    exact : bool;
  }

  let by_iface schedule =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun s ->
        let q =
          match Hashtbl.find_opt tbl s.r_iface with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.replace tbl s.r_iface q;
              q
        in
        Queue.add s q)
      schedule;
    tbl

  (* Per-interface longest common prefix: cross-interface interleaving is
     a timing artifact, but each interface's service order is exactly
     what a discipline decides, so divergence is counted from the first
     out-of-order step onward. *)
  let compare_schedules ~golden ~candidate =
    let g = by_iface golden and c = by_iface candidate in
    let matched = ref 0 in
    Hashtbl.iter
      (fun iface gq ->
        match Hashtbl.find_opt c iface with
        | None -> ()
        | Some cq ->
            let aligned = ref true in
            while
              !aligned && (not (Queue.is_empty gq)) && not (Queue.is_empty cq)
            do
              let gs = Queue.pop gq and cs = Queue.pop cq in
              if Int.equal gs.r_flow cs.r_flow && Int.equal gs.r_bytes cs.r_bytes
              then incr matched
              else aligned := false
            done)
      g;
    let golden_total = Array.length golden in
    let candidate_total = Array.length candidate in
    {
      golden_total;
      candidate_total;
      matched = !matched;
      exact =
        Int.equal !matched golden_total
        && Int.equal golden_total candidate_total;
    }

  let fraction c =
    if Int.equal c.golden_total 0 then 1.0
    else Float.of_int c.matched /. Float.of_int c.golden_total
end
