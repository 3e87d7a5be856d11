(* The reference DRR/miDRR engine: the executable specification.

   This is the original list-and-hashtable implementation, kept verbatim
   (modulo the deterministic-iteration and teardown fixes below) as the
   semantic oracle for the O(active) fast engine in [Drr_engine].  The
   differential suite (test/test_differential.ml) drives both engines in
   lockstep and requires identical serve sequences, deficits, flags and
   event streams, so any behavioral change here is a spec change and must
   be mirrored in the fast engine. *)

module Iset = Set.Make (Int)
module Event = Midrr_obs.Event

type mode = Plain | Service_flags

type flag_policy = Per_turn | Per_send

type link = {
  l_flow : flow_state;
  l_iface : iface_state;
  mutable flag : int;
      (* SF_ij generalized to a saturating counter of services elsewhere
         since this interface last considered the flow; the paper's one-bit
         flag is the [counter_max = 1] case *)
  mutable node : link Ring.node option; (* present iff flow backlogged *)
  mutable l_deficit : float; (* DC_ij, bytes: each interface runs its own DRR *)
  mutable l_served : int;
  mutable l_turns : int;
}

and flow_state = {
  f_id : Types.flow_id;
  mutable f_weight : float;
  mutable f_quantum : float; (* Q_i, bytes *)
  f_queue : Pktqueue.t;
  mutable f_links : link list;
  mutable f_allowed : Iset.t; (* includes interfaces currently offline *)
  mutable f_served : int;
  mutable f_turns : int;
}

and iface_state = {
  i_id : Types.iface_id;
  i_ring : link Ring.t;
  mutable i_cursor : link Ring.node option; (* C_j *)
}

type t = {
  t_mode : mode;
  t_flag_policy : flag_policy;
  t_counter_max : int;
  t_base_quantum : int;
  t_queue_capacity : int option;
  t_flows : (Types.flow_id, flow_state) Hashtbl.t;
  t_ifaces : (Types.iface_id, iface_state) Hashtbl.t;
  mutable t_considered : int;
  mutable t_sink : Midrr_obs.Sink.raw option;
  t_ev : Event.record; (* refilled per emission, see [Event] *)
}

(* Control-path emission of the record the caller just filled.  Hot-path
   sites (enqueue / begin_turn / check_next / next_packet) match on
   [t_sink] first instead, so a sinkless decision never touches the
   record. *)
let emit t = match t.t_sink with None -> () | Some s -> s t.t_ev

let set_sink t s = t.t_sink <- s
let sink t = t.t_sink

let create ?(base_quantum = 1500) ?queue_capacity ?(flag_policy = Per_turn)
    ?(counter_max = 1) t_mode =
  if base_quantum <= 0 then invalid_arg "Drr_engine_ref.create: base_quantum <= 0";
  if counter_max < 1 then invalid_arg "Drr_engine_ref.create: counter_max < 1";
  {
    t_mode;
    t_flag_policy = flag_policy;
    t_counter_max = counter_max;
    t_base_quantum = base_quantum;
    t_queue_capacity = queue_capacity;
    t_flows = Hashtbl.create 64;
    t_ifaces = Hashtbl.create 16;
    t_considered = 0;
    t_sink = None;
    t_ev = Event.create ();
  }

let name t =
  match t.t_mode with Plain -> "drr-per-interface" | Service_flags -> "midrr"

let flow_state t f =
  match Hashtbl.find_opt t.t_flows f with
  | Some fs -> fs
  | None -> invalid_arg "Drr_engine_ref: unknown flow"

let iface_state t j =
  match Hashtbl.find_opt t.t_ifaces j with
  | Some ifc -> ifc
  | None -> invalid_arg "Drr_engine_ref: unknown interface"

let link_for flow j = List.find_opt (fun l -> l.l_iface.i_id = j) flow.f_links

(* Flow states in ascending id order.  Interface attach/detach walks flows
   through this instead of [Hashtbl.iter] so the ring order produced when
   an interface comes up with backlogged flows is a function of the flow
   ids, not of hash-bucket layout — the fast engine iterates its dense
   slot array in the same order, which is what lets the differential suite
   demand {e identical} serve sequences. *)
let flow_states_sorted t =
  Hashtbl.fold (fun _ fs acc -> fs :: acc) t.t_flows []
  |> List.sort (fun a b -> compare a.f_id b.f_id)

(* --- ring membership ------------------------------------------------- *)

let insert_link ifc link =
  (* A newly backlogged flow joins at the end of the current round: just
     before the cursor when one is set, at the ring tail otherwise. *)
  let node =
    match ifc.i_cursor with
    | Some anchor when Ring.is_member anchor ->
        Ring.insert_before ifc.i_ring anchor link
    | _ -> Ring.push_back ifc.i_ring link
  in
  link.node <- Some node

let remove_link ifc link =
  match link.node with
  | None -> ()
  | Some node ->
      (match ifc.i_cursor with
      | Some cur when cur == node ->
          ifc.i_cursor <-
            (if Ring.length ifc.i_ring <= 1 then None
             else Some (Ring.next ifc.i_ring node))
      | _ -> ());
      Ring.remove ifc.i_ring node;
      link.node <- None

let activate flow =
  List.iter
    (fun link -> if link.node = None then insert_link link.l_iface link)
    flow.f_links

let deactivate flow =
  List.iter (fun link -> remove_link link.l_iface link) flow.f_links

(* --- interface management -------------------------------------------- *)

let has_iface t j = Hashtbl.mem t.t_ifaces j

let add_iface t j =
  if has_iface t j then invalid_arg "Drr_engine_ref.add_iface: duplicate";
  let ifc = { i_id = j; i_ring = Ring.create (); i_cursor = None } in
  Hashtbl.replace t.t_ifaces j ifc;
  (* Link every flow that already listed this interface in its preference;
     backlogged ones join the round immediately (paper property 4: new
     capacity is used).  Ascending id order fixes the new ring's order. *)
  List.iter
    (fun flow ->
      if Iset.mem j flow.f_allowed then begin
        let link =
          { l_flow = flow; l_iface = ifc; flag = 0; node = None;
            l_deficit = 0.0; l_served = 0; l_turns = 0 }
        in
        flow.f_links <- link :: flow.f_links;
        if not (Pktqueue.is_empty flow.f_queue) then insert_link ifc link
      end)
    (flow_states_sorted t);
  Event.set_iface_up t.t_ev ~iface:j;
  emit t

let remove_iface t j =
  let ifc = iface_state t j in
  (* One partition pass per flow instead of a [find] followed by a
     physical-equality [filter] — the latter rescanned the link list per
     removal and made interface teardown under heavy churn quadratic in
     the number of links. *)
  Hashtbl.iter
    (fun _ flow ->
      match List.partition (fun l -> l.l_iface != ifc) flow.f_links with
      | _, [] -> ()
      | keep, drop ->
          List.iter (fun link -> remove_link ifc link) drop;
          flow.f_links <- keep)
    t.t_flows;
  Hashtbl.remove t.t_ifaces j;
  Event.set_iface_down t.t_ev ~iface:j;
  emit t

let ifaces t =
  Hashtbl.fold (fun j _ acc -> j :: acc) t.t_ifaces [] |> List.sort compare

(* --- flow management -------------------------------------------------- *)

let has_flow t f = Hashtbl.mem t.t_flows f

let add_flow t ~flow ~weight ~allowed =
  if has_flow t flow then invalid_arg "Drr_engine_ref.add_flow: duplicate";
  if not (weight > 0.0) then invalid_arg "Drr_engine_ref.add_flow: weight <= 0";
  let fs =
    {
      f_id = flow;
      f_weight = weight;
      f_quantum = weight *. Float.of_int t.t_base_quantum;
      f_queue = Pktqueue.create ?capacity_bytes:t.t_queue_capacity ();
      f_links = [];
      f_allowed = Iset.of_list allowed;
      f_served = 0;
      f_turns = 0;
    }
  in
  Iset.iter
    (fun j ->
      match Hashtbl.find_opt t.t_ifaces j with
      | None -> ()
      | Some ifc ->
          fs.f_links <-
            { l_flow = fs; l_iface = ifc; flag = 0; node = None;
              l_deficit = 0.0; l_served = 0; l_turns = 0 }
            :: fs.f_links)
    fs.f_allowed;
  Hashtbl.replace t.t_flows flow fs;
  Event.set_flow_add t.t_ev ~flow;
  t.t_ev.num.value <- weight;
  emit t

let remove_flow t f =
  let fs = flow_state t f in
  deactivate fs;
  Hashtbl.remove t.t_flows f;
  Event.set_flow_remove t.t_ev ~flow:f;
  emit t

let flows t =
  Hashtbl.fold (fun f _ acc -> f :: acc) t.t_flows [] |> List.sort compare

let set_weight t f w =
  if not (w > 0.0) then invalid_arg "Drr_engine_ref.set_weight: weight <= 0";
  let fs = flow_state t f in
  fs.f_weight <- w;
  fs.f_quantum <- w *. Float.of_int t.t_base_quantum;
  Event.set_weight_change t.t_ev ~flow:f;
  t.t_ev.num.value <- w;
  emit t

let allowed_ifaces t f =
  Iset.elements (flow_state t f).f_allowed

let set_allowed t f allowed =
  let fs = flow_state t f in
  let wanted = Iset.of_list allowed in
  let backlogged = not (Pktqueue.is_empty fs.f_queue) in
  (* Drop links to interfaces no longer allowed. *)
  let keep, drop =
    List.partition (fun l -> Iset.mem l.l_iface.i_id wanted) fs.f_links
  in
  List.iter (fun l -> remove_link l.l_iface l) drop;
  fs.f_links <- keep;
  (* Add links for newly allowed online interfaces. *)
  Iset.iter
    (fun j ->
      if link_for fs j = None then
        match Hashtbl.find_opt t.t_ifaces j with
        | None -> ()
        | Some ifc ->
            let link =
              { l_flow = fs; l_iface = ifc; flag = 0; node = None;
                l_deficit = 0.0; l_served = 0; l_turns = 0 }
            in
            fs.f_links <- link :: fs.f_links;
            if backlogged then insert_link ifc link)
    wanted;
  fs.f_allowed <- wanted

(* --- data path --------------------------------------------------------- *)

let enqueue t (p : Packet.t) =
  match Hashtbl.find_opt t.t_flows p.flow with
  | None ->
      (match t.t_sink with
      | None -> ()
      | Some s ->
          Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
          s t.t_ev);
      false
  | Some fs ->
      let was_empty = Pktqueue.is_empty fs.f_queue in
      let accepted = Pktqueue.push fs.f_queue p in
      if accepted && was_empty then activate fs;
      (match t.t_sink with
      | None -> ()
      | Some s ->
          if accepted then Event.set_enqueue t.t_ev ~flow:p.flow ~bytes:p.size
          else Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
          s t.t_ev);
      accepted

(* Give a flow its service turn: top up the deficit and, in miDRR mode,
   raise its service flag at every other interface (Algorithm 3.2's
   "SF_ik = 1, forall k <> j"). *)
let begin_turn t ifc link =
  let flow = link.l_flow in
  link.l_deficit <- link.l_deficit +. flow.f_quantum;
  flow.f_turns <- flow.f_turns + 1;
  link.l_turns <- link.l_turns + 1;
  (match t.t_sink with
  | None -> ()
  | Some s ->
      Event.set_turn t.t_ev ~flow:flow.f_id ~iface:ifc.i_id;
      s t.t_ev);
  match t.t_mode with
  | Plain -> ()
  | Service_flags ->
      List.iter
        (fun other ->
          if other != link then
            other.flag <- Stdlib.min t.t_counter_max (other.flag + 1))
        flow.f_links

(* Advance C_j to the next flow to serve.  [skip_current] distinguishes the
   two call sites of the paper's pseudocode: after an ordinary
   insufficient-deficit step the cursor must move past the current flow,
   whereas after the current flow emptied (and was removed from the ring)
   the cursor has already been repositioned on the successor. *)
let check_next t ifc ~skip_current =
  let cur =
    match ifc.i_cursor with
    | Some n when Ring.is_member n -> n
    | _ -> Option.get (Ring.head ifc.i_ring)
  in
  let n = ref (if skip_current then Ring.next ifc.i_ring cur else cur) in
  (match t.t_mode with
  | Plain -> ()
  | Service_flags ->
      (* Skip flows served elsewhere since our last visit, clearing their
         flags as we pass (Algorithm 3.2).  Terminates: every skipped flow
         is unflagged, so the second lap stops at the first flow. *)
      while (Ring.value !n).flag > 0 do
        t.t_considered <- t.t_considered + 1;
        let link = Ring.value !n in
        link.flag <- link.flag - 1;
        (match t.t_sink with
        | None -> ()
        | Some s ->
            Event.set_flag_reset t.t_ev ~flow:link.l_flow.f_id ~iface:ifc.i_id;
            s t.t_ev);
        n := Ring.next ifc.i_ring !n
      done);
  ifc.i_cursor <- Some !n;
  begin_turn t ifc (Ring.value !n)

let next_packet t j =
  let ifc = iface_state t j in
  let rec loop () =
    if Ring.is_empty ifc.i_ring then None
    else begin
      let cur =
        match ifc.i_cursor with
        | Some n when Ring.is_member n -> n
        | _ ->
            (* First decision on this ring (or cursor lost with the ring):
               start a turn for the head flow. *)
            let head = Option.get (Ring.head ifc.i_ring) in
            ifc.i_cursor <- Some head;
            begin_turn t ifc (Ring.value head);
            head
      in
      let link = Ring.value cur in
      let flow = link.l_flow in
      let size = Pktqueue.head_size flow.f_queue in
      t.t_considered <- t.t_considered + 1;
      if Float.of_int size <= link.l_deficit then begin
        let pkt = Option.get (Pktqueue.pop flow.f_queue) in
        link.l_deficit <- link.l_deficit -. Float.of_int size;
        flow.f_served <- flow.f_served + size;
        link.l_served <- link.l_served + size;
        (match t.t_sink with
        | None -> ()
        | Some s ->
            Event.set_serve t.t_ev ~flow:flow.f_id ~iface:j ~bytes:size;
            t.t_ev.num.value <- link.l_deficit;
            s t.t_ev);
        (* Under [Per_send], "when interface k serves flow i" (paper §3.1
           prose) is read as every transmission, refreshing the flags during
           the whole turn; the default [Per_turn] follows Algorithm 3.2 and
           raises them only at selection (in [begin_turn]). *)
        (match (t.t_mode, t.t_flag_policy) with
        | Service_flags, Per_send ->
            List.iter
              (fun other ->
                if other != link then
                  other.flag <- Stdlib.min t.t_counter_max (other.flag + 1))
              flow.f_links
        | _ -> ());
        if Pktqueue.is_empty flow.f_queue then begin
          (* BL_i = 0: reset the deficits and leave every round. *)
          List.iter (fun l -> l.l_deficit <- 0.0) flow.f_links;
          deactivate flow;
          if not (Ring.is_empty ifc.i_ring) then
            check_next t ifc ~skip_current:false
        end
        else if Float.of_int (Pktqueue.head_size flow.f_queue) > link.l_deficit
        then check_next t ifc ~skip_current:true;
        Some pkt
      end
      else begin
        check_next t ifc ~skip_current:true;
        loop ()
      end
    end
  in
  loop ()

(* --- accounting -------------------------------------------------------- *)

let backlog_bytes t f = Pktqueue.backlog_bytes (flow_state t f).f_queue
let backlog_packets t f = Pktqueue.length (flow_state t f).f_queue
let is_backlogged t f = not (Pktqueue.is_empty (flow_state t f).f_queue)
let served_bytes t f = (flow_state t f).f_served

let served_bytes_on t ~flow ~iface =
  match link_for (flow_state t flow) iface with
  | None -> 0
  | Some l -> l.l_served

let deficit t f =
  List.fold_left
    (fun acc l -> Float.max acc l.l_deficit)
    0.0 (flow_state t f).f_links

let deficit_on t ~flow ~iface =
  match link_for (flow_state t flow) iface with
  | None -> 0.0
  | Some l -> l.l_deficit
let quantum t f = (flow_state t f).f_quantum

let service_flag t ~flow ~iface =
  match link_for (flow_state t flow) iface with
  | None -> false
  | Some l -> l.flag > 0

let service_counter t ~flow ~iface =
  match link_for (flow_state t flow) iface with
  | None -> 0
  | Some l -> l.flag

let turns t f = (flow_state t f).f_turns

let turns_on t ~flow ~iface =
  match link_for (flow_state t flow) iface with
  | None -> 0
  | Some l -> l.l_turns

let ring_flows t j =
  Ring.to_list (iface_state t j).i_ring |> List.map (fun l -> l.l_flow.f_id)

let considered t = t.t_considered

let drops t f = Pktqueue.drops (flow_state t f).f_queue
