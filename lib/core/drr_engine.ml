(* The fast-path DRR/miDRR engine.

   Semantics are defined by [Drr_engine_ref] (the original
   list-and-hashtable implementation, kept as the executable spec); this
   module is the O(active) rewrite that the repository uses by default.
   The differential suite (test/test_differential.ml) drives both engines
   in lockstep through randomized churn and requires identical serve
   sequences, deficits, flags and event streams, and the golden-trace test
   requires byte-identical `midrr run --trace` output — treat any
   divergence as a bug here, not there.

   What changed relative to the spec, and why each decision stays
   O(active flows):

   - Flow and interface states live in dense slot arrays indexed directly
     by their (non-negative) ids, so [enqueue] and [next_packet] do one
     bounds-checked array load where the spec does a [Hashtbl.find_opt].
   - Each flow's state is sized by its own preference list, not by the
     interface-id space: an exact-size array of its per-(flow, interface)
     links (swept by a service turn to raise flags) and Π_i as a
     canonical ascending list, shared with the caller when it already is
     one.  [link_for] scans that array; only the control path and
     introspection call it, never [enqueue] or a decision.
   - Each interface's round is an {e intrusive} ring (see {!Active_ring}):
     the prev/next pointers live inside the link record, so
     linking/unlinking a newly backlogged / drained flow allocates nothing.
     Only backlogged flows are linked, so a decision never touches idle
     flows no matter how many are registered.
   - "No flow" and "no cursor" are the sentinels [nil_flow] and [nil]
     rather than [None], so slots and cursors hold their states
     directly. *)

module Event = Midrr_obs.Event

type mode = Plain | Service_flags

type flag_policy = Per_turn | Per_send

(* A single-field all-float record is stored flat, so [cell.fc <- x] writes
   the raw float in place.  Keeping DC_ij behind one of these (instead of a
   [mutable float] field in the mixed [link] record) is what makes deficit
   updates allocation-free: a float store into a mixed record must box. *)
type fcell = { mutable fc : float }

type link = {
  l_flow : flow_state;
  l_iface : iface_state;
  mutable flag : int;
      (* SF_ij generalized to a saturating counter of services elsewhere
         since this interface last considered the flow; the paper's one-bit
         flag is the [counter_max = 1] case *)
  l_deficit : fcell; (* DC_ij, bytes: each interface runs its own DRR *)
  mutable l_served : int;
  mutable l_turns : int;
  (* intrusive Active_ring node state; linked iff the flow is backlogged *)
  mutable ar_prev : link;
  mutable ar_next : link;
  mutable ar_linked : bool;
}

and flow_state = {
  f_id : Types.flow_id;
  mutable f_weight : float; (* Q_i = f_weight * base_quantum *)
  f_queue : Pktqueue.t;
  mutable f_links : link array;
      (* exactly one link per allowed online interface, in no meaningful
         order: every sweep over it (flag raising, deficit reset,
         activation into per-interface rings) is order-insensitive *)
  mutable f_allowed : Types.iface_id list;
      (* Π_i, ascending without duplicates; includes offline interfaces *)
  mutable f_served : int;
  mutable f_turns : int;
}

and iface_state = {
  i_id : Types.iface_id;
  i_ring : link Active_ring.t;
  mutable i_cursor : link; (* C_j, or [nil] *)
}

module Aring = Active_ring.Make (struct
  type t = link

  let prev l = l.ar_prev
  let set_prev l p = l.ar_prev <- p
  let next l = l.ar_next
  let set_next l n = l.ar_next <- n
  let linked l = l.ar_linked
  let set_linked l b = l.ar_linked <- b
end)

(* The sentinels.  [nil] is the cursor of an interface with no current
   flow and the ring-pointer filler of an unlinked link; [nil_flow] fills
   empty flow slots.  No path writes either: [nil] is never linked (so
   every cursor use sees [ar_linked = false] and falls back to the ring
   head), [nil_flow] owns no links, and every path that writes a flow
   reaches it through a lookup that rejects [nil_flow].  Sharing them
   across engines and domains is therefore safe. *)
let nil_queue = Pktqueue.create ()
let nil_ring = Active_ring.create ()

let rec nil =
  {
    l_flow = nil_flow;
    l_iface = nil_iface;
    flag = 0;
    l_deficit = { fc = 0.0 };
    l_served = 0;
    l_turns = 0;
    ar_prev = nil;
    ar_next = nil;
    ar_linked = false;
  }

and nil_flow =
  {
    f_id = -1;
    f_weight = 1.0;
    f_queue = nil_queue;
    f_links = [||];
    f_allowed = [];
    f_served = 0;
    f_turns = 0;
  }

and nil_iface = { i_id = -1; i_ring = nil_ring; i_cursor = nil }

type t = {
  t_mode : mode;
  t_flag_policy : flag_policy;
  t_counter_max : int;
  t_base_quantum : int;
  t_queue_capacity : int option;
  mutable t_flow_slots : flow_state array; (* indexed by flow id *)
  mutable t_iface_slots : iface_state option array; (* indexed by iface id *)
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
  if base_quantum <= 0 then invalid_arg "Drr_engine.create: base_quantum <= 0";
  if counter_max < 1 then invalid_arg "Drr_engine.create: counter_max < 1";
  {
    t_mode;
    t_flag_policy = flag_policy;
    t_counter_max = counter_max;
    t_base_quantum = base_quantum;
    t_queue_capacity = queue_capacity;
    t_flow_slots = Array.make 64 nil_flow;
    t_iface_slots = Array.make 16 None;
    t_considered = 0;
    t_sink = None;
    t_ev = Event.create ();
  }

let mode t = t.t_mode
let flag_policy t = t.t_flag_policy
let counter_max t = t.t_counter_max
let base_quantum t = t.t_base_quantum

let name t =
  match t.t_mode with Plain -> "drr-per-interface" | Service_flags -> "midrr"

(* --- dense slot plumbing ---------------------------------------------- *)

(* [nil_flow] when the id has no flow. *)
let flow_slot t f =
  if f >= 0 && f < Array.length t.t_flow_slots then t.t_flow_slots.(f)
  else nil_flow

let iface_slot t j =
  if j >= 0 && j < Array.length t.t_iface_slots then t.t_iface_slots.(j)
  else None

let flow_state t f =
  let fs = flow_slot t f in
  if fs == nil_flow then invalid_arg "Drr_engine: unknown flow" else fs

let iface_state t j =
  match iface_slot t j with
  | Some ifc -> ifc
  | None -> invalid_arg "Drr_engine: unknown interface"

(* Position of the flow's link to interface [j] in [links], or -1. *)
let rec link_index links j i =
  if i >= Array.length links then -1
  else if Int.equal links.(i).l_iface.i_id j then i
  else link_index links j (i + 1)

let link_for flow j =
  let i = link_index flow.f_links j 0 in
  if i < 0 then nil else flow.f_links.(i)

(* --- ring membership ------------------------------------------------- *)

let insert_link ifc link =
  (* A newly backlogged flow joins at the end of the current round: just
     before the cursor when one is set, at the ring tail otherwise. *)
  let anchor = ifc.i_cursor in
  if anchor.ar_linked then Aring.insert_before ifc.i_ring ~anchor link
  else Aring.push_back ifc.i_ring link

let remove_link ifc link =
  if link.ar_linked then begin
    if ifc.i_cursor == link then
      ifc.i_cursor <-
        (if Active_ring.length ifc.i_ring <= 1 then nil
         else Aring.next ifc.i_ring link);
    Aring.remove ifc.i_ring link
  end

let activate flow =
  let links = flow.f_links in
  for i = 0 to Array.length links - 1 do
    let link = links.(i) in
    if not link.ar_linked then insert_link link.l_iface link
  done

let deactivate flow =
  let links = flow.f_links in
  for i = 0 to Array.length links - 1 do
    let link = links.(i) in
    remove_link link.l_iface link
  done

(* --- link lifecycle ---------------------------------------------------- *)

let make_link fs ifc =
  {
    l_flow = fs;
    l_iface = ifc;
    flag = 0;
    l_deficit = { fc = 0.0 };
    l_served = 0;
    l_turns = 0;
    ar_prev = nil;
    ar_next = nil;
    ar_linked = false;
  }

(* Adding or dropping a link reallocates the flow's link array at its new
   exact size: both happen only on preference and interface changes. *)
let add_link fs ifc =
  let link = make_link fs ifc in
  fs.f_links <- Array.append fs.f_links [| link |];
  link

(* Swap-remove the link at [i]: the last link takes its place. *)
let drop_link fs i =
  let links = fs.f_links in
  let link = links.(i) in
  remove_link link.l_iface link;
  let last = Array.length links - 1 in
  let a = Array.sub links 0 last in
  if i < last then a.(i) <- links.(last);
  fs.f_links <- a

(* --- interface management -------------------------------------------- *)

let has_iface t j = Option.is_some (iface_slot t j)

let add_iface t j =
  if j < 0 then invalid_arg "Drr_engine.add_iface: negative interface id";
  if has_iface t j then invalid_arg "Drr_engine.add_iface: duplicate";
  t.t_iface_slots <- Int_tbl.grow t.t_iface_slots j None;
  let ifc = { i_id = j; i_ring = Active_ring.create (); i_cursor = nil } in
  t.t_iface_slots.(j) <- Some ifc;
  (* Link every flow that already listed this interface in its preference;
     backlogged ones join the round immediately (paper property 4: new
     capacity is used).  The slot scan runs in ascending id order, matching
     the reference engine's sorted iteration, so the new ring's order is
     identical under both engines. *)
  Array.iter
    (fun flow ->
      if flow != nil_flow && Types.mem_sorted j flow.f_allowed then begin
        let link = add_link flow ifc in
        if not (Pktqueue.is_empty flow.f_queue) then insert_link ifc link
      end)
    t.t_flow_slots;
  Event.set_iface_up t.t_ev ~iface:j;
  emit t

let remove_iface t j =
  let (_ : iface_state) = iface_state t j in
  Array.iter
    (fun flow ->
      let i = link_index flow.f_links j 0 in
      if i >= 0 then drop_link flow i)
    t.t_flow_slots;
  t.t_iface_slots.(j) <- None;
  Event.set_iface_down t.t_ev ~iface:j;
  emit t

let ifaces t =
  let acc = ref [] in
  for j = Array.length t.t_iface_slots - 1 downto 0 do
    if Option.is_some t.t_iface_slots.(j) then acc := j :: !acc
  done;
  !acc

(* --- flow management -------------------------------------------------- *)

let has_flow t f = flow_slot t f != nil_flow

let rec count_online t n = function
  | [] -> n
  | j :: rest -> count_online t (if has_iface t j then n + 1 else n) rest

(* Fill [links] from [k] on with one link per online interface of
   [allowed], in ascending interface order. *)
let rec fill_links t fs links k = function
  | [] -> ()
  | j :: rest -> (
      match iface_slot t j with
      | None -> fill_links t fs links k rest
      | Some ifc ->
          links.(k) <- make_link fs ifc;
          fill_links t fs links (k + 1) rest)

let add_flow t ~flow ~weight ~allowed =
  if flow < 0 then invalid_arg "Drr_engine.add_flow: negative flow id";
  if has_flow t flow then invalid_arg "Drr_engine.add_flow: duplicate";
  if not (weight > 0.0) then invalid_arg "Drr_engine.add_flow: weight <= 0";
  t.t_flow_slots <- Int_tbl.grow t.t_flow_slots flow nil_flow;
  let allowed = Types.canonical allowed in
  let fs =
    {
      f_id = flow;
      f_weight = weight;
      f_queue = Pktqueue.create ?capacity_bytes:t.t_queue_capacity ();
      f_links = [||];
      f_allowed = allowed;
      f_served = 0;
      f_turns = 0;
    }
  in
  let n = count_online t 0 allowed in
  if n > 0 then begin
    let links = Array.make n nil in
    fill_links t fs links 0 allowed;
    fs.f_links <- links
  end;
  t.t_flow_slots.(flow) <- fs;
  Event.set_flow_add t.t_ev ~flow;
  t.t_ev.num.value <- weight;
  emit t

let remove_flow t f =
  let fs = flow_state t f in
  deactivate fs;
  t.t_flow_slots.(f) <- nil_flow;
  Event.set_flow_remove t.t_ev ~flow:f;
  emit t

let flows t =
  let acc = ref [] in
  for f = Array.length t.t_flow_slots - 1 downto 0 do
    if t.t_flow_slots.(f) != nil_flow then acc := f :: !acc
  done;
  !acc

let set_weight t f w =
  if not (w > 0.0) then invalid_arg "Drr_engine.set_weight: weight <= 0";
  let fs = flow_state t f in
  fs.f_weight <- w;
  Event.set_weight_change t.t_ev ~flow:f;
  t.t_ev.num.value <- w;
  emit t

let allowed_ifaces t f = (flow_state t f).f_allowed

let set_allowed t f allowed =
  let fs = flow_state t f in
  let wanted = Types.canonical allowed in
  let backlogged = not (Pktqueue.is_empty fs.f_queue) in
  (* Drop links to interfaces no longer allowed.  Walk backwards: a
     swap-remove only disturbs indices at or above the current one. *)
  for i = Array.length fs.f_links - 1 downto 0 do
    if not (Types.mem_sorted fs.f_links.(i).l_iface.i_id wanted) then
      drop_link fs i
  done;
  (* Add links for newly allowed online interfaces. *)
  List.iter
    (fun j ->
      if link_for fs j == nil then
        match iface_slot t j with
        | None -> ()
        | Some ifc ->
            let link = add_link fs ifc in
            if backlogged then insert_link ifc link)
    wanted;
  fs.f_allowed <- wanted

(* --- data path --------------------------------------------------------- *)

let enqueue t (p : Packet.t) =
  let fs = flow_slot t p.flow in
  if fs == nil_flow then begin
    (match t.t_sink with
    | None -> ()
    | Some s ->
        Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
        s t.t_ev);
    false
  end
  else begin
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
  end

(* Raise SF_ik at every interface k of the flow other than the one whose
   link is [link]. *)
let raise_flags t flow link =
  let links = flow.f_links in
  for i = 0 to Array.length links - 1 do
    let other = links.(i) in
    if other != link then
      other.flag <- Stdlib.min t.t_counter_max (other.flag + 1)
  done

(* Give a flow its service turn: top up the deficit and, in miDRR mode,
   raise its service flag at every other interface (Algorithm 3.2's
   "SF_ik = 1, forall k <> j"). *)
let begin_turn t ifc link =
  let flow = link.l_flow in
  (* Q_i is recomputed here rather than stored, which saves the flow a
     boxed float; the product is the one a stored quantum would hold.  A
     call returning it would box, hence inline. *)
  link.l_deficit.fc <-
    link.l_deficit.fc +. (flow.f_weight *. Float.of_int t.t_base_quantum);
  flow.f_turns <- flow.f_turns + 1;
  link.l_turns <- link.l_turns + 1;
  (match t.t_sink with
  | None -> ()
  | Some s ->
      Event.set_turn t.t_ev ~flow:flow.f_id ~iface:ifc.i_id;
      s t.t_ev);
  match t.t_mode with Plain -> () | Service_flags -> raise_flags t flow link

(* Advance C_j to the next flow to serve.  [skip_current] distinguishes the
   two call sites of the paper's pseudocode: after an ordinary
   insufficient-deficit step the cursor must move past the current flow,
   whereas after the current flow emptied (and was removed from the ring)
   the cursor has already been repositioned on the successor. *)
(* Skip flows served elsewhere since our last visit, clearing their flags
   as we pass (Algorithm 3.2).  Terminates: every skipped flow is
   unflagged, so the second lap stops at the first flow.  Tail-recursive
   rather than a [ref] loop so the advancement allocates nothing. *)
let rec skip_flagged t ifc n =
  if n.flag > 0 then begin
    t.t_considered <- t.t_considered + 1;
    n.flag <- n.flag - 1;
    (match t.t_sink with
    | None -> ()
    | Some s ->
        Event.set_flag_reset t.t_ev ~flow:n.l_flow.f_id ~iface:ifc.i_id;
        s t.t_ev);
    skip_flagged t ifc (Aring.next ifc.i_ring n)
  end
  else n

let check_next t ifc ~skip_current =
  let cur =
    let c = ifc.i_cursor in
    if c.ar_linked then c else Option.get (Active_ring.head ifc.i_ring)
  in
  let start = if skip_current then Aring.next ifc.i_ring cur else cur in
  let n =
    match t.t_mode with Plain -> start | Service_flags -> skip_flagged t ifc start
  in
  ifc.i_cursor <- n;
  begin_turn t ifc n

(* The decision loop behind both [next_packet] variants.  A top-level
   function (not a local [let rec]) so no closure is built per call, and
   the idle case returns the [Packet.none] sentinel instead of [None] so a
   sinkless decision allocates no minor words at all. *)
let rec decide t ifc j =
  if Active_ring.is_empty ifc.i_ring then Packet.none
  else begin
    let link =
      let c = ifc.i_cursor in
      if c.ar_linked then c
      else begin
        (* First decision on this ring (or cursor lost with the ring):
           start a turn for the head flow. *)
        let head = Option.get (Active_ring.head ifc.i_ring) in
        ifc.i_cursor <- head;
        begin_turn t ifc head;
        head
      end
    in
    let flow = link.l_flow in
    let size = Pktqueue.head_size flow.f_queue in
    t.t_considered <- t.t_considered + 1;
    if Float.of_int size <= link.l_deficit.fc then begin
      let pkt = Pktqueue.pop_exn flow.f_queue in
      link.l_deficit.fc <- link.l_deficit.fc -. Float.of_int size;
      flow.f_served <- flow.f_served + size;
      link.l_served <- link.l_served + size;
      (match t.t_sink with
      | None -> ()
      | Some s ->
          Event.set_serve t.t_ev ~flow:flow.f_id ~iface:j ~bytes:size;
          t.t_ev.num.value <- link.l_deficit.fc;
          s t.t_ev);
      (* Under [Per_send], "when interface k serves flow i" (paper §3.1
         prose) is read as every transmission, refreshing the flags during
         the whole turn; the default [Per_turn] follows Algorithm 3.2 and
         raises them only at selection (in [begin_turn]). *)
      (match (t.t_mode, t.t_flag_policy) with
      | Service_flags, Per_send -> raise_flags t flow link
      | _ -> ());
      if Pktqueue.is_empty flow.f_queue then begin
        (* BL_i = 0: reset the deficits and leave every round. *)
        let links = flow.f_links in
        for i = 0 to Array.length links - 1 do
          links.(i).l_deficit.fc <- 0.0
        done;
        deactivate flow;
        if not (Active_ring.is_empty ifc.i_ring) then
          check_next t ifc ~skip_current:false
      end
      else if Float.of_int (Pktqueue.head_size flow.f_queue) > link.l_deficit.fc
      then check_next t ifc ~skip_current:true;
      pkt
    end
    else begin
      check_next t ifc ~skip_current:true;
      decide t ifc j
    end
  end

let next_packet_noalloc t j = decide t (iface_state t j) j

let next_packet t j =
  let p = next_packet_noalloc t j in
  if Packet.is_none p then None else Some p

(* --- accounting -------------------------------------------------------- *)

let backlog_bytes t f = Pktqueue.backlog_bytes (flow_state t f).f_queue
let backlog_packets t f = Pktqueue.length (flow_state t f).f_queue
let is_backlogged t f = not (Pktqueue.is_empty (flow_state t f).f_queue)
let served_bytes t f = (flow_state t f).f_served

(* Introspection of the (flow, iface) pair; [nil]'s zeroed fields read as
   the unlinked pair's values. *)
let pair t ~flow ~iface = link_for (flow_state t flow) iface

let served_bytes_on t ~flow ~iface = (pair t ~flow ~iface).l_served

let deficit t f =
  let links = (flow_state t f).f_links in
  let acc = ref 0.0 in
  for i = 0 to Array.length links - 1 do
    acc := Float.max !acc links.(i).l_deficit.fc
  done;
  !acc

let deficit_on t ~flow ~iface = (pair t ~flow ~iface).l_deficit.fc
let quantum t f = (flow_state t f).f_weight *. Float.of_int t.t_base_quantum
let service_flag t ~flow ~iface = (pair t ~flow ~iface).flag > 0
let service_counter t ~flow ~iface = (pair t ~flow ~iface).flag
let turns t f = (flow_state t f).f_turns
let turns_on t ~flow ~iface = (pair t ~flow ~iface).l_turns

let ring_flows t j =
  Aring.to_list (iface_state t j).i_ring |> List.map (fun l -> l.l_flow.f_id)

let considered t = t.t_considered

let reset_counters t =
  t.t_considered <- 0;
  Array.iter
    (fun fs ->
      if fs != nil_flow then begin
        fs.f_served <- 0;
        fs.f_turns <- 0;
        Array.iter
          (fun l ->
            l.l_served <- 0;
            l.l_turns <- 0)
          fs.f_links
      end)
    t.t_flow_slots

let drops t f = Pktqueue.drops (flow_state t f).f_queue
