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
   - Each per-(flow, interface) link is an int {e slot} in a per-engine
     pool, not a record: DC_ij is [t_dc.(s)] in one [Float.Array.t], and
     the link's ints are one cache line of [t_links] (see the field
     offsets below).  A flow keeps its first slot and chains the rest
     through [l_next], so its state is sized by its own preference list,
     not by the interface-id space, and registering a flow allocates
     only its record and its queue.  Freed slots go on a free list
     threaded through the same field; the pool doubles when the list
     runs dry.  [link_for] scans a flow's chain; only the control path
     and introspection call it, never [enqueue] or a decision.
   - Each interface's round is an {e intrusive} ring over those slots
     (see {!Active_ring}): prev/next are two of the slot's ints, so
     linking/unlinking a newly backlogged / drained flow allocates
     nothing.  Only backlogged flows are linked, so a decision never
     touches idle flows no matter how many are registered.
   - "No slot" is [nil] (-1): no cursor, an empty ring's head, the end
     of a chain or of the free list.  "No flow" and "no interface" are
     the records [nil_flow] and [nil_iface].  Slots, cursors and heads
     therefore hold their states directly, with no [option].

   A cursor is [nil] or a slot linked in its own interface's ring:
   unlinking the cursor's slot moves the cursor to its successor (or to
   [nil] when the ring empties), and a slot is always unlinked before it
   is freed, so a recycled slot is never anyone's cursor. *)

module Event = Midrr_obs.Event

type mode = Plain | Service_flags

type flag_policy = Per_turn | Per_send

let nil = Active_ring.nil

(* A link's ints: slot [s] owns the [stride] ints of [t_links] from
   [s * stride]; the ring's prev/next come first, then these fields. *)
let stride = Active_ring.stride
let l_flow = Active_ring.fields
let l_iface = l_flow + 1

(* SF_ij generalized to a saturating counter of services elsewhere since
   this interface last considered the flow; the paper's one-bit flag is
   the [counter_max = 1] case *)
let l_flag = l_flow + 2

let l_served = l_flow + 3
let l_turns = l_flow + 4
let l_next = l_flow + 5 (* the flow's next link, or the next free slot *)

type flow_state = {
  f_id : Types.flow_id;
  mutable f_weight : float; (* Q_i = f_weight * base_quantum *)
  f_queue : Pktqueue.t;
  mutable f_links : int;
      (* first link slot, [nil] when none: exactly one link per allowed
         online interface, chained in no meaningful order: every sweep
         over them (flag raising, deficit reset, activation into
         per-interface rings) is order-insensitive *)
  mutable f_allowed : Types.iface_id list;
      (* Π_i, ascending without duplicates; includes offline interfaces *)
  mutable f_served : int;
  mutable f_turns : int;
}

type iface_state = {
  i_id : Types.iface_id;
  i_ring : Active_ring.t;
  mutable i_cursor : int; (* C_j, or [nil] *)
}

(* The sentinels fill empty flow and interface slots.  No path writes
   either: [nil_flow] owns no links, no link names [nil_iface], and every
   path that writes a flow or an interface reaches it through a lookup
   that rejects the sentinel.  Sharing them across engines and domains
   is therefore safe. *)
let nil_flow =
  {
    f_id = -1;
    f_weight = 1.0;
    f_queue = Pktqueue.create ();
    f_links = nil;
    f_allowed = [];
    f_served = 0;
    f_turns = 0;
  }

let nil_iface = { i_id = -1; i_ring = Active_ring.create (); i_cursor = nil }

type t = {
  t_mode : mode;
  t_flag_policy : flag_policy;
  t_counter_max : int;
  t_base_quantum : int;
  t_queue_capacity : int option;
  mutable t_flow_slots : flow_state array; (* indexed by flow id *)
  mutable t_iface_slots : iface_state array; (* indexed by iface id *)
  mutable t_links : int array; (* the link pool's ints, [stride] per slot *)
  mutable t_dc : Float.Array.t; (* DC_ij per link slot, bytes *)
  mutable t_free : int; (* first free slot, or [nil] *)
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
    t_iface_slots = Array.make 16 nil_iface;
    t_links = [||];
    t_dc = Float.Array.create 0;
    t_free = nil;
    t_considered = 0;
    t_sink = None;
    t_ev = Event.create ();
  }

let name t =
  match t.t_mode with Plain -> "drr-per-interface" | Service_flags -> "midrr"

(* --- dense slot plumbing ---------------------------------------------- *)

(* [nil_flow] when the id has no flow. *)
let flow_slot t f =
  if f >= 0 && f < Array.length t.t_flow_slots then t.t_flow_slots.(f)
  else nil_flow

(* [nil_iface] when the id has no interface. *)
let iface_slot t j =
  if j >= 0 && j < Array.length t.t_iface_slots then t.t_iface_slots.(j)
  else nil_iface

let flow_state t f =
  let fs = flow_slot t f in
  if fs == nil_flow then invalid_arg "Drr_engine: unknown flow" else fs

let iface_state t j =
  let ifc = iface_slot t j in
  if ifc == nil_iface then invalid_arg "Drr_engine: unknown interface"
  else ifc

(* A link's interface: always online, since taking an interface down
   frees its links. *)
let iface_of t s = t.t_iface_slots.(t.t_links.((s * stride) + l_iface))

(* The flow's link to interface [j] from slot [s] on, or [nil]. *)
let rec find_link links j s =
  if s < 0 || Int.equal links.((s * stride) + l_iface) j then s
  else find_link links j links.((s * stride) + l_next)

let link_for t flow j = find_link t.t_links j flow.f_links

(* --- the link pool ----------------------------------------------------- *)

(* Double the pool and put the new slots on the free list, lowest first.
   Only called with the list empty.  New slots are filled with [nil], so
   their ring ints read unlinked, as a removed slot's do.  The first pool
   has 8 slots, 74 words, enough for a small scenario's links.  From 64
   slots the int store is past 256 words, and from 512 the float store,
   which the runtime allocates straight in the major heap: no minor
   words, nothing promoted.  A first pool of 64 slots would already be
   there, and short simulations would leave each engine's 4 KB store to
   the major collector: proxy-fig10's peak heap read 1.29 MB, not
   0.82. *)
let grow_pool t =
  let cap = Float.Array.length t.t_dc in
  let ncap = Stdlib.max 8 (2 * cap) in
  let links = Array.make (ncap * stride) nil in
  Array.blit t.t_links 0 links 0 (cap * stride);
  let dc = Float.Array.make ncap 0.0 in
  Float.Array.blit t.t_dc 0 dc 0 cap;
  for s = ncap - 1 downto cap do
    links.((s * stride) + l_next) <- t.t_free;
    t.t_free <- s
  done;
  t.t_links <- links;
  t.t_dc <- dc

(* A fresh unlinked link of [fs] to [ifc], first in the flow's chain. *)
let add_link t fs ifc =
  if t.t_free < 0 then grow_pool t;
  let s = t.t_free in
  let links = t.t_links in
  let b = s * stride in
  t.t_free <- links.(b + l_next);
  links.(b + l_flow) <- fs.f_id;
  links.(b + l_iface) <- ifc.i_id;
  links.(b + l_flag) <- 0;
  links.(b + l_served) <- 0;
  links.(b + l_turns) <- 0;
  links.(b + l_next) <- fs.f_links;
  Float.Array.set t.t_dc s 0.0;
  fs.f_links <- s;
  s

(* Return an unlinked slot to the pool. *)
let free_link t s =
  t.t_links.((s * stride) + l_next) <- t.t_free;
  t.t_free <- s

(* --- ring membership ------------------------------------------------- *)

let insert_link t ifc s =
  (* A newly backlogged flow joins at the end of the current round: just
     before the cursor when one is set, at the ring tail otherwise. *)
  let anchor = ifc.i_cursor in
  if anchor >= 0 then Active_ring.insert_before ifc.i_ring t.t_links ~anchor s
  else Active_ring.push_back ifc.i_ring t.t_links s

let remove_link t ifc s =
  let links = t.t_links in
  if Active_ring.linked links s then begin
    if Int.equal ifc.i_cursor s then
      ifc.i_cursor <-
        (if Active_ring.length ifc.i_ring <= 1 then nil
         else Active_ring.next ifc.i_ring links s);
    Active_ring.remove ifc.i_ring links s
  end

(* Link every unlinked slot of the chain from [s] into its round. *)
let rec activate t s =
  if s >= 0 then begin
    if not (Active_ring.linked t.t_links s) then insert_link t (iface_of t s) s;
    activate t t.t_links.((s * stride) + l_next)
  end

(* BL_i = 0: zero the deficits of the chain from [s] and leave every
   round. *)
let rec drain t s =
  if s >= 0 then begin
    Float.Array.set t.t_dc s 0.0;
    remove_link t (iface_of t s) s;
    drain t t.t_links.((s * stride) + l_next)
  end

(* Unlink and free the links of [fs]'s chain from [s] on whose interface
   [keep] rejects; [prev] precedes [s] ([nil] when [s] is first). *)
let rec drop_links t fs ~keep ~prev s =
  if s >= 0 then begin
    let next = t.t_links.((s * stride) + l_next) in
    if keep t.t_links.((s * stride) + l_iface) then
      drop_links t fs ~keep ~prev:s next
    else begin
      remove_link t (iface_of t s) s;
      if prev < 0 then fs.f_links <- next
      else t.t_links.((prev * stride) + l_next) <- next;
      free_link t s;
      drop_links t fs ~keep ~prev next
    end
  end

(* --- interface management -------------------------------------------- *)

let has_iface t j = iface_slot t j != nil_iface

let add_iface t j =
  if j < 0 then invalid_arg "Drr_engine.add_iface: negative interface id";
  if has_iface t j then invalid_arg "Drr_engine.add_iface: duplicate";
  t.t_iface_slots <- Int_tbl.grow t.t_iface_slots j nil_iface;
  let ifc = { i_id = j; i_ring = Active_ring.create (); i_cursor = nil } in
  t.t_iface_slots.(j) <- ifc;
  (* Link every flow that already listed this interface in its preference;
     backlogged ones join the round immediately (paper property 4: new
     capacity is used).  The slot scan runs in ascending id order, matching
     the reference engine's sorted iteration, so the new ring's order is
     identical under both engines. *)
  Array.iter
    (fun flow ->
      if flow != nil_flow && Types.mem_sorted j flow.f_allowed then begin
        let s = add_link t flow ifc in
        if not (Pktqueue.is_empty flow.f_queue) then insert_link t ifc s
      end)
    t.t_flow_slots;
  Event.set_iface_up t.t_ev ~iface:j;
  emit t

let remove_iface t j =
  let (_ : iface_state) = iface_state t j in
  let keep i = not (Int.equal i j) in
  Array.iter
    (fun flow -> drop_links t flow ~keep ~prev:nil flow.f_links)
    t.t_flow_slots;
  t.t_iface_slots.(j) <- nil_iface;
  Event.set_iface_down t.t_ev ~iface:j;
  emit t

let ifaces t =
  let acc = ref [] in
  for j = Array.length t.t_iface_slots - 1 downto 0 do
    if t.t_iface_slots.(j) != nil_iface then acc := j :: !acc
  done;
  !acc

(* --- flow management -------------------------------------------------- *)

let has_flow t f = flow_slot t f != nil_flow

(* Link [fs] to every online interface of [allowed] it has no link to;
   [insert] also enters each new link into its round.  Recursion, not a
   closure, so registering a flow allocates nothing here. *)
let rec link_allowed t fs ~insert = function
  | [] -> ()
  | j :: rest ->
      let ifc = iface_slot t j in
      if ifc != nil_iface && link_for t fs j < 0 then begin
        let s = add_link t fs ifc in
        if insert then insert_link t ifc s
      end;
      link_allowed t fs ~insert rest

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
      f_links = nil;
      f_allowed = allowed;
      f_served = 0;
      f_turns = 0;
    }
  in
  link_allowed t fs ~insert:false allowed;
  t.t_flow_slots.(flow) <- fs;
  Event.set_flow_add t.t_ev ~flow;
  t.t_ev.num.value <- weight;
  emit t

let remove_flow t f =
  let fs = flow_state t f in
  drop_links t fs ~keep:(fun _ -> false) ~prev:nil fs.f_links;
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
  drop_links t fs ~keep:(fun j -> Types.mem_sorted j wanted) ~prev:nil
    fs.f_links;
  link_allowed t fs ~insert:(not (Pktqueue.is_empty fs.f_queue)) wanted;
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
    if accepted && was_empty then activate t fs.f_links;
    (match t.t_sink with
    | None -> ()
    | Some s ->
        if accepted then Event.set_enqueue t.t_ev ~flow:p.flow ~bytes:p.size
        else Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
        s t.t_ev);
    accepted
  end

(* Raise SF_ik at every link of the chain from [s] other than [link]. *)
let rec raise_flags t links link s =
  if s >= 0 then begin
    let b = s * stride in
    if not (Int.equal s link) then begin
      let c = links.(b + l_flag) + 1 in
      links.(b + l_flag) <- (if c < t.t_counter_max then c else t.t_counter_max)
    end;
    raise_flags t links link links.(b + l_next)
  end

(* Give the flow of [link] its service turn: top up the deficit and, in
   miDRR mode, raise its service flag at every other interface
   (Algorithm 3.2's "SF_ik = 1, forall k <> j"). *)
let begin_turn t ifc link =
  let links = t.t_links in
  let b = link * stride in
  let flow = t.t_flow_slots.(links.(b + l_flow)) in
  (* Q_i is recomputed here rather than stored, which saves the flow a
     boxed float; the product is the one a stored quantum would hold.  A
     call returning it would box, hence inline. *)
  Float.Array.set t.t_dc link
    (Float.Array.get t.t_dc link
    +. (flow.f_weight *. Float.of_int t.t_base_quantum));
  flow.f_turns <- flow.f_turns + 1;
  links.(b + l_turns) <- links.(b + l_turns) + 1;
  (match t.t_sink with
  | None -> ()
  | Some s ->
      Event.set_turn t.t_ev ~flow:flow.f_id ~iface:ifc.i_id;
      s t.t_ev);
  match t.t_mode with
  | Plain -> ()
  | Service_flags -> raise_flags t links link flow.f_links

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
  let links = t.t_links in
  let b = n * stride in
  if links.(b + l_flag) > 0 then begin
    t.t_considered <- t.t_considered + 1;
    links.(b + l_flag) <- links.(b + l_flag) - 1;
    (match t.t_sink with
    | None -> ()
    | Some s ->
        Event.set_flag_reset t.t_ev ~flow:links.(b + l_flow) ~iface:ifc.i_id;
        s t.t_ev);
    skip_flagged t ifc (Active_ring.next ifc.i_ring links n)
  end
  else n

let check_next t ifc ~skip_current =
  let cur =
    let c = ifc.i_cursor in
    if c >= 0 then c else Active_ring.head ifc.i_ring
  in
  let start =
    if skip_current then Active_ring.next ifc.i_ring t.t_links cur else cur
  in
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
      if c >= 0 then c
      else begin
        (* First decision on this ring (or cursor lost with the ring):
           start a turn for the head flow. *)
        let head = Active_ring.head ifc.i_ring in
        ifc.i_cursor <- head;
        begin_turn t ifc head;
        head
      end
    in
    let links = t.t_links in
    let b = link * stride in
    let flow = t.t_flow_slots.(links.(b + l_flow)) in
    let size = Pktqueue.head_size flow.f_queue in
    t.t_considered <- t.t_considered + 1;
    if Float.of_int size <= Float.Array.get t.t_dc link then begin
      let pkt = Pktqueue.pop_exn flow.f_queue in
      Float.Array.set t.t_dc link
        (Float.Array.get t.t_dc link -. Float.of_int size);
      flow.f_served <- flow.f_served + size;
      links.(b + l_served) <- links.(b + l_served) + size;
      (match t.t_sink with
      | None -> ()
      | Some s ->
          Event.set_serve t.t_ev ~flow:flow.f_id ~iface:j ~bytes:size;
          t.t_ev.num.value <- Float.Array.get t.t_dc link;
          s t.t_ev);
      (* Under [Per_send], "when interface k serves flow i" (paper §3.1
         prose) is read as every transmission, refreshing the flags during
         the whole turn; the default [Per_turn] follows Algorithm 3.2 and
         raises them only at selection (in [begin_turn]). *)
      (match (t.t_mode, t.t_flag_policy) with
      | Service_flags, Per_send -> raise_flags t links link flow.f_links
      | _ -> ());
      if Pktqueue.is_empty flow.f_queue then begin
        drain t flow.f_links;
        if not (Active_ring.is_empty ifc.i_ring) then
          check_next t ifc ~skip_current:false
      end
      else if
        Float.of_int (Pktqueue.head_size flow.f_queue)
        > Float.Array.get t.t_dc link
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

(* Introspection of the (flow, iface) pair: its link slot, or [nil]. *)
let pair t ~flow ~iface = link_for t (flow_state t flow) iface

(* An int field of the pair's link; 0, as the spec reads an unlinked
   pair. *)
let pair_field t ~flow ~iface field =
  let s = pair t ~flow ~iface in
  if s < 0 then 0 else t.t_links.((s * stride) + field)

let served_bytes_on t ~flow ~iface = pair_field t ~flow ~iface l_served

let deficit t f =
  let rec go acc s =
    if s < 0 then acc
    else
      go
        (Float.max acc (Float.Array.get t.t_dc s))
        t.t_links.((s * stride) + l_next)
  in
  go 0.0 (flow_state t f).f_links

let deficit_on t ~flow ~iface =
  let s = pair t ~flow ~iface in
  if s < 0 then 0.0 else Float.Array.get t.t_dc s

let quantum t f = (flow_state t f).f_weight *. Float.of_int t.t_base_quantum
let service_flag t ~flow ~iface = pair_field t ~flow ~iface l_flag > 0
let service_counter t ~flow ~iface = pair_field t ~flow ~iface l_flag
let turns t f = (flow_state t f).f_turns
let turns_on t ~flow ~iface = pair_field t ~flow ~iface l_turns

let ring_flows t j =
  let links = t.t_links in
  Active_ring.to_list (iface_state t j).i_ring links
  |> List.map (fun s -> links.((s * stride) + l_flow))

let considered t = t.t_considered

let reset_counters t =
  t.t_considered <- 0;
  Array.iter
    (fun fs ->
      if fs != nil_flow then begin
        fs.f_served <- 0;
        fs.f_turns <- 0
      end)
    t.t_flow_slots;
  (* free slots too: harmless, a slot's fields are reset when it is
     taken *)
  for s = 0 to Float.Array.length t.t_dc - 1 do
    t.t_links.((s * stride) + l_served) <- 0;
    t.t_links.((s * stride) + l_turns) <- 0
  done

let drops t f = Pktqueue.drops (flow_state t f).f_queue
