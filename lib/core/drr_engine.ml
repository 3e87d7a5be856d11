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

   - A flow is an int {e slot} in a per-engine flow pool, not a record:
     its ints (id, first link, served bytes, turns, FIFO tail, length,
     bytes and drops) are one cache line of [t_flows] (see the field
     offsets below), its weight is [t_weight.(f)] in a [Float.Array.t]
     and its Π_i is [t_allowed.(f)].  A flow id reaches its slot through
     [t_ids], one int per id: the only state sized by the id space.
   - Each per-(flow, interface) link is an int slot in a second pool:
     DC_ij is [t_dc.(s)] in one [Float.Array.t], and the link's ints,
     which name its flow's slot, are one cache line of [t_links].  A flow
     keeps its first link and chains the rest through [l_next], so its
     state is sized by its own preference list, not by the interface-id
     space.  [link_for] scans a flow's chain; only the control path and
     introspection call it, never [enqueue] or a decision, and neither
     of those looks up a flow id: a link gives its flow's slot.
   - Each flow's FIFO is a chain through one packet pool: [t_pkts] holds
     the packets, [t_pnext] the chain.  The chain is circular, so the
     tail's successor is the head and one int names both ends.  A pop
     refills its slot with [Packet.none], so no served packet stays
     reachable from the pool; removing a backlogged flow clears its
     whole chain.
   - All three pools keep their free slots on a free list threaded
     through one int of the slot (a free flow slot's id reads [nil]),
     double from 8 slots when the list runs dry, and get back every slot
     that [remove_flow], [set_allowed], [remove_iface] or a pop frees.
     So registering a flow and queueing a packet allocate nothing once
     the pools have grown to the working set.  A caller that knows its
     population ahead, a replay of a recorded op stream, grows the flow
     and link pools and the id index once with [reserve] instead of
     through a chain of doublings whose old copies are garbage.
   - Each interface's round is an {e intrusive} ring over the link slots
     (see {!Active_ring}): prev/next are two of the slot's ints, so
     linking/unlinking a newly backlogged / drained flow allocates
     nothing.  Only backlogged flows are linked, so a decision never
     touches idle flows no matter how many are registered.
   - "No slot" is [nil] (-1): no flow for an id, no cursor, an empty
     ring's head or queue's tail, the end of a chain or of a free list.
     "No interface" is the record [nil_iface].  Slots, cursors and heads
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
let l_flow = Active_ring.fields (* the flow's slot *)
let l_iface = l_flow + 1

(* SF_ij generalized to a saturating counter of services elsewhere since
   this interface last considered the flow; the paper's one-bit flag is
   the [counter_max = 1] case *)
let l_flag = l_flow + 2

let l_served = l_flow + 3
let l_turns = l_flow + 4
let l_next = l_flow + 5 (* the flow's next link, or the next free slot *)

(* A flow's ints: slot [f] owns the [flow_stride] ints of [t_flows] from
   [f * flow_stride]. *)
let flow_stride = 8
let f_id = 0 (* the flow id; [nil] while the slot is free *)

(* first link slot, [nil] when none: exactly one link per allowed online
   interface, chained in no meaningful order: every sweep over them
   (flag raising, deficit reset, activation into per-interface rings) is
   order-insensitive.  The next free slot while the slot is free. *)
let f_links = 1

let f_served = 2
let f_turns = 3
let f_tail = 4 (* the FIFO's last packet slot, [nil] when empty *)
let f_len = 5
let f_bytes = 6 (* BL_i *)
let f_drops = 7

type iface_state = {
  i_id : Types.iface_id;
  i_ring : Active_ring.t;
  mutable i_cursor : int; (* C_j, or [nil] *)
}

(* The sentinel fills empty interface slots.  No path writes it: no link
   names [nil_iface], and every path that writes an interface reaches it
   through a lookup that rejects the sentinel.  Sharing it across engines
   and domains is therefore safe. *)
let nil_iface = { i_id = -1; i_ring = Active_ring.create (); i_cursor = nil }

type t = {
  t_mode : mode;
  t_flag_policy : flag_policy;
  t_counter_max : int;
  t_base_quantum : int;
  t_queue_capacity : int option;
  mutable t_ids : int array; (* flow id -> flow slot, or [nil] *)
  mutable t_flows : int array; (* the flow pool's ints, [flow_stride] each *)
  mutable t_weight : Float.Array.t; (* per flow slot: Q_i / base_quantum *)
  mutable t_allowed : Types.iface_id list array;
      (* per flow slot: Π_i, ascending without duplicates; includes
         offline interfaces *)
  mutable t_ffree : int; (* first free flow slot, or [nil] *)
  mutable t_iface_slots : iface_state array; (* indexed by iface id *)
  mutable t_links : int array; (* the link pool's ints, [stride] per slot *)
  mutable t_dc : Float.Array.t; (* DC_ij per link slot, bytes *)
  mutable t_free : int; (* first free link slot, or [nil] *)
  mutable t_pkts : Packet.t array; (* the packet pool *)
  mutable t_pnext : int array; (* per packet slot: next in chain or list *)
  mutable t_pfree : int; (* first free packet slot, or [nil] *)
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
  (match queue_capacity with
  | Some c when c <= 0 -> invalid_arg "Drr_engine.create: queue_capacity <= 0"
  | _ -> ());
  {
    t_mode;
    t_flag_policy = flag_policy;
    t_counter_max = counter_max;
    t_base_quantum = base_quantum;
    t_queue_capacity = queue_capacity;
    t_ids = Array.make 64 nil;
    t_flows = [||];
    t_weight = Float.Array.create 0;
    t_allowed = [||];
    t_ffree = nil;
    t_iface_slots = Array.make 16 nil_iface;
    t_links = [||];
    t_dc = Float.Array.create 0;
    t_free = nil;
    t_pkts = [||];
    t_pnext = [||];
    t_pfree = nil;
    t_considered = 0;
    t_sink = None;
    t_ev = Event.create ();
  }

let name t =
  match t.t_mode with Plain -> "drr-per-interface" | Service_flags -> "midrr"

(* --- dense slot plumbing ---------------------------------------------- *)

(* The flow's slot, [nil] when the id has no flow. *)
let flow_slot t f =
  if f >= 0 && f < Array.length t.t_ids then t.t_ids.(f) else nil

(* [nil_iface] when the id has no interface. *)
let iface_slot t j =
  if j >= 0 && j < Array.length t.t_iface_slots then t.t_iface_slots.(j)
  else nil_iface

(* The slot of a registered flow. *)
let flow_state t f =
  let fs = flow_slot t f in
  if fs < 0 then invalid_arg "Drr_engine: unknown flow" else fs

let iface_state t j =
  let ifc = iface_slot t j in
  if ifc == nil_iface then invalid_arg "Drr_engine: unknown interface"
  else ifc

(* An int field of flow slot [fs]. *)
let flow_int t fs field = t.t_flows.((fs * flow_stride) + field)

(* A link's interface: always online, since taking an interface down
   frees its links. *)
let iface_of t s = t.t_iface_slots.(t.t_links.((s * stride) + l_iface))

(* The flow's link to interface [j] from slot [s] on, or [nil]. *)
let rec find_link links j s =
  if s < 0 || Int.equal links.((s * stride) + l_iface) j then s
  else find_link links j links.((s * stride) + l_next)

let link_for t fs j = find_link t.t_links j (flow_int t fs f_links)

(* --- the pools ---------------------------------------------------------- *)

(* Each pool doubles when its free list runs dry, or grows once to what
   [reserve] asks, and queues the new slots behind any free ones, lowest
   first.  Either way a pool hands out a slot it freed last, else its
   lowest slot never used, so when and by how much it grew changes no
   slot it assigns.  New ints are filled with [nil], so a new link's
   ring ints read unlinked, as a removed one's do, and a new flow slot's
   id reads free.  The first pools have 8 slots: the link pool's 74
   words are enough for a small scenario's links.  From 64 slots a link
   or flow pool's int store is past 256 words, and from 512 its float
   store, which the runtime allocates straight in the major heap: no
   minor words, nothing promoted.  A first link pool of 64 slots would
   already be there, and short simulations would leave each engine's
   4 KB store to the major collector: proxy-fig10's peak heap read
   1.29 MB, not 0.82.  Each doubling copies the pool and leaves the old
   copy to the collector, so a replay that can count its flows up front
   [reserve]s instead.  The enqueue path reaches the packet pool's
   growth, so [extend] carries R7's one allow on it. *)
let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b
[@@midrr.lint.allow "R7"]

let extend_floats a n =
  let b = Float.Array.make n 0.0 in
  Float.Array.blit a 0 b 0 (Float.Array.length a);
  b

(* The on-demand size of a pool of [cap] slots. *)
let doubled cap = Stdlib.max 8 (2 * cap)

(* The last slot of the free list from [s], linked through the int at
   offset [o] of each [k]-int slot. *)
let rec last_free ints ~k ~o s =
  let next = ints.((s * k) + o) in
  if next < 0 then s else last_free ints ~k ~o next

(* Thread the new slots [cap] to [ncap - 1], ascending, behind the free
   list headed by [free]; the list's head.  The last new slot's int is
   already [nil]. *)
let free_slots ints ~k ~o ~cap ~ncap free =
  for s = cap to ncap - 2 do
    ints.((s * k) + o) <- s + 1
  done;
  if free < 0 then cap
  else begin
    ints.((last_free ints ~k ~o free * k) + o) <- cap;
    free
  end

(* Grow the link pool to [ncap] slots, [ncap] above its size. *)
let grow_pool t ncap =
  let cap = Float.Array.length t.t_dc in
  t.t_links <- extend t.t_links (ncap * stride) nil;
  t.t_dc <- extend_floats t.t_dc ncap;
  t.t_free <- free_slots t.t_links ~k:stride ~o:l_next ~cap ~ncap t.t_free

(* Grow the flow pool to [ncap] slots, [ncap] above its size. *)
let grow_flows t ncap =
  let cap = Array.length t.t_allowed in
  t.t_flows <- extend t.t_flows (ncap * flow_stride) nil;
  t.t_weight <- extend_floats t.t_weight ncap;
  t.t_allowed <- extend t.t_allowed ncap [];
  t.t_ffree <-
    free_slots t.t_flows ~k:flow_stride ~o:f_links ~cap ~ncap t.t_ffree

let grow_pkts t =
  let cap = Array.length t.t_pkts in
  let ncap = doubled cap in
  t.t_pkts <- extend t.t_pkts ncap Packet.none;
  t.t_pnext <- extend t.t_pnext ncap nil;
  t.t_pfree <- free_slots t.t_pnext ~k:1 ~o:0 ~cap ~ncap t.t_pfree

let reserve t ~flows ~links ~flow_id =
  if flow_id >= 0 then t.t_ids <- Int_tbl.grow t.t_ids flow_id nil;
  if flows > Array.length t.t_allowed then grow_flows t flows;
  if links > Float.Array.length t.t_dc then grow_pool t links

(* A fresh unlinked link of flow slot [fs] to [ifc], first in the
   flow's chain. *)
let add_link t fs ifc =
  if t.t_free < 0 then grow_pool t (doubled (Float.Array.length t.t_dc));
  let s = t.t_free in
  let links = t.t_links in
  let b = s * stride in
  let fb = fs * flow_stride in
  t.t_free <- links.(b + l_next);
  links.(b + l_flow) <- fs;
  links.(b + l_iface) <- ifc.i_id;
  links.(b + l_flag) <- 0;
  links.(b + l_served) <- 0;
  links.(b + l_turns) <- 0;
  links.(b + l_next) <- t.t_flows.(fb + f_links);
  Float.Array.set t.t_dc s 0.0;
  t.t_flows.(fb + f_links) <- s;
  s

(* Return an unlinked slot to the pool. *)
let free_link t s =
  t.t_links.((s * stride) + l_next) <- t.t_free;
  t.t_free <- s

(* --- the FIFOs ---------------------------------------------------------- *)

(* Append [p] to the FIFO of the flow whose ints start at [fb]. *)
let push t fb (p : Packet.t) =
  if t.t_pfree < 0 then grow_pkts t;
  let q = t.t_pfree in
  let next = t.t_pnext and flows = t.t_flows in
  t.t_pfree <- next.(q);
  t.t_pkts.(q) <- p;
  let tail = flows.(fb + f_tail) in
  if tail < 0 then next.(q) <- q
  else begin
    next.(q) <- next.(tail);
    next.(tail) <- q
  end;
  flows.(fb + f_tail) <- q;
  flows.(fb + f_len) <- flows.(fb + f_len) + 1;
  flows.(fb + f_bytes) <- flows.(fb + f_bytes) + p.size

(* Size_i: the head packet's size; the FIFO must be non-empty. *)
let head_size t fb = t.t_pkts.(t.t_pnext.(t.t_flows.(fb + f_tail))).size

(* Clear packet slot [q] and return it to the pool, so the pool keeps
   no packet it no longer queues alive. *)
let free_pkt t q =
  t.t_pkts.(q) <- Packet.none;
  t.t_pnext.(q) <- t.t_pfree;
  t.t_pfree <- q

(* Remove and return the head packet; the FIFO must be non-empty. *)
let pop t fb =
  let next = t.t_pnext and flows = t.t_flows in
  let tail = flows.(fb + f_tail) in
  let q = next.(tail) in
  let p = t.t_pkts.(q) in
  if Int.equal q tail then flows.(fb + f_tail) <- nil
  else next.(tail) <- next.(q);
  free_pkt t q;
  flows.(fb + f_len) <- flows.(fb + f_len) - 1;
  flows.(fb + f_bytes) <- flows.(fb + f_bytes) - p.size;
  p

(* Free the chain's slots from [q] to [tail]. *)
let rec free_chain t q tail =
  let next = t.t_pnext.(q) in
  free_pkt t q;
  if not (Int.equal q tail) then free_chain t next tail

let backlogged t fs = flow_int t fs f_tail >= 0

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

(* Unlink and free the links of flow slot [fs]'s chain from [s] on whose
   interface [keep] rejects; [prev] precedes [s] ([nil] when [s] is
   first). *)
let rec drop_links t fs ~keep ~prev s =
  if s >= 0 then begin
    let next = t.t_links.((s * stride) + l_next) in
    if keep t.t_links.((s * stride) + l_iface) then
      drop_links t fs ~keep ~prev:s next
    else begin
      remove_link t (iface_of t s) s;
      if prev < 0 then t.t_flows.((fs * flow_stride) + f_links) <- next
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
     capacity is used).  The scan runs in ascending flow id order,
     matching the reference engine's sorted iteration, so the new ring's
     order is identical under both engines. *)
  for f = 0 to Array.length t.t_ids - 1 do
    let fs = t.t_ids.(f) in
    if fs >= 0 && Types.mem_sorted j t.t_allowed.(fs) then begin
      let s = add_link t fs ifc in
      if backlogged t fs then insert_link t ifc s
    end
  done;
  Event.set_iface_up t.t_ev ~iface:j;
  emit t

let remove_iface t j =
  let (_ : iface_state) = iface_state t j in
  let keep i = not (Int.equal i j) in
  for fs = 0 to Array.length t.t_allowed - 1 do
    if flow_int t fs f_id >= 0 then
      drop_links t fs ~keep ~prev:nil (flow_int t fs f_links)
  done;
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

let has_flow t f = flow_slot t f >= 0

(* Link flow slot [fs] to every online interface of [allowed] it has no
   link to; [insert] also enters each new link into its round.
   Recursion, not a closure, so registering a flow allocates nothing
   here. *)
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
  t.t_ids <- Int_tbl.grow t.t_ids flow nil;
  let allowed = Types.canonical allowed in
  if t.t_ffree < 0 then grow_flows t (doubled (Array.length t.t_allowed));
  let fs = t.t_ffree in
  let flows = t.t_flows in
  let fb = fs * flow_stride in
  t.t_ffree <- flows.(fb + f_links);
  flows.(fb + f_id) <- flow;
  flows.(fb + f_links) <- nil;
  flows.(fb + f_served) <- 0;
  flows.(fb + f_turns) <- 0;
  flows.(fb + f_tail) <- nil;
  flows.(fb + f_len) <- 0;
  flows.(fb + f_bytes) <- 0;
  flows.(fb + f_drops) <- 0;
  Float.Array.set t.t_weight fs weight;
  t.t_allowed.(fs) <- allowed;
  link_allowed t fs ~insert:false allowed;
  t.t_ids.(flow) <- fs;
  Event.set_flow_add t.t_ev ~flow;
  t.t_ev.num.value <- weight;
  emit t

let remove_flow t f =
  let fs = flow_state t f in
  let fb = fs * flow_stride in
  drop_links t fs ~keep:(fun _ -> false) ~prev:nil t.t_flows.(fb + f_links);
  let tail = t.t_flows.(fb + f_tail) in
  if tail >= 0 then free_chain t t.t_pnext.(tail) tail;
  t.t_allowed.(fs) <- [];
  t.t_flows.(fb + f_id) <- nil;
  t.t_flows.(fb + f_links) <- t.t_ffree;
  t.t_ffree <- fs;
  t.t_ids.(f) <- nil;
  Event.set_flow_remove t.t_ev ~flow:f;
  emit t

let flows t =
  let acc = ref [] in
  for f = Array.length t.t_ids - 1 downto 0 do
    if t.t_ids.(f) >= 0 then acc := f :: !acc
  done;
  !acc

let set_weight t f w =
  if not (w > 0.0) then invalid_arg "Drr_engine.set_weight: weight <= 0";
  Float.Array.set t.t_weight (flow_state t f) w;
  Event.set_weight_change t.t_ev ~flow:f;
  t.t_ev.num.value <- w;
  emit t

let allowed_ifaces t f = t.t_allowed.(flow_state t f)

let set_allowed t f allowed =
  let fs = flow_state t f in
  let wanted = Types.canonical allowed in
  drop_links t fs ~keep:(fun j -> Types.mem_sorted j wanted) ~prev:nil
    (flow_int t fs f_links);
  link_allowed t fs ~insert:(backlogged t fs) wanted;
  t.t_allowed.(fs) <- wanted

(* --- data path --------------------------------------------------------- *)

let enqueue t (p : Packet.t) =
  let fs = flow_slot t p.flow in
  if fs < 0 then begin
    (match t.t_sink with
    | None -> ()
    | Some s ->
        Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
        s t.t_ev);
    false
  end
  else begin
    let fb = fs * flow_stride in
    let fits =
      match t.t_queue_capacity with
      | None -> true
      | Some c -> t.t_flows.(fb + f_bytes) + p.size <= c
    in
    if fits then begin
      let was_empty = t.t_flows.(fb + f_tail) < 0 in
      push t fb p;
      if was_empty then activate t t.t_flows.(fb + f_links)
    end
    else t.t_flows.(fb + f_drops) <- t.t_flows.(fb + f_drops) + 1;
    (match t.t_sink with
    | None -> ()
    | Some s ->
        if fits then Event.set_enqueue t.t_ev ~flow:p.flow ~bytes:p.size
        else Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
        s t.t_ev);
    fits
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
  let fs = links.(b + l_flow) in
  let fb = fs * flow_stride in
  let flows = t.t_flows in
  (* Q_i is recomputed here rather than stored; the product is the one a
     stored quantum would hold.  A call returning it would box, hence
     inline. *)
  Float.Array.set t.t_dc link
    (Float.Array.get t.t_dc link
    +. (Float.Array.get t.t_weight fs *. Float.of_int t.t_base_quantum));
  flows.(fb + f_turns) <- flows.(fb + f_turns) + 1;
  links.(b + l_turns) <- links.(b + l_turns) + 1;
  (match t.t_sink with
  | None -> ()
  | Some s ->
      Event.set_turn t.t_ev ~flow:flows.(fb + f_id) ~iface:ifc.i_id;
      s t.t_ev);
  match t.t_mode with
  | Plain -> ()
  | Service_flags -> raise_flags t links link flows.(fb + f_links)

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
        Event.set_flag_reset t.t_ev
          ~flow:(flow_int t links.(b + l_flow) f_id)
          ~iface:ifc.i_id;
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
    let fb = links.(b + l_flow) * flow_stride in
    let flows = t.t_flows in
    let size = head_size t fb in
    t.t_considered <- t.t_considered + 1;
    if Float.of_int size <= Float.Array.get t.t_dc link then begin
      let pkt = pop t fb in
      Float.Array.set t.t_dc link
        (Float.Array.get t.t_dc link -. Float.of_int size);
      flows.(fb + f_served) <- flows.(fb + f_served) + size;
      links.(b + l_served) <- links.(b + l_served) + size;
      (match t.t_sink with
      | None -> ()
      | Some s ->
          Event.set_serve t.t_ev ~flow:flows.(fb + f_id) ~iface:j ~bytes:size;
          t.t_ev.num.value <- Float.Array.get t.t_dc link;
          s t.t_ev);
      (* Under [Per_send], "when interface k serves flow i" (paper §3.1
         prose) is read as every transmission, refreshing the flags during
         the whole turn; the default [Per_turn] follows Algorithm 3.2 and
         raises them only at selection (in [begin_turn]). *)
      (match (t.t_mode, t.t_flag_policy) with
      | Service_flags, Per_send -> raise_flags t links link flows.(fb + f_links)
      | _ -> ());
      if flows.(fb + f_tail) < 0 then begin
        drain t flows.(fb + f_links);
        if not (Active_ring.is_empty ifc.i_ring) then
          check_next t ifc ~skip_current:false
      end
      else if Float.of_int (head_size t fb) > Float.Array.get t.t_dc link then
        check_next t ifc ~skip_current:true;
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

let backlog_bytes t f = flow_int t (flow_state t f) f_bytes
let backlog_packets t f = flow_int t (flow_state t f) f_len
let is_backlogged t f = backlogged t (flow_state t f)
let served_bytes t f = flow_int t (flow_state t f) f_served

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
  go 0.0 (flow_int t (flow_state t f) f_links)

let deficit_on t ~flow ~iface =
  let s = pair t ~flow ~iface in
  if s < 0 then 0.0 else Float.Array.get t.t_dc s

let quantum t f =
  Float.Array.get t.t_weight (flow_state t f) *. Float.of_int t.t_base_quantum

let service_flag t ~flow ~iface = pair_field t ~flow ~iface l_flag > 0
let service_counter t ~flow ~iface = pair_field t ~flow ~iface l_flag
let turns t f = flow_int t (flow_state t f) f_turns
let turns_on t ~flow ~iface = pair_field t ~flow ~iface l_turns

let ring_flows t j =
  let links = t.t_links in
  Active_ring.to_list (iface_state t j).i_ring links
  |> List.map (fun s -> flow_int t links.((s * stride) + l_flow) f_id)

let considered t = t.t_considered

let drops t f = flow_int t (flow_state t f) f_drops
