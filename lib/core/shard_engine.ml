(* Sharded front-end over per-shard Drr_engine instances.

   The routing layer (this module) owns the partition: a union-find
   over interface ids whose components are bound to shards at first
   flow registration.  All partition state is written only by the
   routing domain — sub-engines are written either inline (same domain)
   or by exactly one worker domain during [run_ops], with bounded SPSC
   mailboxes as the only cross-domain channel.  Correctness argument:
   components of the preference graph share no scheduler state (flags
   propagate only among one flow's links; rings hold only one
   interface's flows), every operation touches exactly one component,
   and per-shard operation subsequences preserve the global order — so
   the sharded run is the single-engine run, component-interleaved.
   Event streams are re-merged into the global order by operation
   sequence number.

   Every operation takes one path.  [route] updates the partition,
   emits the routing layer's own events through [t_sink], leaves in
   [t_pending] the pending interfaces the destination shard must add
   first, and names that shard; the caller adds those interfaces
   silently (inline directly, in [run_ops] as one materialize code each
   ahead of the op's index) and hands the op to [apply_on], the one
   interpreter that inline calls, [run_ops] workers and [run_ops_single]
   share. *)

module Event = Midrr_obs.Event
module Metrics = Midrr_obs.Metrics
module Busmetrics = Midrr_obs.Busmetrics
module Par = Midrr_par.Par

(* Growable flat event buffer; one per participant during a recording
   run, written only by that participant's domain.  Event [i] was emitted
   by op [eb_seq.(i)]; its fields are copied into [eb_cols], so a push
   allocates nothing and keeps no reference to the emitter's record. *)
type evbuf = {
  mutable eb_seq : int array;
  eb_cols : Event.Columns.t;
  mutable eb_len : int;
}

let evbuf_create () =
  { eb_seq = Array.make 64 0; eb_cols = Event.Columns.create 64; eb_len = 0 }

let evbuf_push b seq ev =
  if b.eb_len >= Array.length b.eb_seq then begin
    let n = Array.make (2 * Array.length b.eb_seq) 0 in
    Array.blit b.eb_seq 0 n 0 b.eb_len;
    b.eb_seq <- n;
    Event.Columns.grow b.eb_cols
  end;
  b.eb_seq.(b.eb_len) <- seq;
  Event.Columns.store b.eb_cols b.eb_len ev;
  b.eb_len <- b.eb_len + 1

(* Per-run worker accounting, written only by the owning domain. *)
type wstate = {
  mutable w_seq : int;  (* sequence number of the op being applied *)
  mutable w_decisions : int;
  mutable w_sent : int;
  mutable w_sent_bytes : int;
  mutable w_enq : int;
  mutable w_drop : int;
  w_events : evbuf;
}

let wstate_create () =
  {
    w_seq = 0;
    w_decisions = 0;
    w_sent = 0;
    w_sent_bytes = 0;
    w_enq = 0;
    w_drop = 0;
    w_events = evbuf_create ();
  }

type t = {
  t_n : int;
  t_engines : Drr_engine.t array;
  t_strict : bool;
  (* partition state; iface-indexed arrays grow together *)
  mutable t_parent : int array;  (* union-find parent; -1 at a root *)
  mutable t_binding : int array;  (* component shard, valid at roots; -1 *)
  mutable t_online : bool array;
  mutable t_mat : bool array;  (* lives in its shard's sub-engine *)
  mutable t_flow_shard : int array;  (* home shard per flow id; -1 *)
  t_counts : int array;  (* flows homed per shard *)
  t_stamp : int array;  (* per shard: [t_epoch] when [home_for] marked it *)
  mutable t_epoch : int;
  mutable t_conflicts : int;
  mutable t_pending : Types.iface_id list;
      (* pending interfaces the last routed op's shard must add first;
         the caller drains it *)
  mutable t_sink : Midrr_obs.Sink.raw option;
      (* the routing layer's own events; the router's recorder during
         [run_ops] *)
  t_ev : Event.record;
  t_scratch : wstate; (* the inline ops' accounting, which nothing reads *)
}

(* The largest interface id: the slot arrays here and in the
   sub-engines are sized by the id, and [run_ops]'s mailbox codes
   interface [j] as the negative int [-2 - j] (see [msg_mat]). *)
let max_iface_id = 65535

let create ?counter_max ?(shards = 1) ?(strict = false) mode =
  if shards < 1 then invalid_arg "Shard_engine.create: shards < 1";
  {
    t_n = shards;
    t_engines =
      Array.init shards (fun _ ->
          Drr_engine.create ?counter_max mode);
    t_strict = strict;
    t_parent = Array.make 16 (-1);
    t_binding = Array.make 16 (-1);
    t_online = Array.make 16 false;
    t_mat = Array.make 16 false;
    t_flow_shard = Array.make 64 (-1);
    t_counts = Array.make shards 0;
    t_stamp = Array.make shards 0;
    t_epoch = 0;
    t_conflicts = 0;
    t_pending = [];
    t_sink = None;
    t_ev = Event.create ();
    t_scratch = wstate_create ();
  }

let name t = Drr_engine.name t.t_engines.(0)
let partition_conflicts t = t.t_conflicts
let shard_flow_counts t = Array.copy t.t_counts

(* Hand [t_ev], just filled, to the routing layer's sink. *)
let emit t = match t.t_sink with None -> () | Some s -> s t.t_ev

(* --- partition bookkeeping (routing domain only) ---------------------- *)

let grow_ifaces t j =
  if j >= Array.length t.t_parent then begin
    t.t_parent <- Int_tbl.grow t.t_parent j (-1);
    t.t_binding <- Int_tbl.grow t.t_binding j (-1);
    t.t_online <- Int_tbl.grow t.t_online j false;
    t.t_mat <- Int_tbl.grow t.t_mat j false
  end

let rec find t j =
  let p = t.t_parent.(j) in
  if p < 0 then j
  else begin
    let r = find t p in
    t.t_parent.(j) <- r;
    r
  end

let binding t j = t.t_binding.(find t j)

let least_loaded t =
  let best = ref 0 in
  for s = 1 to t.t_n - 1 do
    if t.t_counts.(s) < t.t_counts.(!best) then best := s
  done;
  !best

let has_iface t j = j >= 0 && j < Array.length t.t_online && t.t_online.(j)

let has_flow t f =
  f >= 0 && f < Array.length t.t_flow_shard && t.t_flow_shard.(f) >= 0

let shard_of_flow t f = if has_flow t f then t.t_flow_shard.(f) else -1

let shard_of_iface t j =
  if j >= 0 && j < Array.length t.t_parent then binding t j else -1

let owner_engine t f =
  if has_flow t f then t.t_engines.(t.t_flow_shard.(f))
  else invalid_arg "Shard_engine: unknown flow"

(* The flow's home shard; for a flow the partition does not know, an
   arbitrary non-negative one, whose sub-engine reports the drop of an
   enqueue exactly as the single engine would. *)
let flow_shard t f =
  if has_flow t f then t.t_flow_shard.(f)
  else
    let m = f mod t.t_n in
    if m < 0 then m + t.t_n else m

(* An online interface still pending in a component now bound to [s]
   must be added to [s]'s sub-engine before the op that bound it. *)
let claim t s j =
  if t.t_online.(j) && (not t.t_mat.(j)) && Int.equal (binding t j) s then begin
    t.t_mat.(j) <- true;
    t.t_pending <- j :: t.t_pending
  end

(* [home_for]'s walks over Π_i, top-level so that a registration
   allocates only the pending interfaces it claims. *)

(* Grow the partition to every interface of [allowed] and mark in
   [t_stamp] the distinct shards its components are bound to; [n] plus
   the number of shards newly marked. *)
let rec mark_bound t n = function
  | [] -> n
  | j :: rest ->
      if j < 0 then mark_bound t n rest
      else begin
        grow_ifaces t j;
        let b = binding t j in
        if b < 0 || Int.equal t.t_stamp.(b) t.t_epoch then mark_bound t n rest
        else begin
          t.t_stamp.(b) <- t.t_epoch;
          mark_bound t (n + 1) rest
        end
      end

(* The [k]-th marked shard from [s], ascending. *)
let rec nth_marked t s k =
  if not (Int.equal t.t_stamp.(s) t.t_epoch) then nth_marked t (s + 1) k
  else if Int.equal k 0 then s
  else nth_marked t (s + 1) (k - 1)

(* The canonical root: the component of the first interface in Π_i
   order; [-1] when there is none. *)
let rec first_root t = function
  | [] -> -1
  | j :: rest -> if j < 0 then first_root t rest else find t j

(* Settle the components of [allowed] for a flow homed on [s]: union
   each into [canon]'s, or, with no [canon] ([-1], the non-separable
   fallback), bind the still-unbound ones to [s] and leave the bound
   ones as they are, so the flow can at least use those interfaces
   there.  Then claim the interface, in Π_i order. *)
let rec settle t canon s = function
  | [] -> ()
  | j :: rest ->
      if j >= 0 then begin
        let r = find t j in
        if canon >= 0 then begin
          if not (Int.equal r canon) then t.t_parent.(r) <- canon
        end
        else if t.t_binding.(r) < 0 then t.t_binding.(r) <- s;
        claim t s j
      end;
      settle t canon s rest

(* Decide the home shard of a new flow whose preference is [allowed]
   (negative ids are kept out of the partition; the sub-engine ignores
   them like the single engine does).  Updates the union-find and
   bindings, and leaves the interfaces to add first in [t_pending]. *)
let home_for t ~flow allowed =
  t.t_epoch <- t.t_epoch + 1;
  let bound = mark_bound t 0 allowed in
  if bound >= 2 then begin
    if t.t_strict then
      invalid_arg
        "Shard_engine.add_flow: preference spans components bound to \
         different shards (strict mode)";
    t.t_conflicts <- t.t_conflicts + 1
  end;
  let home =
    if Int.equal bound 0 then least_loaded t
    else nth_marked t 0 (flow mod bound)
  in
  (* separable: one component, rooted at the first interface's *)
  let canon = if bound <= 1 then first_root t allowed else -1 in
  if canon >= 0 then t.t_binding.(canon) <- home;
  settle t canon home allowed;
  t.t_pending <- List.rev t.t_pending;
  home

(* [set_allowed]'s walks over the new Π_i, top-level like [home_for]'s:
   whether an interface's component is bound to a shard other than [s],
   and binding the unbound ones to [s] (counting a conflict for each one
   bound elsewhere) and claiming each. *)
let rec bound_elsewhere t s = function
  | [] -> false
  | j :: rest ->
      let b = shard_of_iface t j in
      (b >= 0 && not (Int.equal b s)) || bound_elsewhere t s rest

let rec bind_to t s = function
  | [] -> ()
  | j :: rest ->
      if j >= 0 then begin
        grow_ifaces t j;
        let r = find t j in
        let b = t.t_binding.(r) in
        if b < 0 then t.t_binding.(r) <- s
        else if not (Int.equal b s) then t.t_conflicts <- t.t_conflicts + 1;
        claim t s j
      end;
      bind_to t s rest

(* Add a pending interface to a sub-engine without re-emitting its
   Iface_up: the routing layer emitted the canonical event at the
   interface's own add_iface operation. *)
let add_silently e j =
  let prev = Drr_engine.sink e in
  Drr_engine.set_sink e None;
  Drr_engine.add_iface e j;
  Drr_engine.set_sink e prev

(* --- one op path ------------------------------------------------------- *)

type op =
  | Op_add_iface of Types.iface_id
  | Op_remove_iface of Types.iface_id
  | Op_add_flow of {
      flow : Types.flow_id;
      weight : float;
      allowed : Types.iface_id list;
    }
  | Op_remove_flow of Types.flow_id
  | Op_set_weight of { flow : Types.flow_id; weight : float }
  | Op_set_allowed of { flow : Types.flow_id; allowed : Types.iface_id list }
  | Op_enqueue of { flow : Types.flow_id; size : int; arrival : float }
  | Op_serve of { iface : Types.iface_id; budget : int }

(* Route one operation: update the partition, emit the routing layer's
   own events (a pending interface's up/down; unknown-flow drops are
   left to the destination sub-engine), leave in [t_pending] the
   interfaces the destination must add first, and return the
   destination shard.  [-1] means the operation is fully handled here;
   a serve routed there is one empty decision on the single engine. *)
let route t op =
  match op with
  | Op_add_iface j ->
      if j < 0 then invalid_arg "Shard_engine.add_iface: negative interface id";
      if j > max_iface_id then
        invalid_arg "Shard_engine.add_iface: interface id above 65535";
      if has_iface t j then invalid_arg "Shard_engine.add_iface: duplicate";
      grow_ifaces t j;
      t.t_online.(j) <- true;
      let b = binding t j in
      if b >= 0 then t.t_mat.(j) <- true
      else begin
        Event.set_iface_up t.t_ev ~iface:j;
        emit t
      end;
      b
  | Op_remove_iface j ->
      if not (has_iface t j) then
        invalid_arg "Shard_engine.remove_iface: unknown interface";
      t.t_online.(j) <- false;
      if t.t_mat.(j) then begin
        t.t_mat.(j) <- false;
        binding t j
      end
      else begin
        Event.set_iface_down t.t_ev ~iface:j;
        emit t;
        -1
      end
  | Op_add_flow { flow; weight; allowed } ->
      if flow < 0 then invalid_arg "Shard_engine.add_flow: negative flow id";
      if has_flow t flow then invalid_arg "Shard_engine.add_flow: duplicate";
      if not (weight > 0.0) then
        invalid_arg "Shard_engine.add_flow: weight <= 0";
      let home = home_for t ~flow allowed in
      if flow >= Array.length t.t_flow_shard then
        t.t_flow_shard <- Int_tbl.grow t.t_flow_shard flow (-1);
      t.t_flow_shard.(flow) <- home;
      t.t_counts.(home) <- t.t_counts.(home) + 1;
      home
  | Op_remove_flow f ->
      if not (has_flow t f) then
        invalid_arg "Shard_engine.remove_flow: unknown flow";
      let s = t.t_flow_shard.(f) in
      t.t_flow_shard.(f) <- -1;
      t.t_counts.(s) <- t.t_counts.(s) - 1;
      s
  | Op_set_weight { flow; _ } ->
      if not (has_flow t flow) then
        invalid_arg "Shard_engine.set_weight: unknown flow";
      t.t_flow_shard.(flow)
  | Op_set_allowed { flow; allowed } ->
      if not (has_flow t flow) then
        invalid_arg "Shard_engine.set_allowed: unknown flow";
      let s = t.t_flow_shard.(flow) in
      (* refuse before binding anything, or a refused preference would
         leave its unbound interfaces claimed for [s] *)
      if t.t_strict && bound_elsewhere t s allowed then
        invalid_arg
          "Shard_engine.set_allowed: preference spans components bound to \
           different shards (strict mode)";
      bind_to t s allowed;
      t.t_pending <- List.rev t.t_pending;
      s
  | Op_enqueue { flow; _ } -> flow_shard t flow
  | Op_serve { iface; _ } ->
      if not (has_iface t iface) then
        invalid_arg "Shard_engine.next_packet: unknown interface";
      if t.t_mat.(iface) then binding t iface else -1

let serve_loop e st iface budget =
  let continue_ = ref true in
  let k = ref 0 in
  while !continue_ && !k < budget do
    incr k;
    st.w_decisions <- st.w_decisions + 1;
    let p = Drr_engine.next_packet_noalloc e iface in
    if Packet.is_none p then continue_ := false
    else begin
      st.w_sent <- st.w_sent + 1;
      st.w_sent_bytes <- st.w_sent_bytes + p.size
    end
  done

(* Apply one operation to the engine that owns it, counting into [st]. *)
let apply_on e st op =
  match op with
  | Op_add_iface j -> Drr_engine.add_iface e j
  | Op_remove_iface j -> Drr_engine.remove_iface e j
  | Op_add_flow { flow; weight; allowed } ->
      Drr_engine.add_flow e ~flow ~weight ~allowed
  | Op_remove_flow f -> Drr_engine.remove_flow e f
  | Op_set_weight { flow; weight } -> Drr_engine.set_weight e flow weight
  | Op_set_allowed { flow; allowed } -> Drr_engine.set_allowed e flow allowed
  | Op_enqueue { flow; size; arrival } ->
      if Drr_engine.enqueue e (Packet.create ~flow ~size ~arrival) then
        st.w_enq <- st.w_enq + 1
      else st.w_drop <- st.w_drop + 1
  | Op_serve { iface; budget } -> serve_loop e st iface budget

(* --- inline (Sched_intf.S) --------------------------------------------- *)

(* Inline ops run on the caller's domain, so they share one scratch
   accounting per engine. *)
let apply t op =
  let s = route t op in
  if s >= 0 then begin
    let e = t.t_engines.(s) in
    (match t.t_pending with
    | [] -> ()
    | pending ->
        t.t_pending <- [];
        List.iter (add_silently e) pending);
    apply_on e t.t_scratch op
  end

let add_iface t j = apply t (Op_add_iface j)
let remove_iface t j = apply t (Op_remove_iface j)

let ifaces t =
  let acc = ref [] in
  for j = Array.length t.t_online - 1 downto 0 do
    if t.t_online.(j) then acc := j :: !acc
  done;
  !acc

let add_flow t ~flow ~weight ~allowed =
  apply t (Op_add_flow { flow; weight; allowed })

let remove_flow t f = apply t (Op_remove_flow f)

let flows t =
  let acc = ref [] in
  for f = Array.length t.t_flow_shard - 1 downto 0 do
    if t.t_flow_shard.(f) >= 0 then acc := f :: !acc
  done;
  !acc

let set_weight t f w = apply t (Op_set_weight { flow = f; weight = w })
let set_allowed t f allowed = apply t (Op_set_allowed { flow = f; allowed })
let allowed_ifaces t f = Drr_engine.allowed_ifaces (owner_engine t f) f

let enqueue t (p : Packet.t) =
  Drr_engine.enqueue t.t_engines.(flow_shard t p.flow) p

let next_packet t j =
  if not (has_iface t j) then
    invalid_arg "Shard_engine.next_packet: unknown interface";
  if t.t_mat.(j) then Drr_engine.next_packet t.t_engines.(binding t j) j
  else None

let backlog_bytes t f = Drr_engine.backlog_bytes (owner_engine t f) f
let backlog_packets t f = Drr_engine.backlog_packets (owner_engine t f) f
let is_backlogged t f = Drr_engine.is_backlogged (owner_engine t f) f
let served_bytes t f = Drr_engine.served_bytes (owner_engine t f) f

let served_bytes_on t ~flow ~iface =
  Drr_engine.served_bytes_on (owner_engine t flow) ~flow ~iface

let set_sink t s =
  t.t_sink <- s;
  Array.iter (fun e -> Drr_engine.set_sink e s) t.t_engines

let sink t = t.t_sink

(* --- introspection ----------------------------------------------------- *)

let deficit t f = Drr_engine.deficit (owner_engine t f) f

let deficit_on t ~flow ~iface =
  Drr_engine.deficit_on (owner_engine t flow) ~flow ~iface

let quantum t f = Drr_engine.quantum (owner_engine t f) f

let service_flag t ~flow ~iface =
  Drr_engine.service_flag (owner_engine t flow) ~flow ~iface

let service_counter t ~flow ~iface =
  Drr_engine.service_counter (owner_engine t flow) ~flow ~iface

let turns t f = Drr_engine.turns (owner_engine t f) f
let turns_on t ~flow ~iface = Drr_engine.turns_on (owner_engine t flow) ~flow ~iface

let ring_flows t j =
  if not (has_iface t j) then
    invalid_arg "Shard_engine.ring_flows: unknown interface";
  if t.t_mat.(j) then Drr_engine.ring_flows t.t_engines.(binding t j) j else []

let considered t =
  Array.fold_left (fun acc e -> acc + Drr_engine.considered e) 0 t.t_engines

let drops t f = Drr_engine.drops (owner_engine t f) f

(* --- parallel batch driver --------------------------------------------- *)

type run_stats = {
  rs_decisions : int;
  rs_sent : int;
  rs_sent_bytes : int;
  rs_enqueued : int;
  rs_dropped : int;
  rs_events : (int * Event.t) array;
}

(* A mailbox message is one int, so posting it allocates nothing: the
   index of an op in the run's op array, which the worker reads from
   that shared, immutable array, or a reserved negative code.  Every
   code lies in [-2 - max_iface_id, -1], above [msg_filler], which
   fills the rings' empty slots and is never posted. *)
let msg_stop = -1
let msg_filler = min_int

(* add pending interface [j] silently ([add_silently]) *)
let msg_mat j = -2 - j

(* [fold_iface_events:false] is the shard-side variant: interface
   up/down is partition-layer state whose events straddle folds (a
   pending interface's up is emitted at the router, its materialized
   down at a shard), and Busmetrics keeps one up flag per interface in
   each fold, which would count the unpaired half wrongly.  The router
   folds every interface transition itself — it sees the full stream in
   global order — so the shard folds must skip them (they still record
   them, the canonical event stream is unaffected). *)
let make_run_sink ~record ?(fold_iface_events = true) st bm =
  let fold =
    match bm with
    | None -> None
    | Some b when fold_iface_events ->
        Some (fun ev -> Busmetrics.on_event b ~time:0.0 ev)
    | Some b ->
        Some
          (fun (ev : Event.record) ->
            match ev.kind with
            | Iface_up | Iface_down -> ()
            | _ -> Busmetrics.on_event b ~time:0.0 ev)
  in
  match (record, fold) with
  | false, None -> None
  | true, None -> Some (fun ev -> evbuf_push st.w_events st.w_seq ev)
  | false, Some f -> Some f
  | true, Some f ->
      Some
        (fun ev ->
          evbuf_push st.w_events st.w_seq ev;
          f ev)

(* K-way merge of the per-participant event buffers by op sequence
   number, walking their int seq columns.  Each sequence number lives in
   exactly one buffer and every buffer is already ascending, so the merge
   is total and deterministic.  Only the output, the decoded stream, is
   allocated. *)
let merge_events bufs =
  let total = Array.fold_left (fun acc b -> acc + b.eb_len) 0 bufs in
  let idx = Array.make (Array.length bufs) 0 in
  Array.init total (fun _ ->
      let best = ref (-1) and best_seq = ref max_int in
      for b = 0 to Array.length bufs - 1 do
        let i = idx.(b) in
        if i < bufs.(b).eb_len && bufs.(b).eb_seq.(i) < !best_seq then begin
          best_seq := bufs.(b).eb_seq.(i);
          best := b
        end
      done;
      let b = !best in
      let i = idx.(b) in
      idx.(b) <- i + 1;
      (!best_seq, Event.Columns.decode bufs.(b).eb_cols i))

let stats_of ~record states =
  let acc = wstate_create () in
  Array.iter
    (fun st ->
      acc.w_decisions <- acc.w_decisions + st.w_decisions;
      acc.w_sent <- acc.w_sent + st.w_sent;
      acc.w_sent_bytes <- acc.w_sent_bytes + st.w_sent_bytes;
      acc.w_enq <- acc.w_enq + st.w_enq;
      acc.w_drop <- acc.w_drop + st.w_drop)
    states;
  let events =
    if record then merge_events (Array.map (fun st -> st.w_events) states)
    else [||]
  in
  {
    rs_decisions = acc.w_decisions;
    rs_sent = acc.w_sent;
    rs_sent_bytes = acc.w_sent_bytes;
    rs_enqueued = acc.w_enq;
    rs_dropped = acc.w_drop;
    rs_events = events;
  }

let run_ops ?(record = false) ?metrics ?(mailbox = 8192) t ops =
  let n = t.t_n in
  let prev_sink = t.t_sink in
  let rings = Array.init n (fun _ -> Spsc.create ~dummy:msg_filler mailbox) in
  let states = Array.init (n + 1) (fun _ -> wstate_create ()) in
  let router_st = states.(n) in
  let folds =
    match metrics with
    | None -> Array.make (n + 1) None
    | Some _ -> Array.init (n + 1) (fun _ -> Some (Busmetrics.create ()))
  in
  Array.iteri
    (fun i e ->
      Drr_engine.set_sink e
        (make_run_sink ~record ~fold_iface_events:false states.(i) folds.(i)))
    t.t_engines;
  (* [route] emits through [t_sink]: for the run, that is the router's
     recorder, which folds nothing (see below) *)
  t.t_sink <- make_run_sink ~record router_st None;
  (* see [make_run_sink]: every interface transition folds here, in
     global op order, whichever side emits the event *)
  let fold_here ev =
    match folds.(n) with
    | None -> ()
    | Some b -> Busmetrics.on_event b ~time:0.0 ev
  in
  let send_stops () = Array.iter (fun ring -> Spsc.push ring msg_stop) rings in
  (* Messages travel in bursts: the router stages up to [burst] routed
     op indices per shard and publishes them with one [Spsc.push_slice];
     each worker drains with [Spsc.pop_slice].  Per-shard FIFO order is
     all the merge needs (the global order is reconstructed from the op
     indices, which are the sequence numbers), and the burst amortizes
     the shared-cursor cache traffic that dominates per-message cost
     across domains. *)
  let burst = 64 in
  let router () =
    let stage = Array.init n (fun _ -> Array.make burst msg_filler) in
    let stage_len = Array.make n 0 in
    let flush s =
      let buf = stage.(s) and len = stage_len.(s) in
      let pos = ref 0 in
      while !pos < len do
        let k = Spsc.push_slice rings.(s) buf ~pos:!pos ~len:(len - !pos) in
        if Int.equal k 0 then Domain.cpu_relax ();
        pos := !pos + k
      done;
      stage_len.(s) <- 0
    in
    let post s msg =
      stage.(s).(stage_len.(s)) <- msg;
      stage_len.(s) <- stage_len.(s) + 1;
      if stage_len.(s) >= burst then flush s
    in
    (try
       Array.iteri
         (fun seq op ->
           router_st.w_seq <- seq;
           let s = route t op in
           (* fold after [route] validated — an op that raises emits
              nothing on the single engine either *)
           (match op with
           | Op_add_iface j ->
               Event.set_iface_up t.t_ev ~iface:j;
               fold_here t.t_ev
           | Op_remove_iface j ->
               Event.set_iface_down t.t_ev ~iface:j;
               fold_here t.t_ev
           | Op_serve { budget; _ } ->
               if s < 0 && budget > 0 then
                 router_st.w_decisions <- router_st.w_decisions + 1
           | _ -> ());
           if s >= 0 then begin
             (match t.t_pending with
             | [] -> ()
             | pending ->
                 t.t_pending <- [];
                 List.iter (fun j -> post s (msg_mat j)) pending);
             post s seq
           end)
         ops;
       for s = 0 to n - 1 do
         flush s
       done
     with ex ->
       (* still release the workers, or Par.run would wait forever *)
       send_stops ();
       raise ex);
    send_stops ()
  [@midrr.lint.allow "R8"]
  in
  (* Each worker owns shard [i] exclusively: its engine, its accounting
     record and the consumer end of its mailbox are touched by no other
     task, and the router communicates only through the SPSC ring.  The
     op array is shared, and only read: it was filled before [Par.run]
     spawned the domains, and no task writes it. *)
  let worker i () =
    let e = t.t_engines.(i) in
    let st = states.(i) in
    let ring = rings.(i) in
    let batch = Array.make burst msg_filler in
    let rec drain () =
      if not (Int.equal (Spsc.pop ring) msg_stop) then drain ()
    in
    let running = ref true in
    try
      while !running do
        let k = Spsc.pop_slice ring batch ~pos:0 ~len:burst in
        if Int.equal k 0 then Domain.cpu_relax ()
        else
          for j = 0 to k - 1 do
            let m = batch.(j) in
            if m >= 0 then begin
              st.w_seq <- m;
              apply_on e st ops.(m)
            end
            else if Int.equal m msg_stop then running := false
            else add_silently e (-2 - m) (* [msg_mat] *)
          done
      done
    with ex ->
      (* keep consuming so the router never blocks on a full mailbox,
         then let Par.run surface the failure *)
      drain ();
      raise ex
  [@midrr.lint.allow "R8"]
  in
  let tasks =
    Array.init (n + 1) (fun i -> if i < n then worker i else router)
  in
  let finish () =
    t.t_sink <- prev_sink;
    Array.iter (fun e -> Drr_engine.set_sink e prev_sink) t.t_engines
  in
  (match Par.run ~jobs:(n + 1) tasks with
  | (_ : unit array) -> finish ()
  | exception e ->
      finish ();
      raise e);
  (match metrics with
  | None -> ()
  | Some dst ->
      Array.iter
        (function
          | None -> ()
          | Some b ->
              Busmetrics.publish b;
              Metrics.merge_into ~src:(Busmetrics.registry b) ~dst)
        folds);
  stats_of ~record states

(* --- single-domain baseline -------------------------------------------- *)

let run_ops_single ?(record = false) ?metrics e ops =
  let prev_sink = Drr_engine.sink e in
  let st = wstate_create () in
  let fold =
    match metrics with None -> None | Some _ -> Some (Busmetrics.create ())
  in
  Drr_engine.set_sink e (make_run_sink ~record st fold);
  let finish () = Drr_engine.set_sink e prev_sink in
  (try
     Array.iteri
       (fun seq op ->
         st.w_seq <- seq;
         apply_on e st op)
       ops
   with ex ->
     finish ();
     raise ex);
  finish ();
  (match (metrics, fold) with
  | Some dst, Some b ->
      Busmetrics.publish b;
      Metrics.merge_into ~src:(Busmetrics.registry b) ~dst
  | _, _ -> ());
  stats_of ~record [| st |]
