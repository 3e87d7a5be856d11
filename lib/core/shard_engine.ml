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
   sequence number. *)

module Event = Midrr_obs.Event
module Metrics = Midrr_obs.Metrics
module Busmetrics = Midrr_obs.Busmetrics
module Par = Midrr_par.Par

let imax a b = if a >= b then a else b

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
  mutable t_parent : int array;  (* union-find parent *)
  mutable t_binding : int array;  (* component shard, valid at roots; -1 *)
  mutable t_online : bool array;
  mutable t_mat : bool array;  (* lives in its shard's sub-engine *)
  mutable t_nifaces : int;
  mutable t_flow_shard : int array;  (* home shard per flow id; -1 *)
  mutable t_nflows : int;
  t_counts : int array;  (* flows homed per shard *)
  mutable t_conflicts : int;
  mutable t_sink : Midrr_obs.Sink.raw option;
  t_ev : Event.record; (* the routing layer's own emissions, inline *)
  t_scratch : wstate; (* the inline ops' accounting, which nothing reads *)
}

let create ?base_quantum ?queue_capacity ?flag_policy ?counter_max
    ?(shards = 1) ?(strict = false) mode =
  if shards < 1 then invalid_arg "Shard_engine.create: shards < 1";
  {
    t_n = shards;
    t_engines =
      Array.init shards (fun _ ->
          Drr_engine.create ?base_quantum ?queue_capacity ?flag_policy
            ?counter_max mode);
    t_strict = strict;
    t_parent = [||];
    t_binding = [||];
    t_online = [||];
    t_mat = [||];
    t_nifaces = 0;
    t_flow_shard = [||];
    t_nflows = 0;
    t_counts = Array.make shards 0;
    t_conflicts = 0;
    t_sink = None;
    t_ev = Event.create ();
    t_scratch = wstate_create ();
  }

let shards t = t.t_n
let mode t = Drr_engine.mode t.t_engines.(0)
let flag_policy t = Drr_engine.flag_policy t.t_engines.(0)
let counter_max t = Drr_engine.counter_max t.t_engines.(0)
let base_quantum t = Drr_engine.base_quantum t.t_engines.(0)
let name t = Drr_engine.name t.t_engines.(0)
let partition_conflicts t = t.t_conflicts
let shard_flow_counts t = Array.copy t.t_counts

let emit t ev = match t.t_sink with None -> () | Some s -> s ev

(* --- partition bookkeeping (routing domain only) ---------------------- *)

let grow_ifaces t j =
  let cap = Array.length t.t_parent in
  if j >= cap then begin
    let ncap = imax (j + 1) (imax 8 (2 * cap)) in
    let parent = Array.init ncap (fun i -> i)
    and binding = Array.make ncap (-1)
    and online = Array.make ncap false
    and mat = Array.make ncap false in
    Array.blit t.t_parent 0 parent 0 cap;
    Array.blit t.t_binding 0 binding 0 cap;
    Array.blit t.t_online 0 online 0 cap;
    Array.blit t.t_mat 0 mat 0 cap;
    t.t_parent <- parent;
    t.t_binding <- binding;
    t.t_online <- online;
    t.t_mat <- mat
  end

let grow_flows t f =
  let cap = Array.length t.t_flow_shard in
  if f >= cap then begin
    let ncap = imax (f + 1) (imax 8 (2 * cap)) in
    let fs = Array.make ncap (-1) in
    Array.blit t.t_flow_shard 0 fs 0 cap;
    t.t_flow_shard <- fs
  end

let rec find t j =
  let p = t.t_parent.(j) in
  if Int.equal p j then j
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

(* Non-negative shard index for flows the partition does not know
   (unknown-flow enqueues land on an arbitrary shard, whose sub-engine
   reports the drop exactly as the single engine would). *)
let hash_shard t f =
  let m = f mod t.t_n in
  if m < 0 then m + t.t_n else m

(* Decide the home shard of a new flow whose preference is [allowed]
   (negative ids are kept out of the partition; the sub-engine ignores
   them like the single engine does).  Updates the union-find and
   bindings, and returns [(home, mats)] where [mats] are pending online
   interfaces that must be added to the home sub-engine silently before
   the flow registers. *)
let home_for t ~flow allowed =
  let roots = ref [] in
  List.iter
    (fun j ->
      if j >= 0 then begin
        grow_ifaces t j;
        let r = find t j in
        if not (List.exists (Int.equal r) !roots) then roots := r :: !roots
      end)
    allowed;
  let roots = List.rev !roots in
  let bound =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun r ->
           let b = t.t_binding.(r) in
           if b >= 0 then Some b else None)
         roots)
  in
  let separable, home =
    match bound with
    | [] -> (true, least_loaded t)
    | [ s ] -> (true, s)
    | _ :: _ :: _ ->
        if t.t_strict then
          invalid_arg
            "Shard_engine.add_flow: preference spans components bound to \
             different shards (strict mode)";
        t.t_conflicts <- t.t_conflicts + 1;
        (false, List.nth bound (flow mod List.length bound))
  in
  let mats = ref [] in
  if separable then begin
    (* Union every component of the preference into one, bound to
       [home]; collect pending online interfaces for materialization. *)
    match roots with
    | [] -> ()
    | canon :: rest ->
        List.iter (fun r -> t.t_parent.(r) <- canon) rest;
        t.t_binding.(canon) <- home
  end
  else
    (* Non-separable fallback: leave the bound components as they are,
       but claim the still-unbound ones for the home shard so the flow
       can at least use those interfaces there. *)
    List.iter
      (fun r -> if t.t_binding.(r) < 0 then t.t_binding.(r) <- home)
      roots;
  List.iter
    (fun j ->
      if j >= 0 && t.t_online.(j) && (not t.t_mat.(j))
         && Int.equal (binding t j) home
      then begin
        t.t_mat.(j) <- true;
        mats := j :: !mats
      end)
    allowed;
  (home, List.rev !mats)

(* Add interfaces to a sub-engine without re-emitting their Iface_up:
   the canonical event was already emitted (from the routing layer) at
   the interface's own add_iface operation. *)
let materialize_silently e mats =
  match mats with
  | [] -> ()
  | _ :: _ ->
      let prev = Drr_engine.sink e in
      Drr_engine.set_sink e None;
      List.iter (fun j -> Drr_engine.add_iface e j) mats;
      Drr_engine.set_sink e prev

(* --- batch operations -------------------------------------------------- *)

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

(* Worker-side form: flow registrations carry the interfaces their
   shard must materialize first. *)
type wop =
  | W_basic of op
  | W_add_flow of {
      wf_flow : Types.flow_id;
      wf_weight : float;
      wf_allowed : Types.iface_id list;
      wf_mat : Types.iface_id list;
    }
  | W_set_allowed of {
      ws_flow : Types.flow_id;
      ws_allowed : Types.iface_id list;
      ws_mat : Types.iface_id list;
    }

(* Route one operation: update the partition, emit routing-layer events
   (pending-interface up/down, filled into [ev] and handed to
   [emit_here]; unknown-flow drops are left to the destination
   sub-engine), and name the destination shard.  [-1] means the
   operation is fully handled here.  [null_serve] is called instead when
   a serve lands on a pending interface: the single engine would make
   exactly one empty decision there. *)
let route t ~ev ~emit_here ~null_serve op =
  match op with
  | Op_add_iface j ->
      if j < 0 then invalid_arg "Shard_engine.add_iface: negative interface id";
      if has_iface t j then invalid_arg "Shard_engine.add_iface: duplicate";
      grow_ifaces t j;
      t.t_online.(j) <- true;
      t.t_nifaces <- t.t_nifaces + 1;
      let b = binding t j in
      if b >= 0 then begin
        t.t_mat.(j) <- true;
        (b, W_basic op)
      end
      else begin
        Event.set_iface_up ev ~iface:j;
        emit_here ev;
        (-1, W_basic op)
      end
  | Op_remove_iface j ->
      if not (has_iface t j) then
        invalid_arg "Shard_engine.remove_iface: unknown interface";
      t.t_online.(j) <- false;
      t.t_nifaces <- t.t_nifaces - 1;
      if t.t_mat.(j) then begin
        t.t_mat.(j) <- false;
        (binding t j, W_basic op)
      end
      else begin
        Event.set_iface_down ev ~iface:j;
        emit_here ev;
        (-1, W_basic op)
      end
  | Op_add_flow { flow; weight; allowed } ->
      if flow < 0 then invalid_arg "Shard_engine.add_flow: negative flow id";
      if has_flow t flow then invalid_arg "Shard_engine.add_flow: duplicate";
      if not (weight > 0.0) then
        invalid_arg "Shard_engine.add_flow: weight <= 0";
      let home, mats = home_for t ~flow allowed in
      grow_flows t flow;
      t.t_flow_shard.(flow) <- home;
      t.t_counts.(home) <- t.t_counts.(home) + 1;
      t.t_nflows <- t.t_nflows + 1;
      ( home,
        W_add_flow
          { wf_flow = flow; wf_weight = weight; wf_allowed = allowed;
            wf_mat = mats } )
  | Op_remove_flow f ->
      if not (has_flow t f) then
        invalid_arg "Shard_engine.remove_flow: unknown flow";
      let s = t.t_flow_shard.(f) in
      t.t_flow_shard.(f) <- -1;
      t.t_counts.(s) <- t.t_counts.(s) - 1;
      t.t_nflows <- t.t_nflows - 1;
      (s, W_basic op)
  | Op_set_weight { flow; _ } ->
      if not (has_flow t flow) then
        invalid_arg "Shard_engine.set_weight: unknown flow";
      (t.t_flow_shard.(flow), W_basic op)
  | Op_set_allowed { flow; allowed } ->
      if not (has_flow t flow) then
        invalid_arg "Shard_engine.set_allowed: unknown flow";
      let s = t.t_flow_shard.(flow) in
      let mats = ref [] in
      List.iter
        (fun j ->
          if j >= 0 then begin
            grow_ifaces t j;
            let r = find t j in
            let b = t.t_binding.(r) in
            if b < 0 then begin
              t.t_binding.(r) <- s;
              if t.t_online.(j) && not t.t_mat.(j) then begin
                t.t_mat.(j) <- true;
                mats := j :: !mats
              end
            end
            else if not (Int.equal b s) then begin
              if t.t_strict then
                invalid_arg
                  "Shard_engine.set_allowed: preference spans components \
                   bound to different shards (strict mode)";
              t.t_conflicts <- t.t_conflicts + 1
            end
          end)
        allowed;
      ( s,
        W_set_allowed
          { ws_flow = flow; ws_allowed = allowed; ws_mat = List.rev !mats } )
  | Op_enqueue { flow; _ } ->
      let s = if has_flow t flow then t.t_flow_shard.(flow)
              else hash_shard t flow in
      (s, W_basic op)
  | Op_serve { iface; budget } ->
      if not (has_iface t iface) then
        invalid_arg "Shard_engine.next_packet: unknown interface";
      if t.t_mat.(iface) then (binding t iface, W_basic op)
      else begin
        if budget > 0 then null_serve ();
        (-1, W_basic op)
      end

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

let apply_w e st w =
  match w with
  | W_basic (Op_add_iface j) -> Drr_engine.add_iface e j
  | W_basic (Op_remove_iface j) -> Drr_engine.remove_iface e j
  | W_basic (Op_remove_flow f) -> Drr_engine.remove_flow e f
  | W_basic (Op_set_weight { flow; weight }) ->
      Drr_engine.set_weight e flow weight
  | W_basic (Op_enqueue { flow; size; arrival }) ->
      if Drr_engine.enqueue e (Packet.create ~flow ~size ~arrival) then
        st.w_enq <- st.w_enq + 1
      else st.w_drop <- st.w_drop + 1
  | W_basic (Op_serve { iface; budget }) -> serve_loop e st iface budget
  | W_basic (Op_add_flow _ | Op_set_allowed _) ->
      (* the router always rewrites these *)
      assert false
  | W_add_flow { wf_flow; wf_weight; wf_allowed; wf_mat } ->
      materialize_silently e wf_mat;
      Drr_engine.add_flow e ~flow:wf_flow ~weight:wf_weight ~allowed:wf_allowed
  | W_set_allowed { ws_flow; ws_allowed; ws_mat } ->
      materialize_silently e ws_mat;
      Drr_engine.set_allowed e ws_flow ws_allowed

(* --- inline (Sched_intf.S) --------------------------------------------- *)

let ignore_null_serve () = ()

(* Inline ops run on the caller's domain, so they share one scratch
   accounting per engine. *)
let dispatch t op =
  match
    route t ~ev:t.t_ev ~emit_here:(emit t) ~null_serve:ignore_null_serve op
  with
  | -1, _ -> ()
  | s, w -> apply_w t.t_engines.(s) t.t_scratch w

let add_iface t j = dispatch t (Op_add_iface j)
let remove_iface t j = dispatch t (Op_remove_iface j)

let ifaces t =
  let acc = ref [] in
  for j = Array.length t.t_online - 1 downto 0 do
    if t.t_online.(j) then acc := j :: !acc
  done;
  !acc

let add_flow t ~flow ~weight ~allowed =
  dispatch t (Op_add_flow { flow; weight; allowed })

let remove_flow t f = dispatch t (Op_remove_flow f)

let flows t =
  let acc = ref [] in
  for f = Array.length t.t_flow_shard - 1 downto 0 do
    if t.t_flow_shard.(f) >= 0 then acc := f :: !acc
  done;
  !acc

let set_weight t f w = dispatch t (Op_set_weight { flow = f; weight = w })
let set_allowed t f allowed = dispatch t (Op_set_allowed { flow = f; allowed })
let allowed_ifaces t f = Drr_engine.allowed_ifaces (owner_engine t f) f

let enqueue t (p : Packet.t) =
  if has_flow t p.flow then
    Drr_engine.enqueue t.t_engines.(t.t_flow_shard.(p.flow)) p
  else begin
    Event.set_drop t.t_ev ~flow:p.flow ~bytes:p.size;
    emit t t.t_ev;
    false
  end

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

let reset_counters t = Array.iter Drr_engine.reset_counters t.t_engines
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

type msg = Msg_none | Msg_stop | Msg_op of { m_seq : int; m_op : wop }

(* [fold_iface_events:false] is the shard-side variant: interface
   up/down is partition-layer state whose events straddle folds (a
   pending interface's up is emitted at the router, its materialized
   down at a shard), and Busmetrics tracks up-ness with a per-registry
   bitmask that would drop the unpaired half.  The router folds every
   interface transition itself — it sees the full stream in global
   order — so the shard folds must skip them (they still record them,
   the canonical event stream is unaffected). *)
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
  let rings = Array.init n (fun _ -> Spsc.create ~dummy:Msg_none mailbox) in
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
  (* the router's own record: the inline [t_ev] belongs to the caller's
     domain *)
  let router_ev = Event.create () in
  let emit_here ev = if record then evbuf_push router_st.w_events router_st.w_seq ev in
  (* see [make_run_sink]: every interface transition folds here, in
     global op order, whichever side emits the event *)
  let fold_here ev =
    match folds.(n) with
    | None -> ()
    | Some b -> Busmetrics.on_event b ~time:0.0 ev
  in
  let null_serve () = router_st.w_decisions <- router_st.w_decisions + 1 in
  let send_stops () = Array.iter (fun ring -> Spsc.push ring Msg_stop) rings in
  (* Messages travel in bursts: the router stages up to [burst] routed
     ops per shard and publishes them with one [Spsc.push_slice]; each
     worker drains with [Spsc.pop_slice].  Per-shard FIFO order is all
     the merge needs (the global order is reconstructed from the seq
     tags), and the burst amortizes the shared-cursor cache traffic that
     dominates per-message cost across domains. *)
  let burst = 64 in
  let router () =
    let stage = Array.init n (fun _ -> Array.make burst Msg_none) in
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
    (try
       Array.iteri
         (fun seq op ->
           router_st.w_seq <- seq;
           let dest = route t ~ev:router_ev ~emit_here ~null_serve op in
           (* fold after [route] validated — an op that raises emits
              nothing on the single engine either *)
           (match op with
           | Op_add_iface j ->
               Event.set_iface_up router_ev ~iface:j;
               fold_here router_ev
           | Op_remove_iface j ->
               Event.set_iface_down router_ev ~iface:j;
               fold_here router_ev
           | _ -> ());
           match dest with
           | -1, _ -> ()
           | s, w ->
               stage.(s).(stage_len.(s)) <- Msg_op { m_seq = seq; m_op = w };
               stage_len.(s) <- stage_len.(s) + 1;
               if stage_len.(s) >= burst then flush s)
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
     task, and the router communicates only through the SPSC ring. *)
  let worker i () =
    let e = t.t_engines.(i) in
    let st = states.(i) in
    let ring = rings.(i) in
    let batch = Array.make burst Msg_none in
    let rec drain () =
      match Spsc.pop ring with Msg_stop -> () | Msg_op _ | Msg_none -> drain ()
    in
    let running = ref true in
    try
      while !running do
        let k = Spsc.pop_slice ring batch ~pos:0 ~len:burst in
        if Int.equal k 0 then Domain.cpu_relax ()
        else
          for j = 0 to k - 1 do
            match batch.(j) with
            | Msg_stop -> running := false
            | Msg_op { m_seq; m_op } ->
                st.w_seq <- m_seq;
                apply_w e st m_op
            | Msg_none -> ()
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

let apply_single e st op =
  match op with
  | Op_add_flow { flow; weight; allowed } ->
      Drr_engine.add_flow e ~flow ~weight ~allowed
  | Op_set_allowed { flow; allowed } -> Drr_engine.set_allowed e flow allowed
  | Op_add_iface _ | Op_remove_iface _ | Op_remove_flow _ | Op_set_weight _
  | Op_enqueue _ | Op_serve _ ->
      apply_w e st (W_basic op)

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
         apply_single e st op)
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

let apply t op = dispatch t op
