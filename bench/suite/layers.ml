open Midrr_core

let sched_decide = "sched.decide"
let sched_enqueue = "sched.enqueue"
let obs_sink = "obs.sink"

let drr_ops =
  List.map
    (fun op -> "drr_engine." ^ op)
    [
      "add_flow"; "remove_flow"; "set_weight"; "set_allowed"; "enqueue"; "serve";
    ]

type sched_probe = {
  tr : Tracer.t;
  k_decide : Tracer.kind;
  k_enqueue : Tracer.kind;
  mutable nones : int;
  mutable drops : int;
}

let sched_probe tr =
  {
    tr;
    k_decide = Tracer.kind tr sched_decide;
    k_enqueue = Tracer.kind tr sched_enqueue;
    nones = 0;
    drops = 0;
  }

(* Specialized to the wrapped implementation, so the inner call is a
   direct call of [M] rather than a second dispatch through the shared
   [Sched_intf.Packed] call site. *)
module Traced (M : Sched_intf.S) = struct
  type t = { p : sched_probe; inner : M.t }

  let name t = M.name t.inner
  let add_iface t = M.add_iface t.inner
  let remove_iface t = M.remove_iface t.inner
  let has_iface t = M.has_iface t.inner
  let ifaces t = M.ifaces t.inner
  let add_flow t = M.add_flow t.inner
  let remove_flow t = M.remove_flow t.inner
  let has_flow t = M.has_flow t.inner
  let flows t = M.flows t.inner
  let set_weight t = M.set_weight t.inner
  let set_allowed t = M.set_allowed t.inner
  let allowed_ifaces t = M.allowed_ifaces t.inner

  let enqueue t pkt =
    let p = t.p in
    Tracer.enter p.tr p.k_enqueue;
    let accepted = M.enqueue t.inner pkt in
    Tracer.exit p.tr p.k_enqueue;
    if not accepted then p.drops <- p.drops + 1;
    accepted

  let next_packet t j =
    let p = t.p in
    Tracer.enter p.tr p.k_decide;
    let next = M.next_packet t.inner j in
    Tracer.exit p.tr p.k_decide;
    (match next with None -> p.nones <- p.nones + 1 | Some _ -> ());
    next

  let backlog_bytes t = M.backlog_bytes t.inner
  let backlog_packets t = M.backlog_packets t.inner
  let is_backlogged t = M.is_backlogged t.inner
  let served_bytes t = M.served_bytes t.inner
  let served_bytes_on t = M.served_bytes_on t.inner
  let set_sink t = M.set_sink t.inner
  let sink t = M.sink t.inner
end

let wrap_sched p (Sched_intf.Packed ((module M), inner)) =
  let module T = Traced (M) in
  Sched_intf.Packed ((module T), { T.p; inner })

(* An idle scheduler (one interface, no flows) decides [None] at once,
   so a wrapped decision on it costs the probe and little else. *)
let idle_decide wrap =
  let s = Midrr.packed (Midrr.create ()) in
  Sched_intf.Packed.add_iface s 1;
  let s = wrap s in
  fun () -> ignore (Sched_intf.Packed.next_packet s 1)

let sched_calibration () =
  (idle_decide Fun.id, fun tr -> idle_decide (wrap_sched (sched_probe tr)))

let timed_sink tr k (s : Midrr_obs.Sink.t) : Midrr_obs.Sink.t =
 fun ~time ev ->
  Tracer.enter tr k;
  s ~time ev;
  Tracer.exit tr k

type replay_kinds = {
  add_flow : Tracer.kind;
  remove_flow : Tracer.kind;
  set_weight : Tracer.kind;
  set_allowed : Tracer.kind;
  enqueue : Tracer.kind;
  serve : Tracer.kind;
}

let replay_kinds tr =
  match List.map (Tracer.kind tr) drr_ops with
  | [ add_flow; remove_flow; set_weight; set_allowed; enqueue; serve ] ->
      { add_flow; remove_flow; set_weight; set_allowed; enqueue; serve }
  | _ -> assert false

type replay_counts = { mutable serve_nones : int; mutable enqueue_drops : int }

let replay tr ks counts e ops =
  let decisions = ref 0 and sent = ref 0 and sent_bytes = ref 0 in
  let enqueued = ref 0 and dropped = ref 0 in
  let serve iface budget =
    let k = ref 0 and more = ref true in
    while !more && !k < budget do
      incr k;
      incr decisions;
      Tracer.enter tr ks.serve;
      let p = Drr_engine.next_packet_noalloc e iface in
      Tracer.exit tr ks.serve;
      if Packet.is_none p then begin
        counts.serve_nones <- counts.serve_nones + 1;
        more := false
      end
      else begin
        incr sent;
        sent_bytes := !sent_bytes + p.size
      end
    done
  in
  (* Spans open and close inline: a closure per op would allocate, which
     the untraced replay does not. *)
  Array.iter
    (fun (op : Shard_engine.op) ->
      match op with
      | Op_add_iface j -> Drr_engine.add_iface e j
      | Op_remove_iface j -> Drr_engine.remove_iface e j
      | Op_add_flow { flow; weight; allowed } ->
          Tracer.enter tr ks.add_flow;
          Drr_engine.add_flow e ~flow ~weight ~allowed;
          Tracer.exit tr ks.add_flow
      | Op_remove_flow f ->
          Tracer.enter tr ks.remove_flow;
          Drr_engine.remove_flow e f;
          Tracer.exit tr ks.remove_flow
      | Op_set_weight { flow; weight } ->
          Tracer.enter tr ks.set_weight;
          Drr_engine.set_weight e flow weight;
          Tracer.exit tr ks.set_weight
      | Op_set_allowed { flow; allowed } ->
          Tracer.enter tr ks.set_allowed;
          Drr_engine.set_allowed e flow allowed;
          Tracer.exit tr ks.set_allowed
      | Op_enqueue { flow; size; arrival } ->
          let pkt = Packet.create ~flow ~size ~arrival in
          Tracer.enter tr ks.enqueue;
          let accepted = Drr_engine.enqueue e pkt in
          Tracer.exit tr ks.enqueue;
          if accepted then incr enqueued
          else begin
            incr dropped;
            counts.enqueue_drops <- counts.enqueue_drops + 1
          end
      | Op_serve { iface; budget } -> serve iface budget)
    ops;
  {
    Shard_engine.rs_decisions = !decisions;
    rs_sent = !sent;
    rs_sent_bytes = !sent_bytes;
    rs_enqueued = !enqueued;
    rs_dropped = !dropped;
    rs_events = [||];
  }
