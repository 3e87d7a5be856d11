(* Sharded engine tests.

   Three layers:
   - SPSC ring: model-based qcheck properties (FIFO order, no
     loss/duplication across wraparound, bounded-capacity backpressure,
     the burst variants), deterministic full/empty edge cases, and one
     real two-domain producer/consumer run.
   - The sharded-vs-single differential: random block-separable op
     streams (flow/interface churn, teardown storms, unknown-flow
     enqueues) replayed through [run_ops] at 1/2/4/8 shards and through
     [run_ops_single], comparing aggregate stats, the canonically
     merged event stream, and a full introspection walk of the final
     state.  Strict mode is on: any partition conflict is a test bug.
   - Per-shard metrics collection: the merged registry from N shard
     collectors must equal a single-registry run of the same stream. *)

open Midrr_core
module Event = Midrr_obs.Event
module Metrics = Midrr_obs.Metrics
module Rng = Midrr_stats.Rng
module Par = Midrr_par.Par

(* --- SPSC: model-based properties ---------------------------------------- *)

(* Replay a push/pop script against a FIFO queue model.  Pushed values
   are consecutive ints, so any reordering, loss or duplication shows up
   as a value mismatch. *)
let spsc_script_test =
  let arb =
    QCheck.(
      pair (int_range 1 9)
        (list_of_size Gen.(int_range 0 300) bool))
  in
  QCheck.Test.make ~count:200 ~name:"spsc agrees with a FIFO queue model" arb
    (fun (capacity, script) ->
      let t = Spsc.create ~dummy:(-1) capacity in
      let cap = Spsc.capacity t in
      let model = Queue.create () in
      let next = ref 0 in
      List.iter
        (fun is_push ->
          if is_push then begin
            let pushed = Spsc.try_push t !next in
            if pushed <> (Queue.length model < cap) then
              QCheck.Test.fail_reportf
                "try_push %d returned %b with %d/%d buffered" !next pushed
                (Queue.length model) cap;
            if pushed then Queue.push !next model;
            incr next
          end
          else
            let got = Spsc.try_pop t in
            let want = if Queue.is_empty model then -1 else Queue.pop model in
            if got <> want then
              QCheck.Test.fail_reportf "try_pop returned %d, model says %d" got
                want)
        script;
      (* drain: whatever the model still holds must come out in order *)
      Queue.iter
        (fun want ->
          let got = Spsc.try_pop t in
          if got <> want then
            QCheck.Test.fail_reportf "drain popped %d, model says %d" got want)
        model;
      Spsc.try_pop t = -1 && Spsc.is_empty t)

(* Same model, burst operations: push_slice/pop_slice interleaved with
   the single-element calls, random slice lengths, checking the returned
   counts against the model's free room / occupancy. *)
let spsc_slice_test =
  let arb =
    QCheck.(
      pair (int_range 1 9)
        (list_of_size Gen.(int_range 0 120)
           (pair bool (int_range 0 12))))
  in
  QCheck.Test.make ~count:200 ~name:"spsc burst ops agree with the model" arb
    (fun (capacity, script) ->
      let t = Spsc.create ~dummy:(-1) capacity in
      let cap = Spsc.capacity t in
      let model = Queue.create () in
      let next = ref 0 in
      List.iter
        (fun (is_push, len) ->
          if is_push then begin
            let src = Array.init len (fun k -> !next + k) in
            let n = Spsc.push_slice t src ~pos:0 ~len in
            let room = cap - Queue.length model in
            let want = if len <= room then len else room in
            if n <> want then
              QCheck.Test.fail_reportf "push_slice len=%d pushed %d, room=%d"
                len n room;
            for k = 0 to n - 1 do
              Queue.push src.(k) model
            done;
            next := !next + n
          end
          else begin
            let dst = Array.make (max 1 len) (-2) in
            let n = Spsc.pop_slice t dst ~pos:0 ~len in
            let want = min len (Queue.length model) in
            if n <> want then
              QCheck.Test.fail_reportf "pop_slice len=%d popped %d, have %d" len
                n want;
            for k = 0 to n - 1 do
              let v = Queue.pop model in
              if dst.(k) <> v then
                QCheck.Test.fail_reportf "pop_slice.(%d) = %d, model says %d" k
                  dst.(k) v
            done
          end)
        script;
      Spsc.length t = Queue.length model)

let spsc_edges () =
  let t = Spsc.create ~dummy:(-1) 1 in
  Alcotest.(check int) "capacity rounds to 1" 1 (Spsc.capacity t);
  Alcotest.(check bool) "fresh ring is empty" true (Spsc.is_empty t);
  Alcotest.(check int) "pop on empty yields dummy" (-1) (Spsc.try_pop t);
  Alcotest.(check bool) "push into empty" true (Spsc.try_push t 7);
  Alcotest.(check bool) "push into full backpressures" false (Spsc.try_push t 8);
  Alcotest.(check int) "length at capacity" 1 (Spsc.length t);
  Alcotest.(check int) "pop returns the element" 7 (Spsc.try_pop t);
  Alcotest.(check int) "pop on drained yields dummy" (-1) (Spsc.try_pop t);
  Alcotest.(check int) "push_slice on full ring"
    0
    (let u = Spsc.create ~dummy:(-1) 2 in
     ignore (Spsc.push_slice u [| 1; 2 |] ~pos:0 ~len:2);
     Spsc.push_slice u [| 3 |] ~pos:0 ~len:1);
  Alcotest.(check int) "pop_slice on empty ring" 0
    (Spsc.pop_slice (Spsc.create ~dummy:(-1) 2) (Array.make 4 0) ~pos:0 ~len:4);
  Alcotest.check_raises "rejects zero capacity"
    (Invalid_argument "Spsc.create: capacity must be > 0") (fun () ->
      ignore (Spsc.create ~dummy:0 0))

(* One real cross-domain run: producer and consumer domains hammer a
   small ring through many wraparounds; the consumer must observe
   exactly 0..n-1 in order. *)
let spsc_two_domains () =
  let n = 20_000 in
  let t = Spsc.create ~dummy:(-1) 256 in
  let producer () =
    for v = 0 to n - 1 do
      Spsc.push t v
    done;
    0
  in
  let consumer () =
    let bad = ref (-1) in
    for v = 0 to n - 1 do
      let got = Spsc.pop t in
      if got <> v && !bad < 0 then bad := v
    done;
    !bad
  in
  let results = Par.run ~jobs:2 [| consumer; producer |] in
  Alcotest.(check int) "consumer saw 0..n-1 in order" (-1) results.(0);
  Alcotest.(check bool) "ring drained" true (Spsc.is_empty t)

(* --- differential: random block-separable streams ------------------------ *)

(* Interface group [g] owns interfaces [2g] and [2g+1]; every preference
   stays inside one group, so the stream replays under [~strict:true]
   with zero partition conflicts.  The generator tracks liveness so the
   only intentionally-invalid ops are unknown-flow enqueues (defined
   behavior: a Drop event).  Group [groups-1] gets its interfaces late,
   exercising the pending-interface path: flows register preferences for
   interfaces that do not exist yet, then the interfaces come up. *)
type gen_state = {
  gs_rng : Rng.t;
  gs_groups : int;
  gs_added : bool array; (* ifaces currently registered (online) *)
  gs_merged : bool array;
      (* a flow spanning both of the group's interfaces has registered,
         so the group is one component forever (unions never split) —
         until then, single-interface preferences could bind the two
         halves to different shards and a spanning flow would be a real
         partition conflict, not a test bug *)
  mutable gs_alive : (int * int) list; (* flow, group *)
  mutable gs_next : int;
  mutable gs_freed : (int * int) list; (* recycled ids keep their group *)
}

let pick_alive gs =
  match gs.gs_alive with
  | [] -> None
  | l -> Some (List.nth l (Rng.int gs.gs_rng ~bound:(List.length l)))

let sub_allowed gs g =
  if not gs.gs_merged.(g) then begin
    gs.gs_merged.(g) <- true;
    [ 2 * g; (2 * g) + 1 ]
  end
  else
    match Rng.int gs.gs_rng ~bound:3 with
    | 0 -> [ 2 * g ]
    | 1 -> [ (2 * g) + 1 ]
    | _ -> [ 2 * g; (2 * g) + 1 ]

let gen_add_flow gs push =
  let id, g =
    match gs.gs_freed with
    | (id, g) :: rest when Rng.bool gs.gs_rng ->
        gs.gs_freed <- rest;
        (id, g)
    | _ ->
        let id = gs.gs_next in
        gs.gs_next <- id + 1;
        (id, Rng.int gs.gs_rng ~bound:gs.gs_groups)
  in
  gs.gs_alive <- (id, g) :: gs.gs_alive;
  push
    (Shard_engine.Op_add_flow
       {
         flow = id;
         weight = float_of_int (1 + Rng.int gs.gs_rng ~bound:4);
         allowed = sub_allowed gs g;
       })

let gen_ops ~seed ~groups ~late_group ~n_ops ~storm =
  let gs =
    {
      gs_rng = Rng.create ~seed;
      gs_groups = groups;
      gs_added = Array.make (2 * groups) false;
      gs_merged = Array.make groups false;
      gs_alive = [];
      gs_next = 0;
      gs_freed = [];
    }
  in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  let rng = gs.gs_rng in
  (* all groups but the late one come up front *)
  let early = if late_group then (2 * groups) - 3 else (2 * groups) - 1 in
  for j = 0 to early do
    gs.gs_added.(j) <- true;
    push (Shard_engine.Op_add_iface j)
  done;
  for _ = 1 to 5 do
    gen_add_flow gs push
  done;
  for step = 1 to n_ops do
    (* the late group's interfaces appear a third of the way in *)
    if late_group && step = n_ops / 3 then
      for j = (2 * groups) - 2 to (2 * groups) - 1 do
        if not gs.gs_added.(j) then begin
          gs.gs_added.(j) <- true;
          push (Shard_engine.Op_add_iface j)
        end
      done;
    (* periodic teardown storm: every alive flow leaves, half return *)
    if storm > 0 && step mod storm = 0 then begin
      let victims = gs.gs_alive in
      List.iter
        (fun (id, g) ->
          push (Shard_engine.Op_remove_flow id);
          gs.gs_freed <- (id, g) :: gs.gs_freed)
        victims;
      gs.gs_alive <- [];
      List.iter (fun _ -> gen_add_flow gs push) (List.filteri (fun i _ -> i mod 2 = 0) victims)
    end;
    match Rng.int rng ~bound:100 with
    | r when r < 30 -> (
        match pick_alive gs with
        | Some (id, _) ->
            push
              (Shard_engine.Op_enqueue
                 {
                   flow = id;
                   size = 200 + (100 * Rng.int rng ~bound:12);
                   arrival = float_of_int step;
                 })
        | None -> gen_add_flow gs push)
    | r when r < 55 ->
        let j = Rng.int rng ~bound:(2 * groups) in
        if gs.gs_added.(j) then
          push
            (Shard_engine.Op_serve
               { iface = j; budget = 1 + Rng.int rng ~bound:4 })
    | r when r < 67 -> gen_add_flow gs push
    | r when r < 75 -> (
        match pick_alive gs with
        | Some (id, g) ->
            gs.gs_alive <- List.filter (fun (i, _) -> i <> id) gs.gs_alive;
            gs.gs_freed <- (id, g) :: gs.gs_freed;
            push (Shard_engine.Op_remove_flow id)
        | None -> ())
    | r when r < 81 ->
        (* interface flap: keep each group's component non-empty by only
           flapping one of its two interfaces *)
        let g = Rng.int rng ~bound:groups in
        let j = 2 * g in
        if gs.gs_added.(j) then begin
          gs.gs_added.(j) <- false;
          push (Shard_engine.Op_remove_iface j)
        end
        else if gs.gs_added.((2 * g) + 1) || late_group = false || g < groups - 1
        then begin
          gs.gs_added.(j) <- true;
          push (Shard_engine.Op_add_iface j)
        end
    | r when r < 87 -> (
        match pick_alive gs with
        | Some (id, _) ->
            push
              (Shard_engine.Op_set_weight
                 {
                   flow = id;
                   weight = float_of_int (1 + Rng.int rng ~bound:5);
                 })
        | None -> ())
    | r when r < 94 -> (
        match pick_alive gs with
        | Some (id, g) ->
            push (Shard_engine.Op_set_allowed { flow = id; allowed = sub_allowed gs g })
        | None -> ())
    | _ ->
        (* unknown-flow enqueue: defined behavior, a Drop event *)
        push
          (Shard_engine.Op_enqueue
             {
               flow = gs.gs_next + 1 + Rng.int rng ~bound:50;
               size = 500;
               arrival = float_of_int step;
             })
  done;
  (* final serve pass so every backlog gets scheduling exercise *)
  for j = 0 to (2 * groups) - 1 do
    if gs.gs_added.(j) then push (Shard_engine.Op_serve { iface = j; budget = 8 })
  done;
  Array.of_list (List.rev !ops)

let pp_event e = Format.asprintf "%a" Event.pp e

(* Deep equality of final observable state between a sharded engine and
   the single fast engine, via the full introspection surface. *)
let check_state_equal ~what (t : Shard_engine.t) (e : Drr_engine.t) =
  let check pp name a b =
    if a <> b then
      Alcotest.failf "%s: %s differs: sharded %s, single %s" what name (pp a)
        (pp b)
  in
  let cki = check string_of_int
  and ckf = check string_of_float
  and ckb = check string_of_bool
  and ckl = check (fun l -> String.concat "," (List.map string_of_int l)) in
  ckl "flows" (Shard_engine.flows t) (Drr_engine.flows e);
  ckl "ifaces" (Shard_engine.ifaces t) (Drr_engine.ifaces e);
  cki "considered" (Shard_engine.considered t) (Drr_engine.considered e);
  List.iter
    (fun j ->
      ckl
        (Printf.sprintf "ring_flows %d" j)
        (Shard_engine.ring_flows t j) (Drr_engine.ring_flows e j))
    (Drr_engine.ifaces e);
  List.iter
    (fun f ->
      let pre = Printf.sprintf "flow %d" f in
      ckf (pre ^ " deficit") (Shard_engine.deficit t f) (Drr_engine.deficit e f);
      ckf (pre ^ " quantum") (Shard_engine.quantum t f) (Drr_engine.quantum e f);
      cki (pre ^ " turns") (Shard_engine.turns t f) (Drr_engine.turns e f);
      cki (pre ^ " backlog_bytes")
        (Shard_engine.backlog_bytes t f)
        (Drr_engine.backlog_bytes e f);
      cki (pre ^ " backlog_packets")
        (Shard_engine.backlog_packets t f)
        (Drr_engine.backlog_packets e f);
      ckb (pre ^ " is_backlogged")
        (Shard_engine.is_backlogged t f)
        (Drr_engine.is_backlogged e f);
      cki (pre ^ " served_bytes")
        (Shard_engine.served_bytes t f)
        (Drr_engine.served_bytes e f);
      cki (pre ^ " drops") (Shard_engine.drops t f) (Drr_engine.drops e f);
      ckl (pre ^ " allowed")
        (Shard_engine.allowed_ifaces t f)
        (Drr_engine.allowed_ifaces e f);
      List.iter
        (fun j ->
          let prej = Printf.sprintf "flow %d iface %d" f j in
          ckf
            (prej ^ " deficit_on")
            (Shard_engine.deficit_on t ~flow:f ~iface:j)
            (Drr_engine.deficit_on e ~flow:f ~iface:j);
          ckb
            (prej ^ " service_flag")
            (Shard_engine.service_flag t ~flow:f ~iface:j)
            (Drr_engine.service_flag e ~flow:f ~iface:j);
          cki
            (prej ^ " service_counter")
            (Shard_engine.service_counter t ~flow:f ~iface:j)
            (Drr_engine.service_counter e ~flow:f ~iface:j);
          cki (prej ^ " turns_on")
            (Shard_engine.turns_on t ~flow:f ~iface:j)
            (Drr_engine.turns_on e ~flow:f ~iface:j);
          cki
            (prej ^ " served_bytes_on")
            (Shard_engine.served_bytes_on t ~flow:f ~iface:j)
            (Drr_engine.served_bytes_on e ~flow:f ~iface:j))
        (Drr_engine.allowed_ifaces e f))
    (Drr_engine.flows e)

let check_events_equal ~what (a : (int * Event.t) array)
    (b : (int * Event.t) array) =
  let n = min (Array.length a) (Array.length b) in
  for k = 0 to n - 1 do
    let sa, ea = a.(k) and sb, eb = b.(k) in
    if sa <> sb || ea <> eb then
      Alcotest.failf "%s: event %d differs: sharded (%d, %s), single (%d, %s)"
        what k sa (pp_event ea) sb (pp_event eb)
  done;
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: %d events sharded, %d single" what (Array.length a)
      (Array.length b)

let run_differential ~seed ~groups ~late_group ~n_ops ~storm ~mode () =
  let ops = gen_ops ~seed ~groups ~late_group ~n_ops ~storm in
  let e = Drr_engine.create mode in
  let single = Shard_engine.run_ops_single ~record:true e ops in
  List.iter
    (fun shards ->
      let what = Printf.sprintf "shards=%d" shards in
      let t = Shard_engine.create ~shards ~strict:true mode in
      let st = Shard_engine.run_ops ~record:true t ops in
      Alcotest.(check int)
        (what ^ " conflicts") 0
        (Shard_engine.partition_conflicts t);
      Alcotest.(check int) (what ^ " decisions") single.rs_decisions st.rs_decisions;
      Alcotest.(check int) (what ^ " sent") single.rs_sent st.rs_sent;
      Alcotest.(check int) (what ^ " sent_bytes") single.rs_sent_bytes st.rs_sent_bytes;
      Alcotest.(check int) (what ^ " enqueued") single.rs_enqueued st.rs_enqueued;
      Alcotest.(check int) (what ^ " dropped") single.rs_dropped st.rs_dropped;
      check_events_equal ~what st.rs_events single.rs_events;
      check_state_equal ~what t e;
      let homed = Array.fold_left ( + ) 0 (Shard_engine.shard_flow_counts t) in
      Alcotest.(check int)
        (what ^ " homed flows") (List.length (Drr_engine.flows e)) homed)
    [ 1; 2; 4; 8 ]

let wapply_single e op =
  match op with
  | Shard_engine.Op_add_iface j -> Drr_engine.add_iface e j
  | Shard_engine.Op_remove_iface j -> Drr_engine.remove_iface e j
  | Shard_engine.Op_add_flow { flow; weight; allowed } ->
      Drr_engine.add_flow e ~flow ~weight ~allowed
  | Shard_engine.Op_remove_flow f -> Drr_engine.remove_flow e f
  | Shard_engine.Op_set_weight { flow; weight } ->
      Drr_engine.set_weight e flow weight
  | Shard_engine.Op_set_allowed { flow; allowed } ->
      Drr_engine.set_allowed e flow allowed
  | Shard_engine.Op_enqueue _ | Shard_engine.Op_serve _ -> assert false

(* The stream applied op by op through the engine's own calls, as a
   platform drives it: what [run_ops_single ~record:true] must report
   for it.  Raises where the engine raises. *)
let replay_direct e ops =
  let events = ref [] and seq = ref 0 in
  let decisions = ref 0 and sent = ref 0 and sent_bytes = ref 0 in
  let enqueued = ref 0 and dropped = ref 0 in
  Drr_engine.set_sink e
    (Some (fun ev -> events := (!seq, Event.decode ev) :: !events));
  Array.iteri
    (fun k op ->
      seq := k;
      match op with
      | Shard_engine.Op_enqueue { flow; size; arrival } ->
          if Drr_engine.enqueue e (Packet.create ~flow ~size ~arrival) then
            incr enqueued
          else incr dropped
      | Shard_engine.Op_serve { iface; budget } ->
          let rec serve k =
            if k < budget then begin
              incr decisions;
              let p = Drr_engine.next_packet_noalloc e iface in
              if not (Packet.is_none p) then begin
                incr sent;
                sent_bytes := !sent_bytes + p.size;
                serve (k + 1)
              end
            end
          in
          serve 0
      | op -> wapply_single e op)
    ops;
  Drr_engine.set_sink e None;
  {
    Shard_engine.rs_decisions = !decisions;
    rs_sent = !sent;
    rs_sent_bytes = !sent_bytes;
    rs_enqueued = !enqueued;
    rs_dropped = !dropped;
    rs_events = Array.of_list (List.rev !events);
  }

let check_stats_equal ~what (a : Shard_engine.run_stats)
    (b : Shard_engine.run_stats) =
  Alcotest.(check int) (what ^ " decisions") b.rs_decisions a.rs_decisions;
  Alcotest.(check int) (what ^ " sent") b.rs_sent a.rs_sent;
  Alcotest.(check int) (what ^ " sent_bytes") b.rs_sent_bytes a.rs_sent_bytes;
  Alcotest.(check int) (what ^ " enqueued") b.rs_enqueued a.rs_enqueued;
  Alcotest.(check int) (what ^ " dropped") b.rs_dropped a.rs_dropped;
  check_events_equal ~what a.rs_events b.rs_events

(* Sizing the engines before a replay changes no failure: one malformed
   op three quarters into a churn stream makes [run_ops_single] and
   [run_ops] at 1 and 2 shards raise what applying the stream op by op
   raises, with every earlier op applied, so the engines hold the state
   of the stream's prefix.  More registrations follow the malformed op,
   so a sizing pass that read past it would count them. *)
let sizing_keeps_failures () =
  let mode = Drr_engine.Service_flags in
  let ops = gen_ops ~seed:29 ~groups:3 ~late_group:true ~n_ops:1500 ~storm:0 in
  let at = 3 * Array.length ops / 4 in
  let prefix = Array.sub ops 0 at in
  let oracle = Drr_engine.create mode in
  ignore (replay_direct oracle prefix);
  let held = Drr_engine.flows oracle in
  let dup = List.hd held in
  let rec lowest_free f = if List.mem f held then lowest_free (f + 1) else f in
  let stream bad =
    Array.concat [ prefix; [| bad |]; Array.sub ops at (Array.length ops - at) ]
  in
  let case name bad ~single ~sharded =
    let ops = stream bad in
    (match single with
    | None -> ()
    | Some msg ->
        let e = Drr_engine.create mode in
        Alcotest.check_raises (name ^ ": run_ops_single") (Invalid_argument msg)
          (fun () -> ignore (Shard_engine.run_ops_single e ops));
        let inline = Shard_engine.create ~shards:1 ~strict:true mode in
        Array.iter (Shard_engine.apply inline) prefix;
        check_state_equal ~what:(name ^ ": run_ops_single") inline e);
    List.iter
      (fun shards ->
        let what = Printf.sprintf "%s: run_ops at %d shards" name shards in
        let t = Shard_engine.create ~shards ~strict:true mode in
        Alcotest.check_raises what (Invalid_argument sharded) (fun () ->
            ignore (Shard_engine.run_ops t ops));
        check_state_equal ~what t oracle)
      [ 1; 2 ]
  in
  case "negative flow id"
    (Shard_engine.Op_add_flow { flow = -1; weight = 1.0; allowed = [ 0 ] })
    ~single:(Some "Drr_engine.add_flow: negative flow id")
    ~sharded:"Shard_engine.add_flow: negative flow id";
  case "duplicate registration"
    (Shard_engine.Op_add_flow
       { flow = dup; weight = 1.0; allowed = Drr_engine.allowed_ifaces oracle dup })
    ~single:(Some "Drr_engine.add_flow: duplicate")
    ~sharded:"Shard_engine.add_flow: duplicate";
  case "removal of an unknown flow"
    (Shard_engine.Op_remove_flow (lowest_free 0))
    ~single:(Some "Drr_engine: unknown flow")
    ~sharded:"Shard_engine.remove_flow: unknown flow";
  case "removal of a flow id past every registered one"
    (Shard_engine.Op_remove_flow 1_000_000_000)
    ~single:(Some "Drr_engine: unknown flow")
    ~sharded:"Shard_engine.remove_flow: unknown flow";
  case "interface id above 65535" (Shard_engine.Op_add_iface 65536)
    ~single:None ~sharded:"Shard_engine.add_iface: interface id above 65535"

(* Words [f] allocates straight into the major heap, on every domain:
   major words less promoted ones.  A terminated domain's words reach
   [Gc.quick_stat] only when a major cycle ends, so a full major
   collection on each side keeps those of earlier tests' domains out of
   the window and brings those of [f]'s in (without the first, the
   single-domain replay once read 160k words above its own, in the full
   suite only). *)
let direct_major_words f =
  let direct () =
    let s = Gc.quick_stat () in
    s.major_words -. s.promoted_words
  in
  Gc.full_major ();
  let w0 = direct () in
  ignore (Sys.opaque_identity (f ()));
  Gc.full_major ();
  direct () -. w0

(* A replay that sized its engines grew each pool and id index once: the
   words it allocated straight into the major heap (those, the mailboxes
   and the packet pool's doublings) are at most 1.2 times the words the
   engine holds after it.  Pools that double on demand read 1.79 on the
   single replay: every copy on the way to the last one. *)
let check_grew_once ~what ~direct ~reachable =
  let ratio = direct /. Float.of_int reachable in
  Printf.printf
    "%s: %.0f words straight into the major heap, %d reachable after: %.2f \
     (bound 1.2)\n"
    what direct reachable ratio;
  if ratio > 1.2 then
    Alcotest.failf
      "%s allocated %.2f times its engines' reachable words straight into \
       the major heap, above 1.2: a pool grew more than once"
      what ratio

let fleet_ops ?seed share =
  Midrr_trace.Fleet.(ops ?seed (scale default_params share))

let replay_grows_once () =
  let ops = fleet_ops 0.25 in
  let e = Drr_engine.create Drr_engine.Service_flags in
  let direct =
    direct_major_words (fun () -> Shard_engine.run_ops_single e ops)
  in
  check_grew_once ~what:"run_ops_single" ~direct
    ~reachable:(Obj.reachable_words (Obj.repr e));
  let t = Shard_engine.create ~shards:2 ~strict:true Drr_engine.Service_flags in
  let direct = direct_major_words (fun () -> Shard_engine.run_ops t ops) in
  check_grew_once ~what:"run_ops at 2 shards" ~direct
    ~reachable:(Obj.reachable_words (Obj.repr t))

(* The sizing pass starts from the flows the engines already hold: a
   second fleet, with its own flow ids, replayed onto engines that hold a
   smaller first one (less some flows it removes, more some whose
   preferences it narrows) reports the stats and events of the op-by-op
   replay and still grows each pool once, to hold both fleets.  A pass
   that counted only the second fleet's flows would reserve too little
   and double on top of its reservation. *)
let sizing_counts_held_flows () =
  let mode = Drr_engine.Service_flags in
  let first = fleet_ops ~seed:1 0.1 in
  let held =
    let e = Drr_engine.create mode in
    ignore (replay_direct e first);
    e
  in
  let offset =
    1
    + Array.fold_left
        (fun top op ->
          match op with
          | Shard_engine.Op_add_flow { flow; _ } -> max top flow
          | _ -> top)
        0 first
  in
  let shift f = f + offset in
  let touched =
    List.filteri (fun i _ -> i mod 7 = 0) (Drr_engine.flows held)
  in
  let second =
    Array.concat
      [
        Array.of_list
          (List.mapi
             (fun i f ->
               if i mod 2 = 0 then Shard_engine.Op_remove_flow f
               else
                 Shard_engine.Op_set_allowed
                   {
                     flow = f;
                     allowed = [ List.hd (Drr_engine.allowed_ifaces held f) ];
                   })
             touched);
        Array.of_list
          (List.filter_map
             (fun op ->
               match op with
               | Shard_engine.Op_add_iface _ -> None
               | Op_add_flow r -> Some (Shard_engine.Op_add_flow { r with flow = shift r.flow })
               | Op_remove_flow f -> Some (Op_remove_flow (shift f))
               | Op_set_weight r -> Some (Op_set_weight { r with flow = shift r.flow })
               | Op_set_allowed r ->
                   Some (Op_set_allowed { r with flow = shift r.flow })
               | Op_enqueue r -> Some (Op_enqueue { r with flow = shift r.flow })
               | op -> Some op)
             (Array.to_list (fleet_ops ~seed:2 0.2)));
      ]
  in
  let expected = replay_direct held second in
  let e = Drr_engine.create mode in
  ignore (Shard_engine.run_ops_single e first);
  let direct =
    direct_major_words (fun () -> Shard_engine.run_ops_single e second)
  in
  check_grew_once ~what:"run_ops_single onto held flows" ~direct
    ~reachable:(Obj.reachable_words (Obj.repr e));
  let e = Drr_engine.create mode in
  ignore (Shard_engine.run_ops_single e first);
  check_stats_equal ~what:"run_ops_single onto held flows"
    (Shard_engine.run_ops_single ~record:true e second)
    expected;
  List.iter
    (fun shards ->
      let what = Printf.sprintf "run_ops at %d shards onto held flows" shards in
      let t = Shard_engine.create ~shards ~strict:true mode in
      ignore (Shard_engine.run_ops t first);
      let direct = direct_major_words (fun () -> Shard_engine.run_ops t second) in
      check_grew_once ~what ~direct ~reachable:(Obj.reachable_words (Obj.repr t));
      let t = Shard_engine.create ~shards ~strict:true mode in
      ignore (Shard_engine.run_ops t first);
      check_stats_equal ~what (Shard_engine.run_ops ~record:true t second) expected;
      check_state_equal ~what t held)
    [ 1; 2 ]

(* The inline (Sched_intf) path in lockstep: one shared op stream,
   applied op-by-op to a 4-shard engine and the single engine, with
   per-op event capture through the sinks. *)
let inline_lockstep () =
  let ops = gen_ops ~seed:11 ~groups:3 ~late_group:true ~n_ops:800 ~storm:200 in
  let e = Drr_engine.create Drr_engine.Service_flags in
  let t = Shard_engine.create ~shards:4 ~strict:true Drr_engine.Service_flags in
  let evs_e = ref [] and evs_t = ref [] in
  Drr_engine.set_sink e (Some (fun ev -> evs_e := Event.decode ev :: !evs_e));
  Shard_engine.set_sink t
    (Some (fun ev -> evs_t := Event.decode ev :: !evs_t));
  let st_e = ref 0 and st_t = ref 0 in
  Array.iteri
    (fun k op ->
      (match op with
      | Shard_engine.Op_serve { iface; budget } ->
          for _ = 1 to budget do
            (match Drr_engine.next_packet e iface with
            | Some p -> st_e := !st_e + p.Packet.size
            | None -> ());
            match Shard_engine.next_packet t iface with
            | Some p -> st_t := !st_t + p.Packet.size
            | None -> ()
          done
      | Shard_engine.Op_enqueue { flow; size; arrival } ->
          ignore (Drr_engine.enqueue e (Packet.create ~flow ~size ~arrival));
          ignore (Shard_engine.enqueue t (Packet.create ~flow ~size ~arrival))
      | op ->
          wapply_single e op;
          Shard_engine.apply t op);
      if List.length !evs_e <> List.length !evs_t then
        Alcotest.failf "inline: event count diverged after op %d" k)
    ops;
  Alcotest.(check int) "inline: served bytes" !st_e !st_t;
  check_events_equal ~what:"inline"
    (Array.of_list (List.rev_map (fun e -> (0, e)) !evs_t))
    (Array.of_list (List.rev_map (fun e -> (0, e)) !evs_e));
  check_state_equal ~what:"inline" t e

(* Strict mode: a preference spanning two bound components raises; the
   default mode hashes instead and counts the conflict. *)
let strict_conflicts () =
  let setup ~strict =
    let t = Shard_engine.create ~shards:2 ~strict Drr_engine.Service_flags in
    Shard_engine.add_iface t 0;
    Shard_engine.add_iface t 1;
    Shard_engine.add_flow t ~flow:0 ~weight:1.0 ~allowed:[ 0 ];
    Shard_engine.add_flow t ~flow:1 ~weight:1.0 ~allowed:[ 1 ];
    Alcotest.(check bool)
      "two components, two shards" true
      (Shard_engine.shard_of_iface t 0 <> Shard_engine.shard_of_iface t 1);
    t
  in
  let t = setup ~strict:false in
  Shard_engine.add_flow t ~flow:2 ~weight:1.0 ~allowed:[ 0; 1 ];
  Alcotest.(check int) "conflict counted" 1 (Shard_engine.partition_conflicts t);
  Alcotest.(check bool)
    "conflicted flow still homed" true
    (Shard_engine.shard_of_flow t 2 >= 0);
  let t = setup ~strict:true in
  Alcotest.check_raises "strict mode raises"
    (Invalid_argument
       "Shard_engine.add_flow: preference spans components bound to \
        different shards (strict mode)") (fun () ->
      Shard_engine.add_flow t ~flow:2 ~weight:1.0 ~allowed:[ 0; 1 ]);
  (* A refused preference change leaves the partition as it was: the
     pending interface 2 listed ahead of the conflict stays unbound and
     answers as the single engine does. *)
  Shard_engine.add_iface t 2;
  Alcotest.check_raises "strict set_allowed raises"
    (Invalid_argument
       "Shard_engine.set_allowed: preference spans components bound to \
        different shards (strict mode)") (fun () ->
      Shard_engine.set_allowed t 0 [ 2; 1 ]);
  Alcotest.(check int) "refused interface unbound" (-1)
    (Shard_engine.shard_of_iface t 2);
  Alcotest.(check bool)
    "refused interface serves nothing" true
    (Option.is_none (Shard_engine.next_packet t 2))

(* --- per-shard metrics collection ---------------------------------------- *)

let metrics_merge () =
  let ops = gen_ops ~seed:23 ~groups:4 ~late_group:true ~n_ops:3000 ~storm:700 in
  let reg_single = Metrics.create () in
  let e = Drr_engine.create Drr_engine.Service_flags in
  let _ = Shard_engine.run_ops_single ~metrics:reg_single e ops in
  let reg_sharded = Metrics.create () in
  let t = Shard_engine.create ~shards:4 ~strict:true Drr_engine.Service_flags in
  let _ = Shard_engine.run_ops ~metrics:reg_sharded t ops in
  let sorted l = List.sort compare l in
  let names l = List.map fst l in
  Alcotest.(check (list (pair string int)))
    "merged counters equal the single registry"
    (sorted (Metrics.counters reg_single))
    (sorted (Metrics.counters reg_sharded));
  Alcotest.(check (list (pair string (float 1e-9))))
    "merged gauges equal the single registry"
    (sorted (Metrics.gauges reg_single))
    (sorted (Metrics.gauges reg_sharded));
  let hs = sorted (Metrics.histograms reg_single)
  and hm = sorted (Metrics.histograms reg_sharded) in
  Alcotest.(check (list string))
    "same histogram names" (names hs) (names hm);
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check int)
        (name ^ " count")
        (Midrr_stats.Log_histogram.count a)
        (Midrr_stats.Log_histogram.count b);
      Alcotest.(check (float 1e-9))
        (name ^ " sum")
        (Midrr_stats.Log_histogram.sum a)
        (Midrr_stats.Log_histogram.sum b);
      List.iter
        (fun q ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s p%.0f" name (q *. 100.0))
            (Midrr_stats.Log_histogram.quantile a ~q)
            (Midrr_stats.Log_histogram.quantile b ~q))
        [ 0.5; 0.9; 0.99 ])
    hs hm

(* --- inline allocation ---------------------------------------------------- *)

(* [apply] runs an op on the caller's domain: routing it to the owning
   sub-engine must allocate nothing beyond what the fast engine
   allocates when driven directly on the same ops (the packet of an
   enqueue). *)
let apply_words_per_op () =
  let n_flows = 64 and n_ops = 20_000 in
  let setup =
    Shard_engine.Op_add_iface 0
    :: List.init n_flows (fun flow ->
           Shard_engine.Op_add_flow { flow; weight = 1.0; allowed = [ 0 ] })
  in
  let ops =
    Array.init n_ops (fun i ->
        if i mod 2 = 0 then
          Shard_engine.Op_enqueue
            { flow = i / 2 mod n_flows; size = 1000; arrival = 0.0 }
        else Shard_engine.Op_serve { iface = 0; budget = 1 })
  in
  (* The same ops on one fast engine, as a platform would drive it. *)
  let direct e = function
    | Shard_engine.Op_enqueue { flow; size; arrival } ->
        ignore (Drr_engine.enqueue e (Packet.create ~flow ~size ~arrival))
    | Shard_engine.Op_serve { iface; budget } ->
        let k = ref 0 in
        while !k < budget do
          incr k;
          if Packet.is_none (Drr_engine.next_packet_noalloc e iface) then
            k := budget
        done
    | op -> wapply_single e op
  in
  let words_per_op run =
    Array.iter run ops;
    let before = Gc.minor_words () in
    Array.iter run ops;
    (Gc.minor_words () -. before) /. Float.of_int n_ops
  in
  let t = Shard_engine.create ~shards:2 Drr_engine.Service_flags in
  List.iter (Shard_engine.apply t) setup;
  let per_op = words_per_op (Shard_engine.apply t) in
  let e = Drr_engine.create Drr_engine.Service_flags in
  List.iter (wapply_single e) setup;
  let engine_per_op = words_per_op (direct e) in
  let backlog packets =
    List.fold_left (fun acc flow -> acc + packets flow) 0
      (List.init n_flows Fun.id)
  in
  Alcotest.(check int) "every packet served" 0
    (backlog (Shard_engine.backlog_packets t));
  Alcotest.(check int) "every packet served directly" 0
    (backlog (Drr_engine.backlog_packets e));
  Printf.printf "apply: %.2f minor words per op, the engine directly %.2f\n"
    per_op engine_per_op;
  if per_op > engine_per_op +. 0.01 then
    Alcotest.failf "apply: %.2f minor words per op, %.2f above the engine's %.2f"
      per_op (per_op -. engine_per_op) engine_per_op

(* Registering a flow on a materialized component allocates nothing in
   the routing layer: [apply] of an [Op_add_flow] costs what
   [Drr_engine.add_flow] costs on the same prebuilt ops, at 1 and 2
   shards.  The highest id registers first, so no id index grows while
   the others are measured.  The engine itself allocates nothing per
   flow: the flow and its two links are slots of the engine's pools,
   whose doublings up to 256 words are all it allocates on the minor
   heap (0.23 words per registration; 15.09 while a flow was a record
   and a queue). *)
let apply_words_per_registration () =
  let n = 10_000 and allowed = [ 0; 1 ] in
  let add flow = Shard_engine.Op_add_flow { flow; weight = 1.0; allowed } in
  let setup = Shard_engine.[ Op_add_iface 0; Op_add_iface 1; add n ] in
  let ops = Array.init n add in
  let words_per_op apply =
    List.iter apply setup;
    let before = Gc.minor_words () in
    Array.iter apply ops;
    (Gc.minor_words () -. before) /. Float.of_int n
  in
  let engine =
    words_per_op (wapply_single (Drr_engine.create Drr_engine.Service_flags))
  in
  Printf.printf "the engine: %.2f minor words per registration (bound 0.25)\n"
    engine;
  if engine > 0.25 then
    Alcotest.failf
      "the engine allocates %.2f minor words per two-interface \
       registration, above 0.25 (the pools' doublings)"
      engine;
  List.iter
    (fun shards ->
      let t = Shard_engine.create ~shards Drr_engine.Service_flags in
      let per_op = words_per_op (Shard_engine.apply t) in
      Printf.printf
        "apply at %d shards: %.2f minor words per registration, the engine \
         directly %.2f\n"
        shards per_op engine;
      Alcotest.(check int)
        (Printf.sprintf "%d shards: every flow registered" shards)
        (n + 1)
        (List.length (Shard_engine.flows t));
      if per_op > engine +. 0.01 then
        Alcotest.failf
          "apply at %d shards: %.2f minor words per registration, %.2f above \
           the engine's %.2f"
          shards per_op (per_op -. engine) engine)
    [ 1; 2 ]

(* Slots are recycled: cycles that register a two-interface flow,
   backlog it with ten packets, serve one, move it between interfaces,
   bounce an interface and remove it with nine still queued leave the
   engine exactly as large as one cycle did.  A link, flow or packet slot
   that a removal, a pop or a removed flow's queue failed to free would
   grow a pool past its size after the first cycle. *)
let registration_churn () =
  let e = Drr_engine.create Drr_engine.Service_flags in
  Drr_engine.add_iface e 0;
  Drr_engine.add_iface e 1;
  let pkt = Packet.create ~flow:7 ~size:1000 ~arrival:0.0 in
  let cycle () =
    Drr_engine.add_flow e ~flow:7 ~weight:1.0 ~allowed:[ 0; 1 ];
    for _ = 1 to 10 do
      ignore (Drr_engine.enqueue e pkt)
    done;
    if Packet.is_none (Drr_engine.next_packet_noalloc e 1) then
      Alcotest.fail "no packet served";
    Drr_engine.set_allowed e 7 [ 1 ];
    Drr_engine.set_allowed e 7 [ 0; 1 ];
    Drr_engine.remove_iface e 0;
    Drr_engine.add_iface e 0;
    Drr_engine.remove_flow e 7
  in
  cycle ();
  let one = Obj.reachable_words (Obj.repr e) in
  for _ = 2 to 10_000 do
    cycle ()
  done;
  let many = Obj.reachable_words (Obj.repr e) in
  Printf.printf "engine words after 1 cycle: %d, after 10000: %d\n" one many;
  Alcotest.(check int) "engine words after 10000 cycles" one many

(* Each sub-engine sizes its flow state by its own flows, save the id
   index, one int per flow id up to the largest it was given: registering
   20k two-interface flows on 8 component groups, 8 shards may keep at
   most 2 words per flow per extra shard above 1 shard.  A sub-engine
   whose flow state were sized by the global id space would pay a word
   per id for each int it kept there. *)
let per_shard_density () =
  let n = 20_000 and groups = 8 in
  let reachable shards =
    let t = Shard_engine.create ~shards ~strict:true Drr_engine.Service_flags in
    for j = 0 to (2 * groups) - 1 do
      Shard_engine.apply t (Shard_engine.Op_add_iface j)
    done;
    for flow = 0 to n - 1 do
      let g = flow mod groups in
      Shard_engine.apply t
        (Shard_engine.Op_add_flow
           { flow; weight = 1.0; allowed = [ 2 * g; (2 * g) + 1 ] })
    done;
    Alcotest.(check (array int))
      (Printf.sprintf "%d shards: flows per shard" shards)
      (Array.make shards (n / shards))
      (Shard_engine.shard_flow_counts t);
    Obj.reachable_words (Obj.repr t)
  in
  let one = reachable 1 in
  let eight = reachable 8 in
  let per = Float.of_int (eight - one) /. Float.of_int n /. 7.0 in
  Printf.printf
    "reachable words: %d at 1 shard, %d at 8; %.2f words per flow per \
     extra shard (bound 2.0)\n"
    one eight per;
  if per > 2.0 then
    Alcotest.failf "%.2f words per flow per extra shard, above 2.0" per

(* --- mailbox allocation --------------------------------------------------- *)

(* Minor words [f] allocates on every domain.  [Gc.quick_stat] folds in
   the counters of a domain [Par.run] has joined, but the calling
   domain's own words reach it only at a minor collection, so one is
   forced on each side, as the benchmark harness does. *)
let words_all_domains f =
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).minor_words in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  (Gc.quick_stat ()).minor_words -. w0

(* A mailbox message is an op's index: per data op (enqueue, serve or
   weight), [run_ops] at 1 and 2 shards must allocate what the
   single-domain replay allocates (the packet of each enqueue), within
   0.05 words; a boxed message per routed op read about 3 words above
   it.  Each replay's words on the stream's registration skeleton (its
   interface and flow churn alone) are taken off first: they hold the
   run's own set-up, domains and rings included, and the slot arrays
   that every sub-engine grows to the flow ids it is given. *)
let mailbox_words_per_op ~seed ~groups ~late_group ~n_ops ~storm () =
  let ops = gen_ops ~seed ~groups ~late_group ~n_ops ~storm in
  let skeleton =
    Array.of_list
      (List.filter
         (function
           | Shard_engine.Op_enqueue _ | Op_serve _ | Op_set_weight _ -> false
           | _ -> true)
         (Array.to_list ops))
  in
  let per_op words =
    (words ops -. words skeleton)
    /. Float.of_int (Array.length ops - Array.length skeleton)
  in
  let single =
    per_op (fun ops ->
        let e = Drr_engine.create Drr_engine.Service_flags in
        words_all_domains (fun () -> Shard_engine.run_ops_single e ops))
  in
  List.iter
    (fun shards ->
      let sharded =
        per_op (fun ops ->
            let t =
              Shard_engine.create ~shards ~strict:true Drr_engine.Service_flags
            in
            words_all_domains (fun () -> Shard_engine.run_ops t ops))
      in
      Printf.printf
        "run_ops at %d shards: %.3f minor words per data op, run_ops_single \
         %.3f\n"
        shards sharded single;
      if sharded > single +. 0.05 then
        Alcotest.failf
          "run_ops at %d shards: %.3f minor words per data op, %.3f above \
           run_ops_single's %.3f (bound 0.05)"
          shards sharded (sharded -. single) single)
    [ 1; 2 ]

(* The largest interface id the sharded engine accepts, 65535, travels
   through the mailbox as the lowest reserved code: pending, then
   materialized on a worker by a flow's registration, it must replay
   exactly as on the single engine, at 1 and 2 shards.  One id beyond it
   is refused at [add_iface], inline and in a parallel run alike. *)
let mailbox_iface_limit () =
  let top = 65535 in
  let ops =
    Shard_engine.
      [|
        Op_add_iface 0;
        Op_add_iface top;
        Op_add_flow { flow = 0; weight = 1.0; allowed = [ 0 ] };
        Op_add_flow { flow = 1; weight = 2.0; allowed = [ top ] };
        Op_enqueue { flow = 1; size = 1000; arrival = 0.0 };
        Op_enqueue { flow = 0; size = 500; arrival = 0.0 };
        Op_serve { iface = top; budget = 2 };
        Op_serve { iface = 0; budget = 2 };
        Op_remove_iface top;
      |]
  in
  let e = Drr_engine.create Drr_engine.Service_flags in
  let single = Shard_engine.run_ops_single ~record:true e ops in
  Alcotest.(check int) "single: both packets sent" 2 single.rs_sent;
  List.iter
    (fun shards ->
      let what = Printf.sprintf "iface %d, shards=%d" top shards in
      let t =
        Shard_engine.create ~shards ~strict:true Drr_engine.Service_flags
      in
      let st = Shard_engine.run_ops ~record:true t ops in
      Alcotest.(check int) (what ^ " sent") single.rs_sent st.rs_sent;
      check_events_equal ~what st.rs_events single.rs_events;
      check_state_equal ~what t e)
    [ 1; 2 ];
  let refused =
    Invalid_argument "Shard_engine.add_iface: interface id above 65535"
  in
  Alcotest.check_raises "inline add_iface one beyond" refused (fun () ->
      Shard_engine.add_iface
        (Shard_engine.create ~shards:2 Drr_engine.Plain)
        (top + 1));
  Alcotest.check_raises "run_ops one beyond" refused (fun () ->
      ignore
        (Shard_engine.run_ops
           (Shard_engine.create ~shards:2 Drr_engine.Plain)
           Shard_engine.[| Op_add_iface 0; Op_add_iface (top + 1) |]))

(* --- suite ---------------------------------------------------------------- *)

let () =
  let rand = Random.State.make [| 1443; 9 |] in
  let qc t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "shard"
    [
      ( "spsc",
        [
          qc spsc_script_test;
          qc spsc_slice_test;
          Alcotest.test_case "full/empty edges" `Quick spsc_edges;
          Alcotest.test_case "two-domain producer/consumer" `Quick
            spsc_two_domains;
        ] );
      ( "differential",
        [
          Alcotest.test_case "random churn (miDRR)" `Quick
            (run_differential ~seed:3 ~groups:4 ~late_group:true ~n_ops:4000
               ~storm:0 ~mode:Drr_engine.Service_flags);
          Alcotest.test_case "random churn (plain DRR)" `Quick
            (run_differential ~seed:5 ~groups:3 ~late_group:false ~n_ops:4000
               ~storm:0 ~mode:Drr_engine.Plain);
          Alcotest.test_case "teardown storms" `Quick
            (run_differential ~seed:17 ~groups:4 ~late_group:true ~n_ops:3000
               ~storm:250 ~mode:Drr_engine.Service_flags);
          Alcotest.test_case "inline lockstep" `Quick inline_lockstep;
          Alcotest.test_case "strict mode and conflict accounting" `Quick
            strict_conflicts;
          Alcotest.test_case "fleet stream replays separably" `Quick
            (fun () ->
              let p =
                Midrr_trace.Fleet.(scale default_params 0.02)
              in
              let ops = Midrr_trace.Fleet.ops p in
              let e = Drr_engine.create Drr_engine.Service_flags in
              let single = Shard_engine.run_ops_single e ops in
              let t =
                Shard_engine.create ~shards:8 ~strict:true
                  Drr_engine.Service_flags
              in
              let st = Shard_engine.run_ops t ops in
              Alcotest.(check int)
                "decisions" single.rs_decisions st.rs_decisions;
              Alcotest.(check int) "sent bytes" single.rs_sent_bytes st.rs_sent_bytes;
              check_state_equal ~what:"fleet" t e);
          Alcotest.test_case "sizing changes no failure" `Quick
            sizing_keeps_failures;
        ] );
      ("metrics", [ Alcotest.test_case "per-shard collection merges" `Quick metrics_merge ]);
      ( "allocation",
        [
          Alcotest.test_case "apply words per op" `Quick apply_words_per_op;
          Alcotest.test_case "apply words per registration" `Quick
            apply_words_per_registration;
          Alcotest.test_case "registration churn recycles link slots" `Quick
            registration_churn;
          Alcotest.test_case "per-shard flow state is dense" `Quick
            per_shard_density;
          Alcotest.test_case "mailbox words per op (miDRR churn)" `Quick
            (mailbox_words_per_op ~seed:3 ~groups:4 ~late_group:true
               ~n_ops:4000 ~storm:0);
          Alcotest.test_case "mailbox words per op (plain churn)" `Quick
            (mailbox_words_per_op ~seed:5 ~groups:3 ~late_group:false
               ~n_ops:4000 ~storm:0);
          Alcotest.test_case "mailbox words per op (teardown storms)" `Quick
            (mailbox_words_per_op ~seed:17 ~groups:4 ~late_group:true
               ~n_ops:3000 ~storm:250);
          Alcotest.test_case "mailbox at the interface id limit" `Quick
            mailbox_iface_limit;
          Alcotest.test_case "a replay grows each pool once" `Quick
            replay_grows_once;
          Alcotest.test_case "a replay onto held flows sizes for both" `Quick
            sizing_counts_held_flows;
        ] );
    ]
