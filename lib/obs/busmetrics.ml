(* Sink-compatible fold from the event bus into a metrics registry.

   The fold keeps facts, not mirrors: one record per flow id and one per
   interface id, in slot arrays indexed by the id (empty slots hold the
   sentinels [nil_flow] and [nil_iface], which no path writes).  A flow
   holds its backlog in packets and bytes, whether it is registered, the
   interfaces it was seen on (a bitmask learned from Turn/Serve) and its
   pending enqueue times; an interface holds its up-ness and its registry
   handles.  The gauges (queue occupancy, active flows, interfaces up,
   per-interface occupancy: the summed backlog of the flows associated
   with the interface) are derived from the records by [publish] and the
   accessors, off the event path.

   Allocation discipline: [on_event] allocates nothing in the steady
   state (counters are registry int stores, facts are record int stores,
   delays go into cached sketches).  The only allocating branches are a
   record's creation the first time its id appears and a pending ring's
   growth, each annotated [@midrr.lint.allow "R7"].

   Delays: each flow keeps a ring of pending enqueue times (FIFO flow
   queues match its n-th Serve to its n-th Enqueue); the popped
   difference, in integer nanoseconds, feeds the aggregate and the
   per-interface sketch.  A consumer that wants one flow's delays runs a
   fold of its own over that flow's events, as [Bounds.report] does. *)

module Log_histogram = Midrr_stats.Log_histogram

(* Flow-to-interface association fits one tagged int. *)
let max_mask_ifaces = 62

(* Delay sketch geometry: 1 us floor, ~5% buckets, covers past 1e5 s. *)
let delay_lo = 1e-6
let delay_gamma = 1.05
let delay_bins =
  int_of_float (Float.ceil (log (1e11 /. 1.0) /. log delay_gamma))

type flow = {
  mutable backlog : int; (* packets enqueued and not yet served *)
  mutable bytes : int; (* their bytes *)
  mutable mask : int; (* associated interfaces, bits 0..61 *)
  mutable active : bool; (* between Flow_add and Flow_remove *)
  mutable pend : float array; (* ring of pending enqueue times *)
  mutable phead : int;
  mutable plen : int;
}

type iface = {
  mutable up : bool;
  occupancy : Metrics.gauge;
  serves : Metrics.counter;
  idelay : Log_histogram.t;
}

(* The sentinels filling empty slots.  Every path that writes a record
   reaches it through [flow] or [iface], which replace a sentinel with a
   fresh record first, so folds can share them. *)
let new_flow () =
  ({
     backlog = 0;
     bytes = 0;
     mask = 0;
     active = false;
     pend = [||];
     phead = 0;
     plen = 0;
   }
  [@midrr.lint.allow "R7"])

let nil_flow = new_flow ()

let nil_iface =
  {
    up = false;
    occupancy = -1;
    serves = -1;
    idelay = Log_histogram.create ~lo:delay_lo ~gamma:delay_gamma ~bins:1;
  }

type t = {
  reg : Metrics.t;
  c_enqueues : Metrics.counter;
  c_serves : Metrics.counter;
  c_drops : Metrics.counter;
  c_turns : Metrics.counter;
  c_flag_resets : Metrics.counter;
  c_completes : Metrics.counter;
  c_bytes_enqueued : Metrics.counter;
  c_bytes_served : Metrics.counter;
  c_bytes_dropped : Metrics.counter;
  c_bytes_completed : Metrics.counter;
  g_queue_packets : Metrics.gauge;
  g_queue_bytes : Metrics.gauge;
  g_flows_active : Metrics.gauge;
  g_ifaces_up : Metrics.gauge;
  delay : Log_histogram.t; (* aggregate enqueue-to-service delay *)
  mutable flows : flow array; (* indexed by flow id *)
  mutable ifaces : iface array; (* indexed by interface id *)
}

let create () =
  let reg = Metrics.create () in
  let histogram name =
    Metrics.hist reg
      (Metrics.histogram reg name ~lo:delay_lo ~gamma:delay_gamma
         ~bins:delay_bins)
  in
  {
    reg;
    c_enqueues = Metrics.counter reg "enqueues";
    c_serves = Metrics.counter reg "serves";
    c_drops = Metrics.counter reg "drops";
    c_turns = Metrics.counter reg "turns";
    c_flag_resets = Metrics.counter reg "flag_resets";
    c_completes = Metrics.counter reg "completes";
    c_bytes_enqueued = Metrics.counter reg "bytes_enqueued";
    c_bytes_served = Metrics.counter reg "bytes_served";
    c_bytes_dropped = Metrics.counter reg "bytes_dropped";
    c_bytes_completed = Metrics.counter reg "bytes_completed";
    g_queue_packets = Metrics.gauge reg "queue_packets";
    g_queue_bytes = Metrics.gauge reg "queue_bytes";
    g_flows_active = Metrics.gauge reg "flows_active";
    g_ifaces_up = Metrics.gauge reg "ifaces_up";
    delay = histogram "delay_seconds";
    flows = [||];
    ifaces = [||];
  }

let registry t = t.reg

(* --- record creation (cold, once per id) --------------------------------- *)

(* [Int_tbl.grow]'s rule, which this library sits below: a slot for
   [id], at least doubling for dense ascending ids. *)
let grow slots id nil =
  (let a = Array.make (id + 1 + Array.length slots) nil in
   Array.blit slots 0 a 0 (Array.length slots);
   a)
  [@midrr.lint.allow "R7"]

let add_flow t f =
  (if f >= Array.length t.flows then t.flows <- grow t.flows f nil_flow;
   let r = new_flow () in
   t.flows.(f) <- r;
   r)
  [@midrr.lint.allow "R7"]

let add_iface t j =
  (let name suffix = Printf.sprintf "iface%d_%s" j suffix in
   if j >= Array.length t.ifaces then t.ifaces <- grow t.ifaces j nil_iface;
   (* registration order is the registry's (and the exports') order *)
   let occupancy = Metrics.gauge t.reg (name "queue_packets") in
   let serves = Metrics.counter t.reg (name "serves") in
   let idelay =
     Metrics.hist t.reg
       (Metrics.histogram t.reg (name "delay_seconds") ~lo:delay_lo
          ~gamma:delay_gamma ~bins:delay_bins)
   in
   let r = { up = false; occupancy; serves; idelay } in
   t.ifaces.(j) <- r;
   r)
  [@midrr.lint.allow "R7"]

(* The id's record, created the first time the id appears. *)
let flow t f =
  let r = if f < Array.length t.flows then t.flows.(f) else nil_flow in
  if r != nil_flow then r else add_flow t f

let iface t j =
  let r = if j < Array.length t.ifaces then t.ifaces.(j) else nil_iface in
  if r != nil_iface then r else add_iface t j

(* A flow's ring starts at 2 slots and doubles: most flows never hold
   more than one packet pending, so a larger first ring is mostly
   empty words kept for every flow the fold has seen. *)
let grow_pending fl =
  (let old = fl.pend in
   let ring = Array.make (Stdlib.max 2 (2 * Array.length old)) 0.0 in
   (* the old ring is full: its window is [phead, n) then [0, phead) *)
   let n = Array.length old in
   Array.blit old fl.phead ring 0 (n - fl.phead);
   Array.blit old 0 ring (n - fl.phead) fl.phead;
   fl.pend <- ring;
   fl.phead <- 0)
  [@midrr.lint.allow "R7"]

(* --- hot helpers --------------------------------------------------------- *)

let push_pending fl time =
  if fl.plen >= Array.length fl.pend then grow_pending fl;
  let ring = fl.pend in
  (* phead + plen < 2n: one subtraction wraps it, no division *)
  let i = fl.phead + fl.plen in
  ring.(if i >= Array.length ring then i - Array.length ring else i) <- time;
  fl.plen <- fl.plen + 1

(* Pop the oldest pending enqueue time, returned as integer
   nanoseconds before [time]; [min_int] when the ring is empty (sink
   attached after the enqueue).  The int return matters: a float
   result would box on the way out (no flambda), putting an
   allocation on every Serve.  The subtraction happens here, on the
   unboxed ring slot, for the same reason. *)
let pop_pending_ns fl ~time =
  if Int.equal fl.plen 0 then min_int
  else begin
    let ring = fl.pend in
    let head = fl.phead in
    let next = head + 1 in
    fl.phead <- (if Int.equal next (Array.length ring) then 0 else next);
    fl.plen <- fl.plen - 1;
    int_of_float ((time -. ring.(head)) *. 1e9)
  end

let associate fl j =
  if j < max_mask_ifaces then fl.mask <- fl.mask lor (1 lsl j)

(* --- the fold ------------------------------------------------------------ *)

let on_event t ~time (ev : Event.record) =
  match ev.kind with
  | Enqueue ->
      let fl = flow t ev.flow and bytes = ev.bytes in
      Metrics.incr t.reg t.c_enqueues;
      Metrics.add t.reg t.c_bytes_enqueued bytes;
      push_pending fl time;
      fl.backlog <- fl.backlog + 1;
      fl.bytes <- fl.bytes + bytes
  | Serve ->
      let fl = flow t ev.flow in
      let ifc = iface t ev.iface in
      let bytes = ev.bytes in
      Metrics.incr t.reg t.c_serves;
      Metrics.add t.reg t.c_bytes_served bytes;
      Metrics.incr t.reg ifc.serves;
      associate fl ev.iface;
      if fl.backlog > 0 then begin
        fl.backlog <- fl.backlog - 1;
        fl.bytes <- fl.bytes - bytes
      end;
      let ns = pop_pending_ns fl ~time in
      if Int.equal ns min_int then begin
        (* no matching enqueue seen: count in the NaN cell ([Float.nan]
           is a static constant, so this branch still allocates nothing) *)
        Log_histogram.observe t.delay Float.nan;
        Log_histogram.observe ifc.idelay Float.nan
      end
      else begin
        Log_histogram.observe_ns t.delay ns;
        Log_histogram.observe_ns ifc.idelay ns
      end
  | Drop ->
      Metrics.incr t.reg t.c_drops;
      Metrics.add t.reg t.c_bytes_dropped ev.bytes
  | Turn ->
      let fl = flow t ev.flow in
      ignore (iface t ev.iface : iface);
      Metrics.incr t.reg t.c_turns;
      associate fl ev.iface
  | Flag_reset -> Metrics.incr t.reg t.c_flag_resets
  | Complete ->
      ignore (iface t ev.iface : iface);
      Metrics.incr t.reg t.c_completes;
      Metrics.add t.reg t.c_bytes_completed ev.bytes
  | Iface_up -> (iface t ev.iface).up <- true
  | Iface_down -> (iface t ev.iface).up <- false
  | Flow_add -> (flow t ev.flow).active <- true
  | Flow_remove ->
      let fl = flow t ev.flow in
      fl.active <- false;
      (* queued packets that will never be served leave the queue, and a
         re-registered id starts with no interface association *)
      fl.backlog <- 0;
      fl.bytes <- 0;
      fl.mask <- 0;
      fl.plen <- 0;
      fl.phead <- 0
  | Weight_change -> ()

let sink t : Sink.t = fun ~time ev -> on_event t ~time ev

(* --- derived values (cold: one pass over the records) -------------------- *)

let queue_packets t = Array.fold_left (fun n fl -> n + fl.backlog) 0 t.flows
let queue_bytes t = Array.fold_left (fun n fl -> n + fl.bytes) 0 t.flows

let flows_active t =
  Array.fold_left (fun n fl -> n + Bool.to_int fl.active) 0 t.flows

let ifaces_up t =
  Array.fold_left (fun n ifc -> n + Bool.to_int ifc.up) 0 t.ifaces

let iface_queue_packets t ~iface =
  if iface < 0 || iface >= max_mask_ifaces then 0
  else
    Array.fold_left
      (fun n fl ->
        if Int.equal (fl.mask land (1 lsl iface)) 0 then n else n + fl.backlog)
      0 t.flows

(* Write the derived values into the registry's float gauges; every
   interface's occupancy from one pass over the flows. *)
let publish t =
  let set g v = Metrics.set_gauge t.reg g (Float.of_int v) in
  set t.g_queue_packets (queue_packets t);
  set t.g_queue_bytes (queue_bytes t);
  set t.g_flows_active (flows_active t);
  set t.g_ifaces_up (ifaces_up t);
  Array.iter (fun ifc -> if ifc != nil_iface then set ifc.occupancy 0) t.ifaces;
  Array.iter
    (fun fl ->
      if fl.backlog > 0 then
        for j = 0 to max_mask_ifaces - 1 do
          if not (Int.equal (fl.mask land (1 lsl j)) 0) then
            Metrics.incr_gauge t.reg t.ifaces.(j).occupancy
              (Float.of_int fl.backlog)
        done)
    t.flows

let known t j = j >= 0 && j < Array.length t.ifaces && t.ifaces.(j) != nil_iface

let iface_serves t ~iface =
  if known t iface then Metrics.counter_value t.reg t.ifaces.(iface).serves
  else 0

let delay t = t.delay

let iface_delay t ~iface =
  if known t iface then Some t.ifaces.(iface).idelay else None
