(* Sink-compatible fold from the event bus into a metrics registry.

   Allocation discipline: [on_event] is on the decision path whenever
   the fold is attached, so the steady state touches only preallocated
   int/float arrays — counters are int stores, queue-occupancy state is
   kept in exact int mirrors (published to float registry gauges only
   at snapshot time, where boxing is harmless), and delays go straight
   into cached [Log_histogram.t] sketches.  The only allocating
   branches are one-time-per-flow / per-interface growth and
   registration sites, each annotated [@midrr.lint.allow "R7"].

   Per-interface queue occupancy is derived purely from the stream: a
   flow's backlog comes from Enqueue/Serve (Drops are rejected before
   entering the queue, Flow_remove clears), and the flow's association
   with interfaces is learned from Turn/Serve events into a per-flow
   bitmask.  An interface's occupancy gauge is the summed backlog of
   the flows associated with it. *)

module Log_histogram = Midrr_stats.Log_histogram

(* Flow-to-interface association fits one tagged int. *)
let max_mask_ifaces = 62

(* Delay sketch geometry: 1 us floor, ~5% buckets, covers past 1e5 s. *)
let delay_lo = 1e-6
let delay_gamma = 1.05
let delay_bins =
  int_of_float (Float.ceil (log (1e11 /. 1.0) /. log delay_gamma))

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
  (* per-interface state, indexed by interface id *)
  mutable ifc_known : bool array;
  mutable ifc_occ : int array; (* summed backlog of associated flows *)
  mutable ifc_up : bool array;
  mutable ifc_serves : int array;
  mutable ifc_gauge : Metrics.gauge array;
  mutable ifc_serves_ctr : Metrics.counter array;
  mutable ifc_delay : Log_histogram.t array;
  mutable n_ifaces : int; (* 1 + highest interface id seen *)
  (* per-flow state, indexed by flow id *)
  mutable fl_backlog : int array;
  mutable fl_bytes : int array;
  mutable fl_mask : int array;
  mutable fl_active : bool array;
  mutable fl_pend : float array array; (* pending enqueue-time rings *)
  mutable fl_phead : int array;
  mutable fl_plen : int array;
  mutable n_flows : int; (* 1 + highest flow id seen *)
  (* exact int mirrors of the gauges, updated on every event *)
  mutable qpkts : int;
  mutable qbytes : int;
  mutable active : int;
  mutable up : int;
}

let create ?registry () =
  let reg = match registry with Some r -> r | None -> Metrics.create () in
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
    ifc_known = [||];
    ifc_occ = [||];
    ifc_up = [||];
    ifc_serves = [||];
    ifc_gauge = [||];
    ifc_serves_ctr = [||];
    ifc_delay = [||];
    n_ifaces = 0;
    fl_backlog = [||];
    fl_bytes = [||];
    fl_mask = [||];
    fl_active = [||];
    fl_pend = [||];
    fl_phead = [||];
    fl_plen = [||];
    n_flows = 0;
    qpkts = 0;
    qbytes = 0;
    active = 0;
    up = 0;
  }

let registry t = t.reg

(* --- growth / registration (cold, amortized or one-time) ----------------- *)

let grow_flows t f =
  (let cap = Stdlib.max 8 (Stdlib.max (f + 1) (2 * Array.length t.fl_backlog)) in
   let backlog = Array.make cap 0 in
   let bytes = Array.make cap 0 in
   let mask = Array.make cap 0 in
   let active = Array.make cap false in
   let pend = Array.make cap [||] in
   let phead = Array.make cap 0 in
   let plen = Array.make cap 0 in
   Array.blit t.fl_backlog 0 backlog 0 t.n_flows;
   Array.blit t.fl_bytes 0 bytes 0 t.n_flows;
   Array.blit t.fl_mask 0 mask 0 t.n_flows;
   Array.blit t.fl_active 0 active 0 t.n_flows;
   Array.blit t.fl_pend 0 pend 0 t.n_flows;
   Array.blit t.fl_phead 0 phead 0 t.n_flows;
   Array.blit t.fl_plen 0 plen 0 t.n_flows;
   t.fl_backlog <- backlog;
   t.fl_bytes <- bytes;
   t.fl_mask <- mask;
   t.fl_active <- active;
   t.fl_pend <- pend;
   t.fl_phead <- phead;
   t.fl_plen <- plen)
  [@midrr.lint.allow "R7"]

let ensure_flow t f =
  if f >= Array.length t.fl_backlog then grow_flows t f;
  if f >= t.n_flows then t.n_flows <- f + 1

let register_iface t j =
  (let name suffix = Printf.sprintf "iface%d_%s" j suffix in
   if j >= Array.length t.ifc_known then begin
     let cap = Stdlib.max 4 (Stdlib.max (j + 1) (2 * Array.length t.ifc_known)) in
     let known = Array.make cap false in
     let occ = Array.make cap 0 in
     let up = Array.make cap false in
     let serves = Array.make cap 0 in
     let gauges = Array.make cap t.g_queue_packets in
     let ctrs = Array.make cap t.c_serves in
     let hists = Array.make cap t.delay in
     Array.blit t.ifc_known 0 known 0 t.n_ifaces;
     Array.blit t.ifc_occ 0 occ 0 t.n_ifaces;
     Array.blit t.ifc_up 0 up 0 t.n_ifaces;
     Array.blit t.ifc_serves 0 serves 0 t.n_ifaces;
     Array.blit t.ifc_gauge 0 gauges 0 t.n_ifaces;
     Array.blit t.ifc_serves_ctr 0 ctrs 0 t.n_ifaces;
     Array.blit t.ifc_delay 0 hists 0 t.n_ifaces;
     t.ifc_known <- known;
     t.ifc_occ <- occ;
     t.ifc_up <- up;
     t.ifc_serves <- serves;
     t.ifc_gauge <- gauges;
     t.ifc_serves_ctr <- ctrs;
     t.ifc_delay <- hists
   end;
   t.ifc_known.(j) <- true;
   t.ifc_gauge.(j) <- Metrics.gauge t.reg (name "queue_packets");
   t.ifc_serves_ctr.(j) <- Metrics.counter t.reg (name "serves");
   t.ifc_delay.(j) <-
     Metrics.hist t.reg
       (Metrics.histogram t.reg (name "delay_seconds") ~lo:delay_lo
          ~gamma:delay_gamma ~bins:delay_bins);
   if j >= t.n_ifaces then t.n_ifaces <- j + 1)
  [@midrr.lint.allow "R7"]

let ensure_iface t j =
  if j >= Array.length t.ifc_known || not t.ifc_known.(j) then
    register_iface t j

let grow_pending t f =
  (let old = t.fl_pend.(f) in
   let n = t.fl_plen.(f) in
   let cap = Stdlib.max 16 (2 * Array.length old) in
   let ring = Array.make cap 0.0 in
   let head = t.fl_phead.(f) in
   let ocap = Array.length old in
   for i = 0 to n - 1 do
     ring.(i) <- old.((head + i) mod ocap)
   done;
   t.fl_pend.(f) <- ring;
   t.fl_phead.(f) <- 0)
  [@midrr.lint.allow "R7"]

(* --- hot helpers --------------------------------------------------------- *)

let push_pending t f time =
  if t.fl_plen.(f) >= Array.length t.fl_pend.(f) then grow_pending t f;
  let ring = t.fl_pend.(f) in
  let cap = Array.length ring in
  ring.((t.fl_phead.(f) + t.fl_plen.(f)) mod cap) <- time;
  t.fl_plen.(f) <- t.fl_plen.(f) + 1

(* Pop the oldest pending enqueue time, returned as integer
   nanoseconds before [time]; [min_int] when the ring is empty (sink
   attached after the enqueue).  The int return matters: a float
   result would box on the way out (no flambda), putting an
   allocation on every Serve.  The subtraction happens here, on the
   unboxed ring slot, for the same reason. *)
let pop_pending_ns t f ~time =
  if Int.equal t.fl_plen.(f) 0 then min_int
  else begin
    let ring = t.fl_pend.(f) in
    let head = t.fl_phead.(f) in
    t.fl_phead.(f) <- (head + 1) mod Array.length ring;
    t.fl_plen.(f) <- t.fl_plen.(f) - 1;
    int_of_float ((time -. ring.(head)) *. 1e9)
  end

(* Add [delta] to the occupancy of every interface associated with
   flow [f]: a loop over the set bits of the flow's mask.  Written as
   int-only tail recursion rather than refs — masks use bits 0..61 so
   [m] stays non-negative and the loop terminates. *)
let rec bump_bits t m j delta =
  if m > 0 then begin
    if not (Int.equal (m land 1) 0) then t.ifc_occ.(j) <- t.ifc_occ.(j) + delta;
    bump_bits t (m lsr 1) (j + 1) delta
  end

let bump_assoc t f delta = bump_bits t t.fl_mask.(f) 0 delta

let associate t f j =
  if j < max_mask_ifaces then begin
    let bit = 1 lsl j in
    if Int.equal (t.fl_mask.(f) land bit) 0 then begin
      t.fl_mask.(f) <- t.fl_mask.(f) lor bit;
      (* the flow's current backlog now counts toward interface [j] *)
      t.ifc_occ.(j) <- t.ifc_occ.(j) + t.fl_backlog.(f)
    end
  end

let set_active t f on =
  if not (Bool.equal t.fl_active.(f) on) then begin
    t.fl_active.(f) <- on;
    t.active <- (if on then t.active + 1 else t.active - 1)
  end

(* --- the fold ------------------------------------------------------------ *)

let on_event t ~time (ev : Event.record) =
  match ev.kind with
  | Enqueue ->
      let flow = ev.flow and bytes = ev.bytes in
      ensure_flow t flow;
      Metrics.incr t.reg t.c_enqueues;
      Metrics.add t.reg t.c_bytes_enqueued bytes;
      push_pending t flow time;
      t.fl_backlog.(flow) <- t.fl_backlog.(flow) + 1;
      t.fl_bytes.(flow) <- t.fl_bytes.(flow) + bytes;
      t.qpkts <- t.qpkts + 1;
      t.qbytes <- t.qbytes + bytes;
      bump_assoc t flow 1
  | Serve ->
      let flow = ev.flow and iface = ev.iface and bytes = ev.bytes in
      ensure_flow t flow;
      ensure_iface t iface;
      Metrics.incr t.reg t.c_serves;
      Metrics.add t.reg t.c_bytes_served bytes;
      Metrics.incr t.reg t.ifc_serves_ctr.(iface);
      t.ifc_serves.(iface) <- t.ifc_serves.(iface) + 1;
      associate t flow iface;
      if t.fl_backlog.(flow) > 0 then begin
        t.fl_backlog.(flow) <- t.fl_backlog.(flow) - 1;
        t.fl_bytes.(flow) <- t.fl_bytes.(flow) - bytes;
        t.qpkts <- t.qpkts - 1;
        t.qbytes <- t.qbytes - bytes;
        bump_assoc t flow (-1)
      end;
      let ns = pop_pending_ns t flow ~time in
      if Int.equal ns min_int then begin
        (* no matching enqueue seen: count in the NaN cell ([Float.nan]
           is a static constant, so this branch still allocates nothing) *)
        Log_histogram.observe t.delay Float.nan;
        Log_histogram.observe t.ifc_delay.(iface) Float.nan
      end
      else begin
        Log_histogram.observe_ns t.delay ns;
        Log_histogram.observe_ns t.ifc_delay.(iface) ns
      end
  | Drop ->
      ensure_flow t ev.flow;
      Metrics.incr t.reg t.c_drops;
      Metrics.add t.reg t.c_bytes_dropped ev.bytes
  | Turn ->
      let flow = ev.flow and iface = ev.iface in
      ensure_flow t flow;
      ensure_iface t iface;
      Metrics.incr t.reg t.c_turns;
      associate t flow iface
  | Flag_reset -> Metrics.incr t.reg t.c_flag_resets
  | Complete ->
      ensure_iface t ev.iface;
      Metrics.incr t.reg t.c_completes;
      Metrics.add t.reg t.c_bytes_completed ev.bytes
  | Iface_up ->
      let iface = ev.iface in
      ensure_iface t iface;
      if not t.ifc_up.(iface) then begin
        t.ifc_up.(iface) <- true;
        t.up <- t.up + 1
      end
  | Iface_down ->
      let iface = ev.iface in
      ensure_iface t iface;
      if t.ifc_up.(iface) then begin
        t.ifc_up.(iface) <- false;
        t.up <- t.up - 1
      end
  | Flow_add ->
      ensure_flow t ev.flow;
      set_active t ev.flow true
  | Flow_remove ->
      let flow = ev.flow in
      ensure_flow t flow;
      set_active t flow false;
      (* queued packets that will never be served leave the queue *)
      let b = t.fl_backlog.(flow) in
      if b > 0 then begin
        bump_assoc t flow (-b);
        t.qpkts <- t.qpkts - b;
        t.qbytes <- t.qbytes - t.fl_bytes.(flow);
        t.fl_backlog.(flow) <- 0;
        t.fl_bytes.(flow) <- 0
      end;
      (* a re-registered id starts with no interface association *)
      t.fl_mask.(flow) <- 0;
      t.fl_plen.(flow) <- 0;
      t.fl_phead.(flow) <- 0
  | Weight_change -> ()

let sink t : Sink.t = fun ~time ev -> on_event t ~time ev

(* --- snapshot ------------------------------------------------------------ *)

(* Write the exact int mirrors into the registry's float gauges.  Kept
   off the hot path because [Float.of_int] boxes. *)
let publish t =
  Metrics.set_gauge t.reg t.g_queue_packets (Float.of_int t.qpkts);
  Metrics.set_gauge t.reg t.g_queue_bytes (Float.of_int t.qbytes);
  Metrics.set_gauge t.reg t.g_flows_active (Float.of_int t.active);
  Metrics.set_gauge t.reg t.g_ifaces_up (Float.of_int t.up);
  for j = 0 to t.n_ifaces - 1 do
    if t.ifc_known.(j) then
      Metrics.set_gauge t.reg t.ifc_gauge.(j) (Float.of_int t.ifc_occ.(j))
  done

let queue_packets t = t.qpkts
let queue_bytes t = t.qbytes
let flows_active t = t.active
let ifaces_up t = t.up

let iface_queue_packets t ~iface =
  if iface < t.n_ifaces && iface < Array.length t.ifc_occ then
    t.ifc_occ.(iface)
  else 0

let iface_serves t ~iface =
  if iface < t.n_ifaces && iface < Array.length t.ifc_serves then
    t.ifc_serves.(iface)
  else 0

let delay t = t.delay

let iface_delay t ~iface =
  if
    iface < t.n_ifaces
    && iface < Array.length t.ifc_known
    && t.ifc_known.(iface)
  then Some t.ifc_delay.(iface)
  else None
