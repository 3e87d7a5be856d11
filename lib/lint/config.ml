type t = {
  hot_path_modules : string list;
  float_sensitive_dirs : string list;
  domain_spawn_dirs : string list;
  typed_entry_points : string list;
  par_task_entries : string list;
}

(* The hot-path set is every module on the per-decision path of the fast
   engine plus the obs sinks it feeds: one stray polymorphic primitive
   here undoes the O(active) work of PR 2.  [Drr_engine_ref] is included
   deliberately — it is the executable spec and keeps its polymorphic
   sorts, but only through committed baseline entries, so any *new* use
   still fails the gate.  [Pifo] and [Sched_prog] are the programmable
   substrate's per-decision path — the only implementation of WFQ and
   round robin as well as the other rank programs — and join with no
   baseline entries, as do the WFQ and round-robin programs, the
   [Int_tbl] slot arrays and interface cells that they and the
   platforms index by id, and the netcalc curve algebra
   ([curve]/[arrival]/[service]/[bound], evaluated per flow inside
   sweeps).  The simulators' per-packet path — event queue, engine,
   netsim, link model, delivery meter and HTTP proxy — runs once or
   more per packet and is held to the same rule.

   Entries are repo-relative module paths without extension, so a future
   [lib/trace/event.ml] is not silently hot just because [lib/obs/event.ml]
   is. *)
let default =
  {
    hot_path_modules =
      [
        "lib/core/drr_engine";
        "lib/core/drr_engine_ref";
        "lib/core/pifo";
        "lib/core/sched_prog";
        "lib/core/prog_wfq";
        "lib/core/prog_rr";
        "lib/core/int_tbl";
        "lib/core/active_ring";
        "lib/core/spsc";
        "lib/core/shard_engine";
        "lib/sim/event_queue";
        "lib/sim/engine";
        "lib/sim/netsim";
        "lib/sim/link";
        "lib/sim/meter";
        "lib/httpsim/proxy";
        "lib/obs/sink";
        "lib/obs/jsonl";
        "lib/obs/event";
        "lib/obs/metrics";
        "lib/obs/busmetrics";
        "lib/obs/span";
        "lib/stats/log_histogram";
        "lib/netcalc/curve";
        "lib/netcalc/arrival";
        "lib/netcalc/service";
        "lib/netcalc/bound";
      ];
    float_sensitive_dirs = [ "lib/flownet"; "lib/stats" ];
    (* The parallel executor is the single owner of raw domains; every
       other module must go through its deterministic merge. *)
    domain_spawn_dirs = [ "lib/par" ];
    (* R7 roots: the decision path (its runtime allocation gate runs
       beside this proof in @crosscheck), the PIFO substrate's
       per-decision ops, the int-slot ring ops the engine drives per
       decision and the platforms' delivery meter.
       Specs match against display names ("Unit.sub.value"); a trailing
       ".*" matches a whole prefix. *)
    typed_entry_points =
      [
        "Drr_engine.decide";
        "Drr_engine.next_packet_noalloc";
        (* a packet's pool slot is recycled; the pools' doubling
           ([extend]) is its one allowed site *)
        "Drr_engine.enqueue";
        "Pifo.push";
        "Pifo.min_rank";
        "Pifo.pop_key";
        "Pifo.pop_at_most";
        "Pifo.remove";
        (* the WFQ program's per-decision hooks: ranks, v_j and finish
           tags cross them in [Pifo.cell]s, so no float is boxed *)
        "Prog_wfq.P.rank";
        "Prog_wfq.P.floor_rank";
        "Prog_wfq.P.on_service";
        (* the int-slot ring: heads, cursors and links are ints *)
        "Active_ring.is_empty";
        "Active_ring.length";
        "Active_ring.head";
        "Active_ring.linked";
        "Active_ring.push_back";
        "Active_ring.insert_before";
        "Active_ring.remove";
        "Active_ring.next";
        "Meter.deliver";
        (* telemetry plane: every hot registry op, the bus fold and the
           span probes carry the same zero-allocation claim; @crosscheck
           measures the five registry ops at runtime *)
        "Metrics.incr";
        "Metrics.add";
        "Metrics.set_gauge";
        "Metrics.incr_gauge";
        "Metrics.observe";
        "Metrics.observe_ns";
        "Log_histogram.observe";
        "Log_histogram.observe_ns";
        "Busmetrics.on_event";
        "Span.enter";
        "Span.exit";
        (* the sharded engine's mailbox hot ops: a push is an array store
           plus one atomic cursor bump, a pop the mirror image *)
        "Spsc.try_push";
        "Spsc.try_pop";
      ];
    (* R8 roots: display-name suffixes recognized as the parallel
       executor's task-accepting entry points. *)
    par_task_entries = [ "Par.run"; "Par.map" ];
  }

let is_hot_path t file =
  let path = String.lowercase_ascii (Filename.remove_extension file) in
  List.exists (String.equal path) t.hot_path_modules

let under_dir file dir =
  let prefix = dir ^ "/" in
  String.length file > String.length prefix
  && String.equal (String.sub file 0 (String.length prefix)) prefix

let is_float_sensitive t file =
  List.exists (under_dir file) t.float_sensitive_dirs

let domain_spawn_allowed t file =
  List.exists (under_dir file) t.domain_spawn_dirs
