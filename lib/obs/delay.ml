(* Per-flow enqueue-to-service latency off the event bus.

   Memory is O(1) per flow: delays stream into a fixed-geometry
   log-bucket sketch (which also tracks the exact running max and min)
   instead of the unbounded sample array this module used to keep, and
   the only growing structure is the pending-timestamp ring, bounded by
   the flow's maximum backlog.  Quantiles come from the sketch — upper
   bucket edge clamped by the exact max, so p99/p999 never understate
   the truth nor exceed the true worst case, which keeps the
   delay-bound harness sound. *)

module Log_histogram = Midrr_stats.Log_histogram

(* 1 us floor, ~5% relative buckets, range past 1e5 s: ~520 buckets,
   a few KB per flow however many samples stream through. *)
let hist () = Log_histogram.create_range ~lo:1e-6 ~hi:1e11 ~rel_error:0.05

type cell = {
  mutable pending : float array; (* ring of not-yet-served enqueue times *)
  mutable head : int;
  mutable len : int;
  hist : Log_histogram.t;
}

type t = { cells : (int, cell) Hashtbl.t }

let create () = { cells = Hashtbl.create 16 }

let cell t flow =
  match Hashtbl.find_opt t.cells flow with
  | Some c -> c
  | None ->
      let c = { pending = [||]; head = 0; len = 0; hist = hist () } in
      Hashtbl.replace t.cells flow c;
      c

let push c time =
  if c.len >= Array.length c.pending then begin
    let cap = Stdlib.max 16 (2 * Array.length c.pending) in
    let ring = Array.make cap 0.0 in
    let ocap = Array.length c.pending in
    for i = 0 to c.len - 1 do
      ring.(i) <- c.pending.((c.head + i) mod ocap)
    done;
    c.pending <- ring;
    c.head <- 0
  end;
  c.pending.((c.head + c.len) mod Array.length c.pending) <- time;
  c.len <- c.len + 1

let pop c =
  if Int.equal c.len 0 then Float.nan
  else begin
    let v = c.pending.(c.head) in
    c.head <- (c.head + 1) mod Array.length c.pending;
    c.len <- c.len - 1;
    v
  end

let on_event t ~time (ev : Event.record) =
  match ev.kind with
  | Enqueue -> push (cell t ev.flow) time
  | Serve -> (
      match Hashtbl.find_opt t.cells ev.flow with
      | None -> () (* sink attached after the enqueue: no sample *)
      | Some c ->
          (* an empty ring pops NaN, which the sketch counts in its
             explicit NaN cell rather than as a sample *)
          Log_histogram.observe c.hist (time -. pop c))
  | Flow_remove -> (
      match Hashtbl.find_opt t.cells ev.flow with
      | None -> ()
      | Some c ->
          c.head <- 0;
          c.len <- 0)
  | Drop | Turn | Flag_reset | Iface_up | Iface_down | Flow_add
  | Weight_change | Complete ->
      ()

let sink t : Sink.t = fun ~time ev -> on_event t ~time ev

let flows t =
  Hashtbl.fold
    (fun f c acc -> if Log_histogram.count c.hist > 0 then f :: acc else acc)
    t.cells []
  |> List.sort Int.compare

let count t ~flow =
  match Hashtbl.find_opt t.cells flow with
  | Some c -> Log_histogram.count c.hist
  | None -> 0

let worst t ~flow =
  match Hashtbl.find_opt t.cells flow with
  | Some c -> Log_histogram.max_value c.hist
  | None -> Float.nan

let quantile t ~flow ~q =
  match Hashtbl.find_opt t.cells flow with
  | Some c -> Log_histogram.quantile c.hist ~q
  | None -> Float.nan

let mean t ~flow =
  match Hashtbl.find_opt t.cells flow with
  | Some c -> Log_histogram.mean c.hist
  | None -> Float.nan

let histogram t ~flow =
  match Hashtbl.find_opt t.cells flow with
  | Some c -> Some c.hist
  | None -> None
