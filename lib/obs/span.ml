(* Sampled begin/end phase spans.  The clock hands back monotonic
   nanoseconds as an immediate int (not a float) so [enter]/[exit]
   allocate nothing: a sampled enter stores one timestamp into a
   preallocated slot, the matching exit copies the pair into flat
   phase/begin/end rows.  When the row buffer fills, further samples
   are counted as dropped rather than grown.  Completed rows export as
   Chrome trace_event JSON ("ph":"B"/"E"), balanced by construction
   because only finished spans are stored. *)

let no_start = min_int

type t = {
  clock : unit -> int; (* monotonic nanoseconds *)
  sample_every : int;
  capacity : int;
  mutable names : string array;
  mutable n_phases : int;
  mutable ticks : int array; (* per-phase enter counts, for sampling *)
  mutable pending : int array; (* sampled start ns, [no_start] if none *)
  ph : int array; (* completed rows: phase id, begin ns, end ns *)
  tb : int array;
  te : int array;
  mutable n : int;
  mutable dropped : int;
}

let create ?(capacity = 65536) ?(sample_every = 1) ~clock () =
  if capacity <= 0 then invalid_arg "Span.create: capacity <= 0";
  if sample_every <= 0 then invalid_arg "Span.create: sample_every <= 0";
  {
    clock;
    sample_every;
    capacity;
    names = Array.make 4 "";
    n_phases = 0;
    ticks = Array.make 4 0;
    pending = Array.make 4 no_start;
    ph = Array.make capacity 0;
    tb = Array.make capacity 0;
    te = Array.make capacity 0;
    n = 0;
    dropped = 0;
  }

(* Cold: called once per phase name at setup. *)
let phase t name =
  let found = ref (-1) in
  for i = 0 to t.n_phases - 1 do
    if String.equal t.names.(i) name then found := i
  done;
  if !found >= 0 then !found
  else begin
    if Int.equal t.n_phases (Array.length t.names) then begin
      let cap = 2 * t.n_phases in
      let names = Array.make cap "" in
      let ticks = Array.make cap 0 in
      let pending = Array.make cap no_start in
      Array.blit t.names 0 names 0 t.n_phases;
      Array.blit t.ticks 0 ticks 0 t.n_phases;
      Array.blit t.pending 0 pending 0 t.n_phases;
      t.names <- names;
      t.ticks <- ticks;
      t.pending <- pending
    end;
    let p = t.n_phases in
    t.names.(p) <- name;
    t.n_phases <- p + 1;
    p
  end

let enter t p =
  let k = t.ticks.(p) in
  t.ticks.(p) <- k + 1;
  if Int.equal (k mod t.sample_every) 0 then
    if t.n < t.capacity then t.pending.(p) <- t.clock ()
    else t.dropped <- t.dropped + 1

let exit t p =
  let s = t.pending.(p) in
  if not (Int.equal s no_start) then begin
    t.pending.(p) <- no_start;
    if t.n < t.capacity then begin
      t.ph.(t.n) <- p;
      t.tb.(t.n) <- s;
      t.te.(t.n) <- t.clock ();
      t.n <- t.n + 1
    end
    else t.dropped <- t.dropped + 1
  end

let count t = t.n
let dropped t = t.dropped
let phases t = Array.to_list (Array.sub t.names 0 t.n_phases)

(* --- Chrome trace_event export ------------------------------------------- *)

(* Timestamps are rebased to the earliest sampled begin so the trace
   opens at t = 0 regardless of the absolute clock origin.  ts is in
   microseconds per the trace_event spec. *)
let write_chrome t oc =
  let buf = Buffer.create (256 + (t.n * 160)) in
  let t0 = ref max_int in
  for i = 0 to t.n - 1 do
    if t.tb.(i) < !t0 then t0 := t.tb.(i)
  done;
  let us ns = Float.of_int (ns - !t0) /. 1e3 in
  Buffer.add_string buf "{\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then Buffer.add_string buf ",";
    let name = t.names.(t.ph.(i)) in
    Buffer.add_string buf
      (Printf.sprintf
         "\n{\"name\":%S,\"cat\":\"midrr\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":%.3f},"
         name (us t.tb.(i)));
    Buffer.add_string buf
      (Printf.sprintf
         "\n{\"name\":%S,\"cat\":\"midrr\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":%.3f}"
         name (us t.te.(i)))
  done;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.output_buffer oc buf
