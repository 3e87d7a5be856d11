(* Growable circular buffer rather than a linked [Queue.t]: push writes
   into a slot and pop reads one, so the steady data path allocates
   nothing (the old representation allocated a list cell per push and a
   [Some] per [take_opt]).  A pop leaves the served packet in its slot,
   since clearing it costs a write barrier on every packet.  The window
   starts at slot 0 after every clear, so served packets sit only in
   [0, head): when the last packet leaves, slots [0, head] are refilled
   with [Packet.none] and the window restarts at 0, and when [head]
   wraps, the slots past the live window, [len, n), are.  Each clear
   covers slots that as many pops have passed, so it costs O(1) per
   packet however large the buffer once grew; an idle queue keeps no
   packet alive.  Slots outside the live window are never read.  The
   first buffer holds four packets.  Indices wrap by a compare and a
   subtraction, not by [mod], which would cost an integer division per
   packet.  The fast engine keeps its queues in its own packet pool;
   the spec, [Oracle] and [Sched_prog] use this module. *)

type t = {
  mutable buf : Packet.t array;
  mutable head : int; (* index of the oldest packet when len > 0 *)
  mutable len : int;
  capacity : int option;
  mutable bytes : int;
  mutable drops : int;
}

let create ?capacity_bytes () =
  (match capacity_bytes with
  | Some c when c <= 0 -> invalid_arg "Pktqueue.create: capacity <= 0"
  | _ -> ());
  {
    buf = [||];
    head = 0;
    len = 0;
    capacity = capacity_bytes;
    bytes = 0;
    drops = 0;
  }

(* Double the full buffer, unrolling the circular window to start at 0:
   [head, cap) then [0, head). *)
let grow t =
  let cap = Array.length t.buf in
  let nbuf = Array.make (Stdlib.max 4 (2 * cap)) Packet.none in
  Array.blit t.buf t.head nbuf 0 (cap - t.head);
  Array.blit t.buf 0 nbuf (cap - t.head) t.head;
  t.buf <- nbuf;
  t.head <- 0

let push t (p : Packet.t) =
  let fits =
    match t.capacity with None -> true | Some c -> t.bytes + p.size <= c
  in
  if fits then begin
    if Int.equal t.len (Array.length t.buf) then grow t;
    let n = Array.length t.buf in
    (* head + len < 2n: one subtraction wraps it *)
    let i = t.head + t.len in
    t.buf.(if i >= n then i - n else i) <- p;
    t.len <- t.len + 1;
    t.bytes <- t.bytes + p.size;
    true
  end
  else begin
    t.drops <- t.drops + 1;
    false
  end

let pop_exn t =
  if Int.equal t.len 0 then invalid_arg "Pktqueue.pop_exn: empty queue";
  let buf = t.buf and h = t.head in
  let p = buf.(h) in
  let len = t.len - 1 in
  t.len <- len;
  t.bytes <- t.bytes - p.size;
  if Int.equal len 0 then begin
    Array.fill buf 0 (h + 1) Packet.none;
    t.head <- 0
  end
  else if Int.equal (h + 1) (Array.length buf) then begin
    Array.fill buf len (Array.length buf - len) Packet.none;
    t.head <- 0
  end
  else t.head <- h + 1;
  p

let pop t = if Int.equal t.len 0 then None else Some (pop_exn t)

let peek t = if Int.equal t.len 0 then Packet.none else t.buf.(t.head)

let head_size t = if Int.equal t.len 0 then 0 else t.buf.(t.head).size

let backlog_bytes t = t.bytes

let length t = t.len

let is_empty t = Int.equal t.len 0

let drops t = t.drops

let clear t =
  (* Drop packet references so the GC can reclaim them. *)
  Array.fill t.buf 0 (Array.length t.buf) Packet.none;
  t.head <- 0;
  t.len <- 0;
  t.bytes <- 0
