(* Growable circular buffer rather than a linked [Queue.t]: push writes
   into a slot and pop reads one, so the steady data path allocates
   nothing (the old representation allocated a list cell per push and a
   [Some] per [take_opt]).  Slots outside the live window keep whatever
   packet last occupied them, with [Packet.none] as the initial filler —
   never read past [len].  The first buffer holds four packets, which is
   all that most flows of a large fleet ever queue at once. *)

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

(* Double the buffer, unrolling the circular window to start at 0. *)
let grow t =
  let cap = Array.length t.buf in
  let ncap = Stdlib.max 4 (2 * cap) in
  let nbuf = Array.make ncap Packet.none in
  for i = 0 to t.len - 1 do
    nbuf.(i) <- t.buf.((t.head + i) mod cap)
  done;
  t.buf <- nbuf;
  t.head <- 0

let push t (p : Packet.t) =
  let fits =
    match t.capacity with None -> true | Some c -> t.bytes + p.size <= c
  in
  if fits then begin
    if Int.equal t.len (Array.length t.buf) then grow t;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- p;
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
  let p = t.buf.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.buf;
  t.len <- t.len - 1;
  t.bytes <- t.bytes - p.size;
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
