(* Bounded SPSC ring.  Head and tail are monotonically increasing
   cursors (they never wrap; 63-bit ints outlive any run) and index the
   buffer modulo its power-of-two capacity.  The producer owns [tail]
   and a private cache of [head]; the consumer owns [head] and a private
   cache of [tail].  Each side refreshes its cache from the shared
   atomic only when the cached view says full/empty, so a steady-state
   push or pop performs exactly one shared-atomic store and no shared
   loads.  Publication safety: the producer's plain store into [buf] is
   ordered before its [Atomic.set tail], and the consumer reads [buf]
   only after an [Atomic.get tail] that observed the new cursor, so the
   non-atomic buffer accesses are race-free under the OCaml memory
   model.  The two cache fields live in the same record but are each
   written by exactly one domain — distinct locations, no race (false
   sharing only, which costs a cache miss on refresh, not correctness). *)

type 'a t = {
  buf : 'a array;
  mask : int;  (* capacity - 1; capacity is a power of two *)
  dummy : 'a;
  head : int Atomic.t;  (* next slot to pop; advanced by the consumer *)
  tail : int Atomic.t;  (* next slot to fill; advanced by the producer *)
  mutable head_cache : int;  (* producer-private view of [head] *)
  mutable tail_cache : int;  (* consumer-private view of [tail] *)
}

let create ~dummy capacity =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity must be > 0";
  if capacity > Sys.max_array_length / 2 then
    invalid_arg "Spsc.create: capacity too large";
  let rec round n = if n >= capacity then n else round (n * 2) in
  let cap = round 1 in
  {
    buf = Array.make cap dummy;
    mask = cap - 1;
    dummy;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    head_cache = 0;
    tail_cache = 0;
  }

let capacity t = t.mask + 1

let length t =
  let n = Atomic.get t.tail - Atomic.get t.head in
  if n < 0 then 0 else n

let is_empty t = Atomic.get t.head >= Atomic.get t.tail

let try_push t x =
  let tl = Atomic.get t.tail in
  let cap = t.mask + 1 in
  if tl - t.head_cache >= cap then t.head_cache <- Atomic.get t.head;
  if tl - t.head_cache >= cap then false
  else begin
    t.buf.(tl land t.mask) <- x;
    Atomic.set t.tail (tl + 1);
    true
  end

let rec push t x = if not (try_push t x) then (Domain.cpu_relax (); push t x)

let try_pop t =
  let hd = Atomic.get t.head in
  if hd >= t.tail_cache then t.tail_cache <- Atomic.get t.tail;
  if hd >= t.tail_cache then t.dummy
  else begin
    let i = hd land t.mask in
    let x = t.buf.(i) in
    (* drop the ring's reference so popped elements are collectable *)
    t.buf.(i) <- t.dummy;
    Atomic.set t.head (hd + 1);
    x
  end

(* Correct because the dummy is never pushed (mli contract): try_pop
   returns it exactly when no element was consumed. *)
let rec pop t =
  let x = try_pop t in
  if x == t.dummy then (Domain.cpu_relax (); pop t) else x

(* Burst variants: same publication discipline, one shared-atomic store
   for the whole batch.  Cursor cache refresh happens at most once per
   call — when the cached view cannot satisfy the full request — so a
   k-element burst costs 1/k-th of the per-element cursor traffic. *)

let push_slice t src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length src then
    invalid_arg "Spsc.push_slice";
  let tl = Atomic.get t.tail in
  let cap = t.mask + 1 in
  if tl + len - t.head_cache > cap then t.head_cache <- Atomic.get t.head;
  let room = cap - (tl - t.head_cache) in
  let n = if len <= room then len else room in
  if n > 0 then begin
    for k = 0 to n - 1 do
      t.buf.((tl + k) land t.mask) <- src.(pos + k)
    done;
    Atomic.set t.tail (tl + n)
  end;
  n

let pop_slice t dst ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length dst then
    invalid_arg "Spsc.pop_slice";
  let hd = Atomic.get t.head in
  if hd + len > t.tail_cache then t.tail_cache <- Atomic.get t.tail;
  let avail = t.tail_cache - hd in
  let n = if len <= avail then len else avail in
  if n > 0 then begin
    for k = 0 to n - 1 do
      let i = (hd + k) land t.mask in
      dst.(pos + k) <- t.buf.(i);
      t.buf.(i) <- t.dummy
    done;
    Atomic.set t.head (hd + n)
  end;
  n
