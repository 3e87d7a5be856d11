(* Binary heap over flat key arrays with a slot table for the payloads.
   Heap position [i] holds the key [(times.(i), seqs.(i))] and the slot
   [slots.(i)] at which its item is parked in [items].  Sifting swaps
   keys and slot indices only, so it never stores a pointer (no
   [caml_modify]) and each item is written once, at push.

   Positions [size, capacity) of [slots] hold the free slots: a pop
   leaves its slot at the vacated last position, which the next push
   takes.  A popped item stays in its slot until that slot is reused,
   bounding what the table keeps alive by its capacity.  The item array
   is grown lazily with the pushed item as filler — ['a array] has no
   universal filler value. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable items : 'a array; (* by slot; [||] until the first push *)
  mutable size : int;
  mutable next_seq : int;
}

let create ?capacity () =
  let cap =
    match capacity with
    | None -> 0
    | Some c when c < 0 -> invalid_arg "Event_queue.create: negative capacity"
    | Some c -> c
  in
  {
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    slots = Array.init cap Fun.id;
    items = [||];
    size = 0;
    next_seq = 0;
  }

let is_empty t = Int.equal t.size 0

let length t = t.size

(* Double the key arrays when full, so repeated pushes stay amortized
   O(1); the fresh positions hold the fresh slots. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = Int.max 16 (2 * cap) in
  let times = Array.make ncap 0.0 in
  Array.blit t.times 0 times 0 t.size;
  t.times <- times;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  let slots = Array.init ncap Fun.id in
  Array.blit t.slots 0 slots 0 cap;
  t.slots <- slots

(* Bring the item table up to the key arrays' capacity, using [filler]
   (the item being pushed) for the fresh slots. *)
let align_items t filler =
  let items = Array.make (Array.length t.times) filler in
  Array.blit t.items 0 items 0 (Array.length t.items);
  t.items <- items

let[@inline] earlier t i j =
  t.times.(i) < t.times.(j)
  || (Float.equal t.times.(i) t.times.(j) && t.seqs.(i) < t.seqs.(j))

let[@inline] swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let slot = t.slots.(i) in
  t.slots.(i) <- t.slots.(j);
  t.slots.(j) <- slot

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && earlier t l i then l else i in
  let smallest = if r < t.size && earlier t r smallest then r else smallest in
  if not (Int.equal smallest i) then begin
    swap t i smallest;
    sift_down t smallest
  end

let[@inline] push t ~time item =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  if Int.equal t.size (Array.length t.times) then grow t;
  if Array.length t.items < Array.length t.times then align_items t item;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.items.(t.slots.(i)) <- item;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let[@inline] min_time t =
  if Int.equal t.size 0 then invalid_arg "Event_queue.min_time: empty";
  t.times.(0)

let due t ~until = t.size > 0 && t.times.(0) <= until

let[@inline] pop_min t =
  if Int.equal t.size 0 then invalid_arg "Event_queue.pop_min: empty";
  let top = t.slots.(0) in
  let last = t.size - 1 in
  t.times.(0) <- t.times.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.slots.(0) <- t.slots.(last);
  t.slots.(last) <- top;
  t.size <- last;
  sift_down t 0;
  t.items.(top)
