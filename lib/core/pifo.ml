(* Index-tracked binary min-heap over (rank, tie), keyed by small dense
   non-negative ints.  [pos.(key)] holds the key's heap slot (-1 when
   absent), kept in lockstep by every sift, which is what makes remove
   and re-rank O(log n): find the slot in O(1), repair the heap from
   there.  This module is on the lint hot-path list: comparisons go
   through [Float.compare]/[Int] primitives only. *)

type elt = { key : int; rank : float; tie : int }

let dummy = { key = -1; rank = 0.0; tie = 0 }

type t = {
  mutable heap : elt array; (* entries live in slots [0, size) *)
  mutable size : int;
  mutable pos : int array; (* key -> heap slot, -1 when absent *)
  mutable seq : int; (* default tie: monotone, so equal ranks are FIFO *)
}

let create ?(capacity = 16) () =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    heap = Array.make capacity dummy;
    size = 0;
    pos = Array.make capacity (-1);
    seq = 0;
  }

let length t = t.size
let is_empty t = Int.equal t.size 0

let mem t key = key >= 0 && key < Array.length t.pos && t.pos.(key) >= 0

let find t key =
  if mem t key then Some t.heap.(t.pos.(key)) else None

(* (rank, tie) lexicographic, strictly-less. *)
let before a b =
  let c = Float.compare a.rank b.rank in
  if Int.equal c 0 then a.tie < b.tie else c < 0

(* Growth is amortized doubling: O(1) allocation per element over the
   whole run, none once the PIFO reaches its working-set size. *)
let ensure_key t key =
  let n = Array.length t.pos in
  if key >= n then begin
    let n' = ref (2 * n) in
    while key >= !n' do
      n' := 2 * !n'
    done;
    let pos = Array.make !n' (-1) in
    Array.blit t.pos 0 pos 0 n;
    t.pos <- pos
  end
[@@midrr.lint.allow "R7"]

let ensure_room t =
  let n = Array.length t.heap in
  if t.size >= n then begin
    let heap = Array.make (2 * n) dummy in
    Array.blit t.heap 0 heap 0 n;
    t.heap <- heap
  end
[@@midrr.lint.allow "R7"]

let set_slot t i e =
  t.heap.(i) <- e;
  t.pos.(e.key) <- i

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      let e = t.heap.(i) and p = t.heap.(parent) in
      set_slot t parent e;
      set_slot t i p;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let smallest =
      let s = if before t.heap.(l) t.heap.(i) then l else i in
      if r < t.size && before t.heap.(r) t.heap.(s) then r else s
    in
    if not (Int.equal smallest i) then begin
      let e = t.heap.(i) and s = t.heap.(smallest) in
      set_slot t smallest e;
      set_slot t i s;
      sift_down t smallest
    end
  end

let push ?tie t ~key ~rank =
  if key < 0 then invalid_arg "Pifo.push: negative key";
  ensure_key t key;
  if t.pos.(key) >= 0 then invalid_arg "Pifo.push: duplicate key";
  let tie =
    match tie with
    | Some x -> x
    | None ->
        let s = t.seq in
        t.seq <- s + 1;
        s
  in
  ensure_room t;
  let i = t.size in
  t.size <- i + 1;
  set_slot t i { key; rank; tie };
  sift_up t i

(* R7 assumes a float result is boxed per call; here [rank] is a field of
   a mixed record, so it is already boxed and returned as is (0 minor
   words per call, measured). *)
let min_rank t = if is_empty t then infinity else t.heap.(0).rank
[@@midrr.lint.allow "R7"]

(* Remove the entry at slot [i]: move the last entry in, then repair in
   whichever direction the replacement violates. *)
let remove_slot t i =
  let last = t.size - 1 in
  t.size <- last;
  let victim = t.heap.(i) in
  t.pos.(victim.key) <- -1;
  if not (Int.equal i last) then begin
    set_slot t i t.heap.(last);
    t.heap.(last) <- dummy;
    sift_down t i;
    sift_up t i
  end
  else t.heap.(last) <- dummy;
  victim

let pop_key t = if is_empty t then -1 else (remove_slot t 0).key

let remove t key =
  if mem t key then begin
    ignore (remove_slot t t.pos.(key) : elt);
    true
  end
  else false

let update ?tie t ~key ~rank =
  if not (mem t key) then invalid_arg "Pifo.update: key not queued";
  let i = t.pos.(key) in
  let tie =
    match tie with Some x -> x | None -> t.heap.(i).tie
  in
  t.heap.(i) <- { key; rank; tie };
  sift_down t i;
  sift_up t i

let clear t =
  for i = 0 to t.size - 1 do
    t.pos.(t.heap.(i).key) <- -1;
    t.heap.(i) <- dummy
  done;
  t.size <- 0

let iter f t =
  for i = 0 to t.size - 1 do
    f t.heap.(i)
  done
