(* Index-tracked binary min-heap over (rank, key), keyed by small dense
   non-negative ints, in structure-of-arrays form: slot [i] holds key
   [keys.(i)] at rank [ranks.(i)], and [pos.(key)] is the key's slot (-1
   when absent), kept in lockstep by every sift.  That is what makes
   remove O(log n): find the slot in O(1), repair the heap from there.
   The ranks are unboxed, they cross the interface only inside a [cell],
   and the sifts move ints and raw floats only, so nothing here allocates
   once the arrays have grown.  Every slot at or past [size] holds
   [infinity], so slot 0 reads [infinity] when the heap is empty.  This
   module is on the lint hot-path list: comparisons go through
   [Float.compare]/[Int] primitives only. *)

type cell = { mutable v : float }

type t = {
  mutable keys : int array; (* entries live in slots [0, size) *)
  mutable ranks : Float.Array.t;
  mutable size : int;
  mutable pos : int array; (* key -> heap slot, -1 when absent *)
}

let create ?(capacity = 16) () =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    keys = Array.make capacity (-1);
    ranks = Float.Array.make capacity infinity;
    size = 0;
    pos = Array.make capacity (-1);
  }

let length t = t.size
let is_empty t = Int.equal t.size 0
let mem t key = key >= 0 && key < Array.length t.pos && t.pos.(key) >= 0

(* Slot [a] strictly before slot [b] in (rank, key) order. *)
let before t a b =
  let c =
    Float.compare (Float.Array.get t.ranks a) (Float.Array.get t.ranks b)
  in
  if Int.equal c 0 then t.keys.(a) < t.keys.(b) else c < 0

let swap t a b =
  let ka = t.keys.(a) and kb = t.keys.(b) in
  let ra = Float.Array.get t.ranks a in
  t.keys.(a) <- kb;
  t.keys.(b) <- ka;
  Float.Array.set t.ranks a (Float.Array.get t.ranks b);
  Float.Array.set t.ranks b ra;
  t.pos.(kb) <- a;
  t.pos.(ka) <- b

(* Growth is amortized doubling: O(1) allocation per element over the
   whole run, none once the PIFO reaches its working-set size. *)
let ensure_key t key =
  let n = Array.length t.pos in
  if key >= n then begin
    let pos = Array.make (Int.max (2 * n) (key + 1)) (-1) in
    Array.blit t.pos 0 pos 0 n;
    t.pos <- pos
  end
[@@midrr.lint.allow "R7"]

let ensure_room t =
  let n = Array.length t.keys in
  if t.size >= n then begin
    let keys = Array.make (2 * n) (-1) in
    let ranks = Float.Array.make (2 * n) infinity in
    Array.blit t.keys 0 keys 0 n;
    Float.Array.blit t.ranks 0 ranks 0 n;
    t.keys <- keys;
    t.ranks <- ranks
  end
[@@midrr.lint.allow "R7"]

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let s = if before t l i then l else i in
    let s = if r < t.size && before t r s then r else s in
    if not (Int.equal s i) then begin
      swap t i s;
      sift_down t s
    end
  end

let push t ~key ~rank =
  if key < 0 then invalid_arg "Pifo.push: negative key";
  ensure_key t key;
  if t.pos.(key) >= 0 then invalid_arg "Pifo.push: duplicate key";
  ensure_room t;
  let i = t.size in
  t.size <- i + 1;
  t.keys.(i) <- key;
  Float.Array.set t.ranks i rank.v;
  t.pos.(key) <- i;
  sift_up t i

let min_rank t into = into.v <- Float.Array.get t.ranks 0

let min_key t = if is_empty t then -1 else t.keys.(0)

(* Remove the entry at slot [i]: move the last entry in, then repair in
   whichever direction the replacement violates. *)
let remove_slot t i =
  let last = t.size - 1 in
  t.size <- last;
  t.pos.(t.keys.(i)) <- -1;
  if not (Int.equal i last) then begin
    let k = t.keys.(last) in
    t.keys.(i) <- k;
    Float.Array.set t.ranks i (Float.Array.get t.ranks last);
    t.pos.(k) <- i;
    sift_down t i;
    sift_up t i
  end;
  Float.Array.set t.ranks last infinity

let pop_key t =
  let key = min_key t in
  if key >= 0 then remove_slot t 0;
  key

let pop_at_most t bound =
  if
    (not (is_empty t))
    && Float.compare (Float.Array.get t.ranks 0) bound.v <= 0
  then pop_key t
  else -1

let remove t key =
  if mem t key then begin
    remove_slot t t.pos.(key);
    true
  end
  else false
