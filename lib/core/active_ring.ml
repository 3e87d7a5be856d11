type t = { mutable head : int; mutable length : int }

let nil = -1

(* A slot's ring ints: prev at [s * stride], next one further.  A slot
   is linked iff its prev is a slot, so no separate flag is kept. *)
let stride = 8
let fields = 2

let create () = { head = nil; length = 0 }

let is_empty t = Int.equal t.length 0

let length t = t.length

let head t = t.head

let linked nodes s = nodes.(s * stride) >= 0

(* Splice [e] between [a] and its successor. *)
let splice_after nodes a e =
  let b = nodes.((a * stride) + 1) in
  nodes.(e * stride) <- a;
  nodes.((e * stride) + 1) <- b;
  nodes.((a * stride) + 1) <- e;
  nodes.(b * stride) <- e

let push_back t nodes e =
  if linked nodes e then invalid_arg "Active_ring.push_back: already linked";
  if t.head < 0 then begin
    nodes.(e * stride) <- e;
    nodes.((e * stride) + 1) <- e;
    t.head <- e
  end
  else splice_after nodes nodes.(t.head * stride) e;
  t.length <- t.length + 1

let insert_before t nodes ~anchor e =
  if not (linked nodes anchor) then
    invalid_arg "Active_ring.insert_before: unlinked anchor";
  if linked nodes e then invalid_arg "Active_ring.insert_before: already linked";
  splice_after nodes nodes.(anchor * stride) e;
  t.length <- t.length + 1

let remove t nodes e =
  if not (linked nodes e) then invalid_arg "Active_ring.remove: not linked";
  let p = nodes.(e * stride) and n = nodes.((e * stride) + 1) in
  nodes.(e * stride) <- nil;
  nodes.((e * stride) + 1) <- nil;
  t.length <- t.length - 1;
  if Int.equal t.length 0 then t.head <- nil
  else begin
    nodes.((p * stride) + 1) <- n;
    nodes.(n * stride) <- p;
    (* head only moves when the head itself leaves the ring *)
    if Int.equal t.head e then t.head <- n
  end

let next t nodes e =
  if not (linked nodes e) then invalid_arg "Active_ring.next: unlinked element";
  if Int.equal t.length 0 then invalid_arg "Active_ring.next: empty ring";
  nodes.((e * stride) + 1)

let to_list t nodes =
  let rec go acc e =
    let acc = e :: acc in
    let n = nodes.((e * stride) + 1) in
    if Int.equal n t.head then List.rev acc else go acc n
  in
  if t.head < 0 then [] else go [] t.head
