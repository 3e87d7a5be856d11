let grow slots id nil =
  let cap = Array.length slots in
  if id < cap then slots
  else begin
    let a = Array.make (id + 1 + cap) nil in
    Array.blit slots 0 a 0 cap;
    a
  end

module Slots = struct
  type 'a t = { mutable slots : 'a option array }

  let create () = { slots = Array.make 8 None }

  let find t id =
    if id >= 0 && id < Array.length t.slots then t.slots.(id) else None

  let set t id v =
    if id < 0 then invalid_arg "Int_tbl.Slots.set: negative id";
    t.slots <- grow t.slots id None;
    t.slots.(id) <- Some v

  let iter f t = Array.iteri (fun id -> Option.iter (f id)) t.slots
end

module Cells = struct
  (* [iface; count] pairs in first-credit order, free pairs marked by
     iface -1. *)
  let create n =
    (Array.make (2 * Stdlib.max 1 n) (-1) [@midrr.lint.allow "R7"])

  let rec get cells i iface =
    if i >= Array.length cells || cells.(i) < 0 then 0
    else if Int.equal cells.(i) iface then cells.(i + 1)
    else get cells (i + 2) iface

  let get cells iface = get cells 0 iface

  let rec credit cells i iface n =
    if i >= Array.length cells then begin
      let grown = create (Array.length cells) in
      Array.blit cells 0 grown 0 (Array.length cells);
      credit grown i iface n
    end
    else if Int.equal cells.(i) iface then begin
      cells.(i + 1) <- cells.(i + 1) + n;
      cells
    end
    else if cells.(i) < 0 then begin
      cells.(i) <- iface;
      cells.(i + 1) <- n;
      cells
    end
    else credit cells (i + 2) iface n

  let credit cells iface n = credit cells 0 iface n
end
