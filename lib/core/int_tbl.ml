include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

module Slots = struct
  type 'a t = { mutable slots : 'a option array }

  let create () = { slots = Array.make 8 None }

  let find t id =
    if id >= 0 && id < Array.length t.slots then t.slots.(id) else None

  let set t id v =
    if id < 0 then invalid_arg "Int_tbl.Slots.set: negative id";
    let cap = Array.length t.slots in
    if id >= cap then begin
      let slots = Array.make (Stdlib.max (id + 1) (2 * cap)) None in
      Array.blit t.slots 0 slots 0 cap;
      t.slots <- slots
    end;
    t.slots.(id) <- Some v

  let iter f t = Array.iteri (fun id -> Option.iter (f id)) t.slots
end
