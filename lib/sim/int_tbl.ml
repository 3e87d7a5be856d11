include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)
