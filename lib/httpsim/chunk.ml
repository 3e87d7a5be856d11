type range = { offset : int; length : int }

let plan ~total_bytes ~chunk_size =
  if total_bytes < 0 then invalid_arg "Chunk.plan: negative total";
  if chunk_size <= 0 then invalid_arg "Chunk.plan: chunk_size <= 0";
  let rec go offset acc =
    if offset >= total_bytes then List.rev acc
    else
      let length = Stdlib.min chunk_size (total_bytes - offset) in
      go (offset + length) ({ offset; length } :: acc)
  in
  go 0 []

let next_length ~total_bytes ~chunk_size ~sent =
  if chunk_size <= 0 then invalid_arg "Chunk.next: chunk_size <= 0";
  if sent < 0 then invalid_arg "Chunk.next: negative sent";
  if sent >= total_bytes then 0 else Stdlib.min chunk_size (total_bytes - sent)

let next ~total_bytes ~chunk_size ~sent =
  match next_length ~total_bytes ~chunk_size ~sent with
  | 0 -> None
  | length -> Some { offset = sent; length }

let is_contiguous ranges =
  let rec go expected = function
    | [] -> true
    | { offset; length } :: rest ->
        offset = expected && length > 0 && go (offset + length) rest
  in
  go 0 ranges

let pp ppf { offset; length } =
  Format.fprintf ppf "bytes=%d-%d" offset (offset + length - 1)
