let next_length ~total_bytes ~chunk_size ~sent =
  if chunk_size <= 0 then invalid_arg "Chunk.next_length: chunk_size <= 0";
  if sent < 0 then invalid_arg "Chunk.next_length: negative sent";
  if sent >= total_bytes then 0 else Stdlib.min chunk_size (total_bytes - sent)
