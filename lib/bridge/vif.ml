type addr = { mac : int64; ip : int32 }

let addr ~mac ~ip =
  if Int64.logand mac 0xFFFF_0000_0000_0000L <> 0L then
    invalid_arg "Vif.addr: MAC wider than 48 bits";
  { mac; ip }

type frame = {
  src : addr;
  dst : addr;
  payload : Midrr_core.Packet.t;
  checksum : int;
}

(* 16-bit ones'-complement sum over the header words, the way IPv4 header
   checksums are computed. *)
let header_checksum ~src ~dst ~payload_len =
  let words = ref [] in
  let push64 v =
    for shift = 0 to 3 do
      words :=
        Int64.to_int (Int64.logand (Int64.shift_right_logical v (16 * shift)) 0xFFFFL)
        :: !words
    done
  in
  let push32 v =
    words := Int32.to_int (Int32.logand v 0xFFFFl) :: !words;
    words :=
      Int32.to_int (Int32.logand (Int32.shift_right_logical v 16) 0xFFFFl)
      :: !words
  in
  push64 src.mac;
  push64 dst.mac;
  push32 src.ip;
  push32 dst.ip;
  words := payload_len land 0xFFFF :: !words;
  let sum =
    List.fold_left
      (fun acc w ->
        let s = acc + w in
        (s land 0xFFFF) + (s lsr 16))
      0 !words
  in
  lnot sum land 0xFFFF

let make ~src ~dst payload =
  {
    src;
    dst;
    payload;
    checksum =
      header_checksum ~src ~dst ~payload_len:payload.Midrr_core.Packet.size;
  }

let rewrite frame ~src ~dst =
  {
    frame with
    src;
    dst;
    checksum =
      header_checksum ~src ~dst
        ~payload_len:frame.payload.Midrr_core.Packet.size;
  }

let checksum_valid frame =
  frame.checksum
  = header_checksum ~src:frame.src ~dst:frame.dst
      ~payload_len:frame.payload.Midrr_core.Packet.size
