let buf_add_field b name v =
  Buffer.add_string b ",\"";
  Buffer.add_string b name;
  Buffer.add_string b "\":";
  Buffer.add_string b v

let to_string ~time ev =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"t\":";
  Buffer.add_string b (Printf.sprintf "%.9f" time);
  Buffer.add_string b ",\"ev\":\"";
  Buffer.add_string b (Event.label ev);
  Buffer.add_char b '"';
  (match Event.flow ev with
  | Some f -> buf_add_field b "flow" (string_of_int f)
  | None -> ());
  (match Event.iface ev with
  | Some j -> buf_add_field b "iface" (string_of_int j)
  | None -> ());
  (match Event.bytes ev with
  | Some n -> buf_add_field b "bytes" (string_of_int n)
  | None -> ());
  (match ev with
  | Event.Serve { deficit; _ } ->
      buf_add_field b "deficit" (Printf.sprintf "%.3f" deficit)
  | Event.Flow_add { weight; _ } | Event.Weight_change { weight; _ } ->
      buf_add_field b "weight" (Printf.sprintf "%g" weight)
  | _ -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let write oc ~time ev =
  output_string oc (to_string ~time ev);
  output_char oc '\n'

let sink oc : Sink.t = fun ~time ev -> write oc ~time (Event.decode ev)
