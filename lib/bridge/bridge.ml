open Midrr_core

type port = {
  local : Vif.addr;
  gateway : Vif.addr;
  mutable tx_frames : int;
}

type t = {
  sched : Sched_intf.packed;
  ports : (Types.iface_id, port) Hashtbl.t;
  mutable rewrites : int;
}

(* The arbitrary address presented to applications. *)
let vif = Vif.addr ~mac:0x02_00_5E_00_00_01L ~ip:0x0A00_0001l (* 10.0.0.1 *)

let create ~sched () = { sched; ports = Hashtbl.create 8; rewrites = 0 }

let add_port t j ~local ~gateway =
  if Hashtbl.mem t.ports j then invalid_arg "Bridge.add_port: duplicate";
  Hashtbl.replace t.ports j { local; gateway; tx_frames = 0 };
  Sched_intf.Packed.add_iface t.sched j

let register_flow t ~flow ?(weight = 1.0) ~allowed () =
  Sched_intf.Packed.add_flow t.sched ~flow ~weight ~allowed

let send t pkt = Sched_intf.Packed.enqueue t.sched pkt

let transmit t j =
  match Hashtbl.find_opt t.ports j with
  | None -> invalid_arg "Bridge.transmit: unknown port"
  | Some port -> (
      match Sched_intf.Packed.next_packet t.sched j with
      | None -> None
      | Some pkt ->
          (* The application addressed the packet to the virtual interface;
             rewrite to the physical port's addresses before emission. *)
          let virtual_frame = Vif.make ~src:vif ~dst:vif pkt in
          let frame =
            Vif.rewrite virtual_frame ~src:port.local ~dst:port.gateway
          in
          t.rewrites <- t.rewrites + 1;
          port.tx_frames <- port.tx_frames + 1;
          Some frame)

let tx_frames t j =
  match Hashtbl.find_opt t.ports j with
  | None -> invalid_arg "Bridge.tx_frames: unknown port"
  | Some port -> port.tx_frames

let rewrites t = t.rewrites
