let fm ~s_i ~phi_i ~s_j ~phi_j = (s_i /. phi_i) -. (s_j /. phi_j)

type window = (Types.flow_id, int) Hashtbl.t

let start sched =
  let snapshot = Hashtbl.create 32 in
  List.iter
    (fun f ->
      Hashtbl.replace snapshot f (Sched_intf.Packed.served_bytes sched f))
    (Sched_intf.Packed.flows sched);
  snapshot

let service_since window sched f =
  let base = Option.value (Hashtbl.find_opt window f) ~default:0 in
  Sched_intf.Packed.served_bytes sched f - base

let normalized_service window sched ~phi f =
  Float.of_int (service_since window sched f) /. phi f

let fm_between window sched ~phi ~i ~j =
  fm
    ~s_i:(Float.of_int (service_since window sched i))
    ~phi_i:(phi i)
    ~s_j:(Float.of_int (service_since window sched j))
    ~phi_j:(phi j)

type report = {
  window_index : int;
  worst_pair : (Types.flow_id * Types.flow_id) option;
  worst_fm : float;
  pairs_checked : int;
}

type snapshot = {
  served : (Types.flow_id, int) Hashtbl.t;
  served_on : (Types.flow_id * Types.iface_id, int) Hashtbl.t;
  backlogged : (Types.flow_id, bool) Hashtbl.t;
}

type t = {
  sched : Sched_intf.packed;
  phi : Types.flow_id -> float;
  alarm_threshold : float;
  (* Live cumulative state, maintained from the event stream rather than
     by polling the scheduler's counters at every sample. *)
  served : (Types.flow_id, int) Hashtbl.t;
  served_on : (Types.flow_id * Types.iface_id, int) Hashtbl.t;
  backlog : (Types.flow_id, int) Hashtbl.t; (* queued bytes *)
  mutable last : snapshot option;
  mutable window_index : int;
  mutable alarm_count : int;
  mutable worst_ever : float;
}

let bump table key delta =
  Hashtbl.replace table key
    (delta + Option.value (Hashtbl.find_opt table key) ~default:0)

let on_event t (ev : Midrr_obs.Event.t) =
  match ev with
  | Serve { flow; iface; bytes; _ } ->
      bump t.served flow bytes;
      bump t.served_on (flow, iface) bytes;
      bump t.backlog flow (-bytes)
  | Enqueue { flow; bytes } -> bump t.backlog flow bytes
  | Flow_remove { flow } -> Hashtbl.remove t.backlog flow
  | _ -> ()

let create ?(alarm_threshold = 15_000.0) ?(phi = fun _ -> 1.0) sched =
  let t =
    {
      sched;
      phi;
      alarm_threshold;
      served = Hashtbl.create 32;
      served_on = Hashtbl.create 64;
      backlog = Hashtbl.create 32;
      last = None;
      window_index = 0;
      alarm_count = 0;
      worst_ever = 0.0;
    }
  in
  (* Events are increments, so seed the tables with the scheduler's
     cumulative counters for flows registered before the monitor. *)
  List.iter
    (fun f ->
      Hashtbl.replace t.served f (Sched_intf.Packed.served_bytes sched f);
      Hashtbl.replace t.backlog f (Sched_intf.Packed.backlog_bytes sched f);
      List.iter
        (fun j ->
          Hashtbl.replace t.served_on (f, j)
            (Sched_intf.Packed.served_bytes_on sched ~flow:f ~iface:j))
        (Sched_intf.Packed.allowed_ifaces sched f))
    (Sched_intf.Packed.flows sched);
  Sched_intf.Packed.subscribe sched (on_event t);
  t

let take_snapshot t =
  let backlogged = Hashtbl.create (Hashtbl.length t.backlog) in
  Hashtbl.iter (fun f bytes -> Hashtbl.replace backlogged f (bytes > 0))
    t.backlog;
  {
    served = Hashtbl.copy t.served;
    served_on = Hashtbl.copy t.served_on;
    backlogged;
  }

(* The monitor checks exactly Theorem 2's conditions on the window:
   (1) two flows that both drew service from a common interface are in the
       same cluster, so their normalized service must match (|FM| small);
   (2) a flow willing to use an interface another flow actively used must
       not be behind it (FM from the bystander to the user >= -tolerance).
   Cross-cluster pairs where the bystander is ahead are legitimate and are
   not flagged. *)
let sample t =
  let current = take_snapshot t in
  let report =
    match t.last with
    | None ->
        { window_index = 0; worst_pair = None; worst_fm = 0.0; pairs_checked = 0 }
    | Some prev ->
        let eligible =
          Hashtbl.fold
            (fun f was acc ->
              let still =
                Option.value (Hashtbl.find_opt current.backlogged f)
                  ~default:false
              in
              if was && still then f :: acc else acc)
            prev.backlogged []
          |> List.sort Int.compare
        in
        let delta table table' key =
          Float.of_int
            (Option.value (Hashtbl.find_opt table' key) ~default:0
            - Option.value (Hashtbl.find_opt table key) ~default:0)
        in
        let service f = delta prev.served current.served f in
        let service_on f j = delta prev.served_on current.served_on (f, j) in
        let norm f = service f /. t.phi f in
        let worst = ref 0.0 and worst_pair = ref None and pairs = ref 0 in
        let flag a b violation =
          if violation > !worst then begin
            worst := violation;
            worst_pair := Some (a, b)
          end
        in
        let consider a b =
          let shared =
            List.filter
              (fun j ->
                List.mem j (Sched_intf.Packed.allowed_ifaces t.sched b))
              (Sched_intf.Packed.allowed_ifaces t.sched a)
          in
          if shared <> [] then begin
            incr pairs;
            let active f =
              List.exists (fun j -> service_on f j > 0.0) shared
            in
            match (active a, active b) with
            | true, true ->
                (* Same cluster: normalized service must agree. *)
                flag a b (Float.abs (norm a -. norm b))
            | true, false ->
                (* b is a willing bystander: it must not trail a. *)
                flag a b (Float.max 0.0 (norm a -. norm b))
            | false, true -> flag b a (Float.max 0.0 (norm b -. norm a))
            | false, false -> ()
          end
        in
        let rec pairwise = function
          | [] -> ()
          | a :: rest ->
              List.iter (consider a) rest;
              pairwise rest
        in
        pairwise eligible;
        {
          window_index = t.window_index;
          worst_pair = !worst_pair;
          worst_fm = !worst;
          pairs_checked = !pairs;
        }
  in
  if report.worst_fm > t.alarm_threshold then
    t.alarm_count <- t.alarm_count + 1;
  if report.worst_fm > t.worst_ever then t.worst_ever <- report.worst_fm;
  t.last <- Some current;
  t.window_index <- t.window_index + 1;
  report

let alarms t = t.alarm_count
let windows t = t.window_index
let worst_ever t = t.worst_ever
