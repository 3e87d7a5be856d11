open Midrr_core
module Maxmin = Midrr_flownet.Maxmin

type sched_spec =
  | Sched_midrr of int option
  | Sched_drr
  | Sched_wfq
  | Sched_rr
  | Sched_sprio
  | Sched_srpt
  | Sched_edf
  | Sched_lstf

(* The discipline registry: every name accepted by `scheduler NAME` in a
   scenario file and by `--sched NAME` on the CLI.  "midrr" carries its
   optional counter= knob and so is special-cased where parsed. *)
let sched_names =
  [
    "midrr";
    "drr";
    "wfq";
    "rr";
    "sprio";
    "srpt";
    "edf";
    "lstf";
  ]

let sched_of_name = function
  | "midrr" -> Some (Sched_midrr None)
  | "drr" -> Some Sched_drr
  | "wfq" -> Some Sched_wfq
  | "rr" -> Some Sched_rr
  | "sprio" -> Some Sched_sprio
  | "srpt" -> Some Sched_srpt
  | "edf" -> Some Sched_edf
  | "lstf" -> Some Sched_lstf
  | _ -> None

let sched_name = function
  | Sched_midrr _ -> "midrr"
  | Sched_drr -> "drr"
  | Sched_wfq -> "wfq"
  | Sched_rr -> "rr"
  | Sched_sprio -> "sprio"
  | Sched_srpt -> "srpt"
  | Sched_edf -> "edf"
  | Sched_lstf -> "lstf"

type event =
  | E_weight of string * float
  | E_allow of string * int
  | E_deny of string * int
  | E_stop of string

type flow_spec = {
  fs_name : string;
  fs_weight : float;
  fs_ifaces : int list;
  fs_source : Netsim.source;
}

type t = {
  sched : sched_spec;
  ifaces : (int * Link.t) list;
  flow_specs : flow_spec list;
  events : (float * event) list;
  measure_windows : (float * float) list;
  horizon : float;
}

type window_report = {
  t0 : float;
  t1 : float;
  rates : (string * float) list;
  reference : (string * float) list;
}

type report = {
  windows : window_report list;
  completions : (string * float) list;
}

(* --- value parsing ------------------------------------------------------- *)

(* Every number must be finite: [nan] and [inf] parse as floats, and a
   run given one crashes, hangs or prints wrong numbers. *)
let finite v = if Float.is_finite v then Some v else None

let parse_suffixed ~suffixes s =
  let rec try_suffixes = function
    | [] -> float_of_string_opt s
    | (suffix, scale) :: rest ->
        if
          String.length s > String.length suffix
          && String.(
               equal
                 (sub s (length s - length suffix) (length suffix))
                 suffix)
        then
          let body = String.sub s 0 (String.length s - String.length suffix) in
          Option.map (fun v -> v *. scale) (float_of_string_opt body)
        else try_suffixes rest
  in
  Option.bind (try_suffixes suffixes) finite

(* A rate in bits/s, >= 0 (a source's must also be > 0). *)
let parse_rate s =
  match parse_suffixed ~suffixes:[ ("kb", 1e3); ("Mb", 1e6); ("Gb", 1e9) ] s with
  | Some r when r >= 0.0 -> Some r
  | _ -> None

(* A byte count, below 2^62 so that it converts to an int. *)
let parse_bytes s =
  match parse_suffixed ~suffixes:[ ("kB", 1e3); ("MB", 1e6); ("GB", 1e9) ] s with
  | Some b when b < 0x1p62 -> Some (int_of_float b)
  | _ -> None

(* A time in seconds, >= 0. *)
let parse_time s =
  match Option.bind (float_of_string_opt s) finite with
  | Some t when t >= 0.0 -> Some t
  | _ -> None

(* Weights span six decades: a DRR turn adds a quantum scaled by the
   weight, so a tiny weight makes a decision take forever, and the
   water-filling reference loses a flow whose weight dwarfs another's. *)
let min_weight = 1e-3
let max_weight = 1e3

let parse_weight s =
  match float_of_string_opt s with
  | Some w when w >= min_weight && w <= max_weight -> Some w
  | _ -> None

let field key tokens =
  List.find_map
    (fun tok ->
      let prefix = key ^ "=" in
      if String.length tok > String.length prefix
         && String.sub tok 0 (String.length prefix) = prefix
      then Some (String.sub tok (String.length prefix)
                   (String.length tok - String.length prefix))
      else None)
    tokens

(* --- line parsing ---------------------------------------------------------- *)

type directive =
  | D_sched of sched_spec
  | D_iface of int * Link.t * float list (* the profile's rates *)
  | D_flow of flow_spec
  | D_at of float * event
  | D_measure of float * float
  | D_run of float

let err lineno fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt

(* Interface ids size the engines' and the telemetry fold's slot
   arrays.  The cap sits far above any id a scenario needs and far below
   an array the heap cannot hold. *)
let max_iface_id = 65535

let iface_id s =
  match int_of_string_opt s with
  | Some j as id when j >= 0 && j <= max_iface_id -> id
  | _ -> None

let bad_iface_id lineno s =
  err lineno "bad interface id %S (want an integer in 0..%d)" s max_iface_id

let bad_rate lineno s = err lineno "bad rate %S (want a finite rate >= 0)" s

let bad_weight lineno s =
  err lineno "bad weight %S (want a number in %g..%g)" s min_weight max_weight

let parse_iface lineno tokens =
  match tokens with
  | id :: _ when Option.is_none (iface_id id) -> bad_iface_id lineno id
  | [ id; "constant"; rate ] -> (
      match (iface_id id, parse_rate rate) with
      | Some id, Some r -> Ok (D_iface (id, Link.constant r, [ r ]))
      | _ -> bad_rate lineno rate)
  | id :: "steps" :: initial :: changes -> (
      let step c =
        match String.split_on_char ':' c with
        | [ at; rate ] -> (
            match (parse_time at, parse_rate rate) with
            | Some a, Some r -> Ok (a, r)
            | _ -> err lineno "bad step %S (want T:RATE, T >= 0)" c)
        | _ -> err lineno "bad step %S (want T:RATE, T >= 0)" c
      in
      let rec steps acc = function
        | [] -> Ok (List.rev acc)
        | c :: rest -> Result.bind (step c) (fun p -> steps (p :: acc) rest)
      in
      match (iface_id id, parse_rate initial) with
      | Some id, Some r0 -> (
          match steps [] changes with
          | Error _ as e -> e
          | Ok points -> (
              try
                Ok
                  (D_iface
                     (id, Link.steps ~initial:r0 points, r0 :: List.map snd points))
              with Invalid_argument m -> err lineno "%s" m))
      | _ -> bad_rate lineno initial)
  | _ -> err lineno "bad iface directive"

(* The ids of an [ifaces=] list, or an error naming the first bad one. *)
let rec iface_list lineno acc = function
  | [] -> Ok (List.rev acc)
  | s :: rest -> (
      match iface_id s with
      | Some j -> iface_list lineno (j :: acc) rest
      | None -> bad_iface_id lineno s)

let parse_source lineno tokens =
  let pkt () =
    match Option.bind (field "pkt" tokens) int_of_string_opt with
    | Some n when n > 0 -> Ok n
    | _ -> err lineno "missing or bad pkt="
  in
  if List.mem "backlogged" tokens then
    Result.map (fun pkt_size -> Netsim.Backlogged { pkt_size }) (pkt ())
  else if List.mem "finite" tokens then
    match Option.bind (field "bytes" tokens) parse_bytes with
    | Some total_bytes when total_bytes > 0 ->
        Result.map
          (fun pkt_size -> Netsim.Finite { total_bytes; pkt_size })
          (pkt ())
    | _ -> err lineno "missing or bad bytes="
  else if List.mem "cbr" tokens then
    match Option.bind (field "rate" tokens) parse_rate with
    | Some rate when rate > 0.0 ->
        Result.map
          (fun pkt_size -> Netsim.Cbr { rate; pkt_size; stop = None })
          (pkt ())
    | _ -> err lineno "missing or bad rate="
  else if List.mem "poisson" tokens then
    match Option.bind (field "rate" tokens) parse_rate with
    | Some rate when rate > 0.0 ->
        Result.map
          (fun pkt_size -> Netsim.Poisson { rate; pkt_size; stop = None })
          (pkt ())
    | _ -> err lineno "missing or bad rate="
  else if List.mem "tb" tokens then
    match
      ( Option.bind (field "rate" tokens) parse_rate,
        Option.bind (field "burst" tokens) parse_bytes )
    with
    | Some rate, Some b when rate > 0.0 && b > 0 ->
        Result.bind (pkt ()) (fun pkt_size ->
            (* A burst smaller than one packet would make the source's
               time_until infinite: nothing could ever be sent. *)
            if b < pkt_size then err lineno "tb burst= must be >= pkt="
            else
              Ok
                (Netsim.Tb
                   { rate; burst = Float.of_int b; pkt_size; stop = None }))
    | _ -> err lineno "missing or bad rate=/burst="
  else err lineno "unknown source (want backlogged|finite|cbr|poisson|tb)"

let parse_flow lineno tokens =
  match tokens with
  | name :: rest -> (
      let w = Option.value (field "weight" rest) ~default:"1" in
      match (parse_weight w, field "ifaces" rest) with
      | None, _ -> bad_weight lineno w
      | Some w, Some ids -> (
          match iface_list lineno [] (String.split_on_char ',' ids) with
          | Error _ as e -> e
          | Ok ifaces ->
              Result.map
                (fun source ->
                  D_flow { fs_name = name; fs_weight = w; fs_ifaces = ifaces; fs_source = source })
                (parse_source lineno rest))
      | Some _, None -> err lineno "flow needs ifaces=I[,J...]")
  | [] -> err lineno "flow needs a name"

let parse_at lineno tokens =
  match tokens with
  | time :: rest -> (
      match (parse_time time, rest) with
      | None, _ -> err lineno "bad time %S (want a finite time >= 0)" time
      | Some at, [ "weight"; name; w ] -> (
          match parse_weight w with
          | Some w -> Ok (D_at (at, E_weight (name, w)))
          | None -> bad_weight lineno w)
      | Some at, [ "allow"; name; iface ] -> (
          match iface_id iface with
          | Some j -> Ok (D_at (at, E_allow (name, j)))
          | None -> bad_iface_id lineno iface)
      | Some at, [ "deny"; name; iface ] -> (
          match iface_id iface with
          | Some j -> Ok (D_at (at, E_deny (name, j)))
          | None -> bad_iface_id lineno iface)
      | Some at, [ "stop"; name ] -> Ok (D_at (at, E_stop name))
      | _ -> err lineno "bad at directive")
  | [] -> err lineno "at needs a time"

let parse_line lineno line =
  let stripped = String.trim line in
  if stripped = "" || stripped.[0] = '#' then Ok None
  else
    let tokens =
      String.split_on_char ' ' stripped |> List.filter (fun t -> t <> "")
    in
    let result =
      match tokens with
      | "scheduler" :: rest -> (
          match rest with
          | "midrr" :: opts -> (
              match opts with
              | [] -> Ok (D_sched (Sched_midrr None))
              | [ opt ] -> (
                  match Option.map int_of_string_opt (field "counter" [ opt ]) with
                  | Some (Some k) when k >= 1 -> Ok (D_sched (Sched_midrr (Some k)))
                  | Some _ -> err lineno "bad %s (want counter=K, K >= 1)" opt
                  | None -> err lineno "unknown midrr option %S (want counter=K)" opt)
              | _ -> err lineno "midrr takes one option at most (counter=K)")
          | [ name ] -> (
              match sched_of_name name with
              | Some s -> Ok (D_sched s)
              | None ->
                  err lineno "unknown scheduler %S (valid: %s)" name
                    (String.concat ", " sched_names))
          | _ ->
              err lineno "unknown scheduler (valid: %s)"
                (String.concat ", " sched_names))
      | "iface" :: rest -> parse_iface lineno rest
      | "flow" :: rest -> parse_flow lineno rest
      | "at" :: rest -> parse_at lineno rest
      | [ "measure"; t0; t1 ] -> (
          match (parse_time t0, parse_time t1) with
          | Some a, Some b when b > a -> Ok (D_measure (a, b))
          | _ -> err lineno "bad measure window %s %s (want 0 <= T0 < T1)" t0 t1)
      | [ "run"; horizon ] -> (
          match parse_time horizon with
          | Some h when h > 0.0 -> Ok (D_run h)
          | _ -> err lineno "bad run horizon %S (want a finite time > 0)" horizon)
      | d :: _ -> err lineno "unknown directive %S" d
      | [] -> err lineno "empty directive"
    in
    Result.map (fun d -> Some d) result

let event_flow = function
  | E_weight (name, _) | E_allow (name, _) | E_deny (name, _) | E_stop name ->
      name

(* A source's packet size and, for a pushed source, its rate. *)
let source_pkt_rate = function
  | Netsim.Backlogged { pkt_size } | Finite { pkt_size; _ } -> (pkt_size, [])
  | Cbr { rate; pkt_size; _ }
  | Poisson { rate; pkt_size; _ }
  | On_off { rate; pkt_size; _ }
  | Tb { rate; pkt_size; _ } ->
      (pkt_size, [ rate ])

(* What a line declared that can only be judged against the horizon. *)
type late = L_window_end of float | L_rate of float

(* One pass over the lines.  Interface ids and flow names are checked for
   duplicates as they are declared; [at] lines are checked once every
   line is read, since one may name a flow, or a stop, declared later:
   each must name a declared flow, and only a stop may come at or after
   the flow's first stop, when the scheduler no longer knows it.  Then,
   in line order, every [measure] window must end by the horizon, and one
   packet of the file's smallest size must take time at every positive
   rate, even at the horizon, or the clock would stop there; nor may a
   rate carry more than 2^30 such packets by the horizon, or the run
   would never end in practice. *)
let parse text =
  let sched = ref (Sched_midrr None) in
  let ifaces = ref [] and flow_specs = ref [] in
  let ats = ref [] and measure_windows = ref [] in
  let horizon = ref None and pkt_min = ref max_int in
  let iface_ids = Hashtbl.create 16 and flow_names = Hashtbl.create 16 in
  let late = ref [] in
  let rates lineno =
    List.iter (fun r -> if r > 0.0 then late := (lineno, L_rate r) :: !late)
  in
  let add lineno = function
    | D_sched s ->
        sched := s;
        Ok ()
    | D_iface (id, profile, rs) ->
        if Hashtbl.mem iface_ids id then err lineno "duplicate interface %d" id
        else begin
          Hashtbl.replace iface_ids id ();
          ifaces := (id, profile) :: !ifaces;
          rates lineno rs;
          Ok ()
        end
    | D_flow f ->
        if Hashtbl.mem flow_names f.fs_name then
          err lineno "duplicate flow %S" f.fs_name
        else begin
          Hashtbl.replace flow_names f.fs_name ();
          flow_specs := f :: !flow_specs;
          let pkt, rs = source_pkt_rate f.fs_source in
          pkt_min := Int.min !pkt_min pkt;
          rates lineno rs;
          Ok ()
        end
    | D_at (at, e) ->
        ats := (lineno, at, e) :: !ats;
        Ok ()
    | D_measure (a, b) ->
        measure_windows := (a, b) :: !measure_windows;
        late := (lineno, L_window_end b) :: !late;
        Ok ()
    | D_run h ->
        horizon := Some h;
        Ok ()
  in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_line lineno line with
        | Ok None -> go (lineno + 1) rest
        | Ok (Some d) -> (
            match add lineno d with
            | Ok () -> go (lineno + 1) rest
            | Error _ as e -> e)
        | Error _ as e -> e)
  in
  let first_stops () =
    let stops = Hashtbl.create 16 in
    List.iter
      (fun (_, at, e) ->
        match e with
        | E_stop name ->
            let t = Option.value (Hashtbl.find_opt stops name) ~default:at in
            Hashtbl.replace stops name (Float.min t at)
        | E_weight _ | E_allow _ | E_deny _ -> ())
      !ats;
    stops
  in
  let bad_at stops (lineno, at, e) =
    let name = event_flow e in
    if not (Hashtbl.mem flow_names name) then
      Some (err lineno "unknown flow %S" name)
    else
      match (e, Hashtbl.find_opt stops name) with
      | (E_weight _ | E_allow _ | E_deny _), Some stop when at >= stop ->
          Some
            (err lineno "flow %S is stopped at %g, so it cannot change at %g"
               name stop at)
      | _ -> None
  in
  let bad_late horizon = function
    | lineno, L_window_end t1 when t1 > horizon ->
        Some (err lineno "measure window ends at %g, after run %g" t1 horizon)
    | lineno, L_rate r ->
        let bits = 8.0 *. Float.of_int !pkt_min in
        if not (horizon +. (bits /. r) > horizon) then
          Some
            (err lineno
               "rate %g b/s is too high: a %d-byte packet at it takes no time at %g"
               r !pkt_min horizon)
        else if r *. horizon /. bits > 0x1p30 then
          Some
            (err lineno
               "rate %g b/s is too high: %.3g %d-byte packets at it by %g, over 2^30"
               r (r *. horizon /. bits) !pkt_min horizon)
        else None
    | _ -> None
  in
  match go 1 (String.split_on_char '\n' text) with
  | Error e -> Error e
  | Ok () -> (
      let stops = first_stops () in
      match (List.find_map (bad_at stops) (List.rev !ats), !horizon) with
      | Some e, _ -> e
      | None, None -> Error "missing 'run T' directive"
      | None, Some horizon -> (
          match List.find_map (bad_late horizon) (List.rev !late) with
          | Some e -> e
          | None ->
              if !ifaces = [] then Error "no interfaces declared"
              else if !flow_specs = [] then Error "no flows declared"
              else
                Ok
                  {
                    sched = !sched;
                    ifaces = List.rev !ifaces;
                    flow_specs = List.rev !flow_specs;
                    events = List.rev_map (fun (_, at, e) -> (at, e)) !ats;
                    measure_windows = List.rev !measure_windows;
                    horizon;
                  }))

(* --- introspection -------------------------------------------------------- *)

let sched_spec t = t.sched
let flow_specs t = t.flow_specs
let iface_profiles t = t.ifaces
let horizon t = t.horizon
let has_events t = t.events <> []

(* --- execution --------------------------------------------------------------- *)

type engine = Engine_fast | Engine_ref | Engine_sharded of int

let make_sched ?(engine = Engine_fast) spec =
  match (spec, engine) with
  | Sched_midrr counter, Engine_fast ->
      Midrr.packed (Midrr.create ?counter_max:counter ())
  | Sched_midrr counter, Engine_ref ->
      Sched_intf.Packed
        ( (module Drr_engine_ref),
          Drr_engine_ref.create ?counter_max:counter
            Drr_engine_ref.Service_flags )
  | Sched_midrr counter, Engine_sharded n ->
      Sched_intf.Packed
        ( (module Shard_engine),
          Shard_engine.create ?counter_max:counter ~shards:n
            Drr_engine.Service_flags )
  | Sched_drr, Engine_fast -> Drr.packed (Drr.create ())
  | Sched_drr, Engine_ref ->
      Sched_intf.Packed
        ((module Drr_engine_ref), Drr_engine_ref.create Drr_engine_ref.Plain)
  | Sched_drr, Engine_sharded n ->
      Sched_intf.Packed
        ((module Shard_engine), Shard_engine.create ~shards:n Drr_engine.Plain)
  | Sched_wfq, _ -> Prog_wfq.packed (Prog_wfq.create ())
  | Sched_rr, _ -> Prog_rr.packed (Prog_rr.create ())
  | Sched_sprio, _ -> Prog_sprio.packed (Prog_sprio.create ())
  | Sched_srpt, _ -> Prog_srpt.packed (Prog_srpt.create ())
  | Sched_edf, _ -> Prog_edf.packed (Prog_edf.create ())
  | Sched_lstf, _ -> Prog_lstf.packed (Prog_lstf.create ())

let run ?sink ?metrics ?spans ?ticks ?seed ?engine ?sched t =
  let sched =
    match sched with Some f -> f () | None -> make_sched ?engine t.sched
  in
  let sim = Netsim.create ?seed ~bin:0.5 ?sink ?metrics ?spans ~sched () in
  (* Periodic telemetry callbacks (exporter flushes, top snapshots):
     fire every [interval] seconds of simulation time up to the
     horizon, starting one interval in. *)
  (match ticks with
  | None -> ()
  | Some (interval, f) ->
      if not (interval > 0.0) then
        invalid_arg "Scenario.run: tick interval <= 0";
      let rec tick at =
        if at <= t.horizon then
          Netsim.at sim at (fun () ->
              f ~time:at;
              tick (at +. interval))
      in
      tick interval);
  List.iter (fun (j, profile) -> Netsim.add_iface sim j profile) t.ifaces;
  let ids = Hashtbl.create 16 in
  List.iteri
    (fun i fs ->
      Hashtbl.replace ids fs.fs_name i;
      Netsim.add_flow sim i ~weight:fs.fs_weight ~allowed:fs.fs_ifaces
        fs.fs_source)
    t.flow_specs;
  let flow_id name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Scenario.run: unknown flow %S" name)
  in
  List.iter
    (fun (at, event) ->
      Netsim.at sim at (fun () ->
          match event with
          | E_weight (name, w) -> Netsim.set_weight sim (flow_id name) w
          | E_allow (name, j) ->
              let f = flow_id name in
              let current = Sched_intf.Packed.allowed_ifaces sched f in
              if not (List.mem j current) then
                Netsim.set_allowed sim f (List.sort compare (j :: current))
          | E_deny (name, j) ->
              let f = flow_id name in
              let current = Sched_intf.Packed.allowed_ifaces sched f in
              Netsim.set_allowed sim f (List.filter (fun k -> k <> j) current)
          | E_stop name -> Netsim.remove_flow sim (flow_id name)))
    t.events;
  let names = List.map (fun fs -> fs.fs_name) t.flow_specs in
  (* Capture the reference allocation at each window's end, when the flow
     population and preferences reflect that window. *)
  let captured = List.map (fun _ -> ref []) t.measure_windows in
  List.iteri
    (fun k (_, t1) ->
      let slot = List.nth captured k in
      Netsim.at sim t1 (fun () ->
          let alive =
            List.filter
              (fun name ->
                Sched_intf.Packed.has_flow sched (flow_id name)
                && Sched_intf.Packed.is_backlogged sched (flow_id name))
              names
          in
          match alive with
          | [] -> ()
          | _ ->
              let flows = List.map flow_id alive in
              let inst =
                Netsim.instance_of sim ~flows ~ifaces:(List.map fst t.ifaces)
              in
              let alloc = Maxmin.solve inst in
              slot :=
                List.mapi
                  (fun k name -> (name, Types.to_mbps alloc.rates.(k)))
                  alive))
    t.measure_windows;
  Netsim.run sim ~until:t.horizon;
  let windows =
    List.map2
      (fun (t0, t1) slot ->
        let rates =
          List.map
            (fun name -> (name, Netsim.avg_rate sim (flow_id name) ~t0 ~t1))
            names
        in
        { t0; t1; rates; reference = !slot })
      t.measure_windows captured
  in
  let completions =
    List.filter_map
      (fun fs ->
        match fs.fs_source with
        | Netsim.Finite _ ->
            Option.map
              (fun at -> (fs.fs_name, at))
              (Netsim.completion_time sim (flow_id fs.fs_name))
        | _ -> None)
      t.flow_specs
  in
  { windows; completions }

let run_text ?sink ?metrics ?spans ?ticks ?seed ?engine ?sched text =
  Result.map (run ?sink ?metrics ?spans ?ticks ?seed ?engine ?sched) (parse text)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun w ->
      Format.fprintf ppf "window %.1f-%.1fs:@," w.t0 w.t1;
      List.iter
        (fun (name, rate) ->
          let reference =
            match List.assoc_opt name w.reference with
            | Some r -> Printf.sprintf " (reference %.3f)" r
            | None -> ""
          in
          Format.fprintf ppf "  %-12s %8.3f Mb/s%s@," name rate reference)
        w.rates)
    r.windows;
  List.iter
    (fun (name, at) ->
      Format.fprintf ppf "%s completed at %.2fs@," name at)
    r.completions;
  Format.fprintf ppf "@]"
