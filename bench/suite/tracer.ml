module Log_histogram = Midrr_stats.Log_histogram

type kind = int
type overhead = { span_ps : int; span_words : int; skip_ps : int }

let no_overhead = { span_ps = 0; span_words = 0; skip_ps = 0 }
let max_depth = 16

type t = {
  clock : unit -> int;
  words : unit -> int;
  mutable ovh : overhead;
  names : string array;
  (* sampling of the root's children: the next one is timed when the
     countdown reaches 0; [every = 0] never times one *)
  every : int;
  mutable rng : int;
  mutable countdown : int;
  mutable skip : int;  (* open spans of the current untimed subtree *)
  mutable untimed : int;  (* untimed spans so far *)
  (* per kind; time and words sums are raw, over timed calls only *)
  k_calls : int array;
  k_timed : int array;
  k_self_ns : int array;
  k_self_w : int array;
  k_incl_ns : int array;
  k_children : int array;  (* timed direct children *)
  k_desc : int array;  (* timed descendants *)
  k_hist : Log_histogram.t array;
  (* per kind, the calls made directly under the root *)
  d1_calls : int array;
  d1_timed : int array;
  d1_incl_ns : int array;
  d1_incl_w : int array;
  d1_desc : int array;
  (* the open-span stack *)
  f_kind : int array;
  f_t0 : int array;
  f_w0 : int array;
  f_child_ns : int array;
  f_child_w : int array;
  f_children : int array;
  f_desc : int array;
  mutable depth : int;
}

let new_hist () = Log_histogram.create_range ~lo:1e-9 ~hi:1e3 ~rel_error:0.02

let xorshift x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17)

(* Gaps uniform in [1, 2 every - 1]: one in [every] on average, and no
   aliasing with a periodic call pattern. *)
let gap t =
  if Int.equal t.every 0 then max_int
  else begin
    t.rng <- xorshift t.rng;
    1 + ((t.rng land max_int) mod ((2 * t.every) - 1))
  end

let make ~overhead ~every ~clock ~words names =
  let names = Array.of_list names in
  let n = Array.length names in
  let z () = Array.make n 0 and f () = Array.make max_depth 0 in
  {
    clock;
    words;
    ovh = overhead;
    names;
    every;
    rng = 0x2545F4914F6CDD1D;
    countdown = 0;
    skip = 0;
    untimed = 0;
    k_calls = z ();
    k_timed = z ();
    k_self_ns = z ();
    k_self_w = z ();
    k_incl_ns = z ();
    k_children = z ();
    k_desc = z ();
    k_hist = Array.init n (fun _ -> new_hist ());
    d1_calls = z ();
    d1_timed = z ();
    d1_incl_ns = z ();
    d1_incl_w = z ();
    d1_desc = z ();
    f_kind = f ();
    f_t0 = f ();
    f_w0 = f ();
    f_child_ns = f ();
    f_child_w = f ();
    f_children = f ();
    f_desc = f ();
    depth = 0;
  }
  |> fun t ->
  t.countdown <- gap t;
  t

let create ?(overhead = no_overhead) ?(sample_every = 1) ~clock ~words ~root
    names =
  if sample_every < 1 then invalid_arg "Tracer.create: sample_every < 1";
  make ~overhead ~every:sample_every ~clock ~words (root :: names)

let kind t name =
  let rec find i =
    if i >= Array.length t.names then
      invalid_arg ("Tracer.kind: unregistered span kind " ^ name)
    else if String.equal t.names.(i) name then i
    else find (i + 1)
  in
  find 0

let root _ = 0
let overhead t = t.ovh
let set_overhead t o = t.ovh <- o

let sampled t =
  t.countdown <- t.countdown - 1;
  if t.countdown > 0 then false
  else begin
    t.countdown <- gap t;
    true
  end

(* The words counter is read outside the clock reads, so the clock reads
   sit as tightly as possible around the measured work. *)
let push t k =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Tracer.enter: spans nested too deep";
  t.f_kind.(d) <- k;
  t.f_child_ns.(d) <- 0;
  t.f_child_w.(d) <- 0;
  t.f_children.(d) <- 0;
  t.f_desc.(d) <- 0;
  t.depth <- d + 1;
  t.f_w0.(d) <- t.words ();
  t.f_t0.(d) <- t.clock ()

let[@inline never] enter t k =
  t.k_calls.(k) <- t.k_calls.(k) + 1;
  if t.skip > 0 then begin
    t.skip <- t.skip + 1;
    t.untimed <- t.untimed + 1
  end
  else if Int.equal t.depth 0 then
    if Int.equal k 0 then push t k
    else invalid_arg "Tracer.enter: only the root kind opens at depth 0"
  else if Int.equal k 0 then invalid_arg "Tracer.enter: the root cannot nest"
  else if Int.equal t.depth 1 then begin
    t.d1_calls.(k) <- t.d1_calls.(k) + 1;
    if sampled t then push t k
    else begin
      t.skip <- 1;
      t.untimed <- t.untimed + 1
    end
  end
  else push t k

let pop t k =
  let t1 = t.clock () in
  let w1 = t.words () in
  let d = t.depth - 1 in
  if d < 0 || not (Int.equal t.f_kind.(d) k) then
    invalid_arg "Tracer.exit: unbalanced span";
  t.depth <- d;
  let dur = t1 - t.f_t0.(d) and dw = w1 - t.f_w0.(d) in
  let desc = t.f_desc.(d) in
  t.k_timed.(k) <- t.k_timed.(k) + 1;
  t.k_self_ns.(k) <- t.k_self_ns.(k) + dur - t.f_child_ns.(d);
  t.k_self_w.(k) <- t.k_self_w.(k) + dw - t.f_child_w.(d);
  t.k_incl_ns.(k) <- t.k_incl_ns.(k) + dur;
  t.k_children.(k) <- t.k_children.(k) + t.f_children.(d);
  t.k_desc.(k) <- t.k_desc.(k) + desc;
  let true_ps = (dur * 1000) - (t.ovh.span_ps / 2) - (desc * t.ovh.span_ps) in
  Log_histogram.observe_ns t.k_hist.(k) (Int.max 0 (true_ps / 1000));
  if d > 0 then begin
    let p = d - 1 in
    t.f_child_ns.(p) <- t.f_child_ns.(p) + dur;
    t.f_child_w.(p) <- t.f_child_w.(p) + dw;
    t.f_children.(p) <- t.f_children.(p) + 1;
    t.f_desc.(p) <- t.f_desc.(p) + desc + 1
  end;
  if Int.equal d 1 then begin
    t.d1_timed.(k) <- t.d1_timed.(k) + 1;
    t.d1_incl_ns.(k) <- t.d1_incl_ns.(k) + dur;
    t.d1_incl_w.(k) <- t.d1_incl_w.(k) + dw;
    t.d1_desc.(k) <- t.d1_desc.(k) + desc
  end

let[@inline never] exit t k =
  if t.skip > 0 then t.skip <- t.skip - 1 else pop t k

let median_int xs =
  let a = Array.of_list xs in
  Array.sort Int.compare a;
  a.(Array.length a / 2)

(* Enough calls per round that the two clock reads around them are
   noise, and few enough rounds to recalibrate before every traced rep. *)
let spans = 10_000
let rounds = 5

let calibrate ?(bare = ignore) ?probed ~clock ~words ~root names () =
  let probed =
    match probed with
    | Some p -> p
    | None ->
        fun t ->
          fun () ->
            enter t 1;
            exit t 1
  in
  let per_call f =
    let w0 = words () in
    let t0 = clock () in
    for _ = 1 to spans do
      f ()
    done;
    let t1 = clock () in
    let w1 = words () in
    ((t1 - t0) * 1000 / spans, (w1 - w0) / spans)
  in
  (* per-call cost of [probed] over [bare] under a root, its spans timed
     one in [every] (0: never) *)
  let cost every =
    let t = make ~overhead:no_overhead ~every ~clock ~words (root :: names) in
    let f = probed t in
    enter t 0;
    let ps, w = per_call f in
    exit t 0;
    let bare_ps, bare_w = per_call bare in
    (ps - bare_ps, w - bare_w)
  in
  let median_of every proj =
    median_int (List.init rounds (fun _ -> proj (cost every)))
  in
  {
    span_ps = median_of 1 fst;
    span_words = median_of 1 snd;
    skip_ps = median_of 0 fst;
  }

let calls t k = t.k_calls.(k)
let span_ns t = Float.of_int t.ovh.span_ps /. 1000.0
let ratio a b = if Int.equal b 0 then 0.0 else Float.of_int a /. Float.of_int b

(* Mean overhead-free inclusive time (or words) of the timed calls made
   directly under the root. *)
let d1_mean ~incl ~per_span t k =
  if Int.equal t.d1_timed.(k) 0 then 0.0
  else
    (Float.of_int incl.(k)
    -. (per_span
       *. ((0.5 *. Float.of_int t.d1_timed.(k)) +. Float.of_int t.d1_desc.(k))))
    /. Float.of_int t.d1_timed.(k)

(* Timed self sum, less half a span per call and per timed child; for
   the root also less the untimed children (estimated from the timed
   ones) and the cost of every untimed span, otherwise scaled up from
   the timed calls. *)
let estimate_self ~self ~incl ~per_span ~per_skip t k =
  let timed =
    Float.of_int self.(k)
    -. (per_span *. 0.5 *. Float.of_int (t.k_timed.(k) + t.k_children.(k)))
  in
  if Int.equal k 0 then begin
    let untimed_children = ref 0.0 in
    for j = 1 to Array.length t.names - 1 do
      untimed_children :=
        !untimed_children
        +. (Float.of_int (t.d1_calls.(j) - t.d1_timed.(j))
           *. d1_mean ~incl ~per_span t j)
    done;
    timed -. !untimed_children -. (per_skip *. Float.of_int t.untimed)
  end
  else timed *. ratio t.k_calls.(k) t.k_timed.(k)

let self_ns t k =
  estimate_self ~self:t.k_self_ns ~incl:t.d1_incl_ns ~per_span:(span_ns t)
    ~per_skip:(Float.of_int t.ovh.skip_ps /. 1000.0)
    t k

let self_words t k =
  estimate_self ~self:t.k_self_w ~incl:t.d1_incl_w
    ~per_span:(Float.of_int t.ovh.span_words) ~per_skip:0.0 t k

let incl_ns t k =
  (Float.of_int t.k_incl_ns.(k)
  -. (span_ns t
     *. ((0.5 *. Float.of_int t.k_timed.(k)) +. Float.of_int t.k_desc.(k))))
  *. ratio t.k_calls.(k) t.k_timed.(k)

let quantile_ns t k q =
  let h = t.k_hist.(k) in
  if Int.equal (Log_histogram.count h) 0 then 0.0
  else Log_histogram.quantile h ~q *. 1e9

let total_self_ns t =
  let s = ref 0.0 in
  for k = 0 to Array.length t.names - 1 do
    s := !s +. self_ns t k
  done;
  !s
