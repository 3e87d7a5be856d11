let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = Float.to_int (Gc.minor_words ())

type cfg = { seed : int; seconds : int; smoke : bool; scenarios : string }

let reps cfg ~base =
  if cfg.smoke then 2 else Int.max 2 (((base * cfg.seconds) + 5) / 10)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quantile xs q =
  let n = Array.length xs in
  if Int.equal n 0 then Float.nan
  else
    let a = sorted xs in
    let pos = q *. Float.of_int (n - 1) in
    let i = Float.to_int pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((a.(i + 1) -. a.(i)) *. (pos -. Float.of_int i))

let median xs = quantile xs 0.5
let seconds_since t0 = Float.of_int (now_ns () - t0) *. 1e-9

(* --- the machine's speed -------------------------------------------------- *)

(* On a shared host the machine's speed drifts.  For seconds to minutes
   at a time a neighbour contends for the caches and memory bandwidth,
   and reps run up to twice as slow.  So every timing is taken between
   two runs of [reference], a fixed computation that uses nothing from
   lib/ and slows about the same way, and is scaled to a machine on which
   one [reference] run takes [reference_s] (about its duration on an idle
   2-vCPU VM).  See README.md for how well it tracks. *)
let reference_s = 0.004

(* Both tables sit outside the OCaml heap, so [top_heap_mb] does not see
   them: 256 KB of fixed pseudo-random ints, and 4 MB to stream over. *)
let table =
  lazy
    (let t = Bigarray.(Array1.create int c_layout (1 lsl 15)) in
     let st = ref 88172645463325252 in
     for k = 0 to Bigarray.Array1.dim t - 1 do
       st := !st lxor (!st lsl 13);
       st := !st lxor (!st lsr 7);
       st := !st lxor (!st lsl 17);
       Bigarray.Array1.unsafe_set t k !st
     done;
     t)

let stream = lazy Bigarray.(Array1.create int c_layout (1 lsl 19))

(* The annotation lets the compiler inline the stores. *)
let stream_pass
    (s : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) seed =
  for k = 0 to Bigarray.Array1.dim s - 1 do
    Bigarray.Array1.unsafe_set s k (k + seed)
  done

(* A third of the time random reads with an unpredictable branch each,
   two thirds streaming writes.  Stateless, so every run does the same
   work, and allocation-free, so the GC's state (a minor collection
   running a major slice of a 1 GB heap) does not reach it. *)
let reference () =
  let table = Lazy.force table and s = Lazy.force stream in
  (* untimed, so whatever ran before leaves the stream's cache state the
     same *)
  stream_pass s 0;
  let t0 = now_ns () in
  let st = ref 12345 and acc = ref 0 in
  for _ = 1 to 150_000 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let k = !st land 0x7fff in
    let v = Sys.opaque_identity (Bigarray.Array1.unsafe_get table k) in
    if Int.equal (v land 1) 0 then acc := !acc + v else acc := !acc lxor k
  done;
  for pass = 1 to 6 do
    stream_pass s pass
  done;
  let dt = seconds_since t0 in
  ignore (Sys.opaque_identity !acc);
  dt

(* [dt.(i)] scaled by the mean of the reference runs before and after it. *)
let scaled dt refs =
  Array.mapi
    (fun i d -> d *. reference_s /. (0.5 *. (refs.(i) +. refs.(i + 1))))
    dt

(* Each sample repeats the set-up until 1 ms has passed (once, for a
   longer one) and keeps the mean.  The previous result is dropped and
   collected before a sample starts, so at most one (possibly large) input
   is live at a time. *)
let time_setup ~reps f =
  let last = ref None in
  let refs = Array.make (reps + 1) 0.0 in
  let samples =
    Array.init reps (fun i ->
        last := None;
        Gc.full_major ();
        refs.(i) <- reference ();
        let t0 = now_ns () and n = ref 0 in
        while Int.equal !n 0 || now_ns () - t0 < 1_000_000 do
          last := Some (f ());
          incr n
        done;
        seconds_since t0 /. Float.of_int !n)
  in
  refs.(reps) <- reference ();
  (scaled samples refs, Option.get !last)

type 'o phase = {
  rep_s : float array;
  ref_s : float array;
  outcomes : 'o array;
  words : float;
  minor_gcs : int;
  major_gcs : int;
}

(* [Gc.quick_stat] sums every domain's counters (a joined domain's are
   folded in), so the sharded replay's worker allocations count too; but
   a domain's minor words reach it only at a minor collection, so one is
   forced (after the rep's collection counts are read) to make the word
   count exact. *)
let run_phase ~reps rep =
  let rep_s = Array.make reps 0.0 and ref_s = Array.make (reps + 1) 0.0 in
  let words = ref 0.0 and minor = ref 0 and major = ref 0 in
  let outcomes =
    Array.init reps (fun i ->
        ref_s.(i) <- reference ();
        Gc.full_major ();
        let s0 = Gc.quick_stat () in
        let t0 = now_ns () in
        let o = rep () in
        let t1 = now_ns () in
        let s1 = Gc.quick_stat () in
        Gc.minor ();
        let w1 = (Gc.quick_stat ()).minor_words in
        rep_s.(i) <- Float.of_int (t1 - t0) *. 1e-9;
        words := !words +. (w1 -. s0.minor_words);
        minor := !minor + (s1.minor_collections - s0.minor_collections);
        major := !major + (s1.major_collections - s0.major_collections);
        o)
  in
  ref_s.(reps) <- reference ();
  {
    rep_s;
    ref_s;
    outcomes;
    words = !words;
    minor_gcs = !minor;
    major_gcs = !major;
  }

let failures ~check outcomes =
  Array.fold_left (fun n o -> if check o then n else n + 1) 0 outcomes

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let top_heap_mb () =
  Float.of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let total_pkts ~pkts_per_rep p =
  Float.of_int (pkts_per_rep * Array.length p.rep_s)

let e2e_metrics ~setup_s ~pkts_per_rep p =
  [
    metric "setup_s" "s" (median setup_s);
    metric "pkts_per_s" "pkt/s"
      (Float.of_int pkts_per_rep /. median (scaled p.rep_s p.ref_s));
    metric "minor_words_per_pkt" "words"
      (p.words /. total_pkts ~pkts_per_rep p);
    metric "top_heap_mb" "MB" (top_heap_mb ());
  ]

let phase_layers ~pkts_per_rep p =
  let kpkts = total_pkts ~pkts_per_rep p /. 1000.0 in
  [
    metric "run_s_p90" "s" (quantile p.rep_s 0.9);
    metric "host.reference_ms" "ms" (median p.ref_s *. 1e3);
    metric "gc.minor_collections_per_kpkt" "1/kpkt"
      (Float.of_int p.minor_gcs /. kpkts);
    metric "gc.major_collections_per_kpkt" "1/kpkt"
      (Float.of_int p.major_gcs /. kpkts);
  ]

(* The runtime's recommended domain count is the online CPU count (capped
   at its domain limit), so it serves as [nproc]. *)
let fingerprint cfg =
  Printf.sprintf
    "{\"nproc\":%d,\"ocaml_version\":%S,\"flambda\":%b,\"word_size\":%d,\"seed\":%d}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_info.flambda Sys.word_size cfg.seed

let json_metrics ms =
  ms
  |> List.map (fun m ->
         if not (Float.is_finite m.value) then
           invalid_arg ("Harness.json_metrics: non-finite " ^ m.name);
         Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" m.name m.value
           m.unit)
  |> String.concat ","
  |> Printf.sprintf "{%s}"

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}" correct
    attempted failed (json_metrics ms)
