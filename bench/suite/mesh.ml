let ifaces = [ (1, "20Mb"); (2, "10Mb"); (3, "5Mb"); (4, "3Mb") ]
let capacity_bps = 38e6
let flows = 64
let load = 1.2
let queue_capacity = 65536

(* Flow [i] of the fixed multiset: the 15 non-empty subsets of the four
   interfaces, weights {1,2,4} and sizes {200,600,1500}, each cycled with
   its own stride so the combinations mix. *)
let spec i =
  let mask = (i mod 15) + 1 in
  let allowed =
    List.filter_map
      (fun (j, _) -> if mask land (1 lsl (j - 1)) <> 0 then Some j else None)
      ifaces
  in
  let weight = List.nth [ 1; 2; 4 ] (i mod 3) in
  let pkt = List.nth [ 200; 600; 1500 ] (i / 3 mod 3) in
  (allowed, weight, pkt)

let scenario () =
  let specs = Array.init flows spec in
  let rate_kb = load *. capacity_bps /. Float.of_int flows /. 1e3 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "scheduler wfq\n";
  List.iter
    (fun (j, rate) -> Printf.bprintf b "iface %d constant %s\n" j rate)
    ifaces;
  Array.iteri
    (fun i (allowed, weight, pkt) ->
      Printf.bprintf b
        "flow f%02d weight=%d ifaces=%s poisson rate=%gkb pkt=%d\n" i weight
        (String.concat "," (List.map string_of_int allowed))
        rate_kb pkt)
    specs;
  Buffer.add_string b "measure 4 12\nmeasure 12 20\nrun 20\n";
  Buffer.contents b
