type edge = { dst : int; cap : float; mutable flow : float; rev : int }
(* [rev] is the index of the paired reverse edge inside [adj.(dst)]. *)

type t = { n : int; adj : edge array array; mutable sizes : int array }
(* Edges are appended per node; [adj] rows grow geometrically. *)

let infinity_cap = Float.max_float /. 4.0

let default_eps = 1e-12

let create ~n =
  if n <= 0 then invalid_arg "Maxflow.create: n <= 0";
  { n; adj = Array.make n [||]; sizes = Array.make n 0 }

let push_edge t node e =
  let row = t.adj.(node) in
  let size = t.sizes.(node) in
  if size = Array.length row then begin
    let row' = Array.make (Stdlib.max 4 (2 * size)) e in
    Array.blit row 0 row' 0 size;
    t.adj.(node) <- row'
  end;
  t.adj.(node).(size) <- e;
  t.sizes.(node) <- size + 1

(* Handles encode (node, index-in-row) so edges can be retrieved in O(1). *)
let handle node idx = (node * 1_000_000) + idx
let handle_node h = h / 1_000_000
let handle_idx h = h mod 1_000_000

let add_edge t ~src ~dst ~cap =
  if cap < 0.0 then invalid_arg "Maxflow.add_edge: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: node out of range";
  let fwd_idx = t.sizes.(src) and rev_idx = t.sizes.(dst) in
  push_edge t src { dst; cap; flow = 0.0; rev = rev_idx };
  push_edge t dst { dst = src; cap = 0.0; flow = 0.0; rev = fwd_idx };
  handle src fwd_idx

let get_edge t h = t.adj.(handle_node h).(handle_idx h)

let flow_on t h = (get_edge t h).flow

let residual e = e.cap -. e.flow

(* Dinic: BFS builds the level graph, DFS sends blocking flows along strictly
   increasing levels.  [iter] holds the per-node current-arc pointers. *)
let max_flow ?(eps = default_eps) t ~src ~dst =
  if src = dst then invalid_arg "Maxflow.max_flow: src = dst";
  let level = Array.make t.n (-1) in
  let iter = Array.make t.n 0 in
  let queue = Queue.create () in
  let bfs () =
    Array.fill level 0 t.n (-1);
    Queue.clear queue;
    level.(src) <- 0;
    Queue.push src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      for i = 0 to t.sizes.(v) - 1 do
        let e = t.adj.(v).(i) in
        if residual e > eps && level.(e.dst) < 0 then begin
          level.(e.dst) <- level.(v) + 1;
          Queue.push e.dst queue
        end
      done
    done;
    level.(dst) >= 0
  in
  let rec dfs v want =
    if v = dst then want
    else begin
      let sent = ref 0.0 in
      while !sent <= eps && iter.(v) < t.sizes.(v) do
        let e = t.adj.(v).(iter.(v)) in
        if residual e > eps && level.(e.dst) = level.(v) + 1 then begin
          let pushed = dfs e.dst (Float.min want (residual e)) in
          if pushed > eps then begin
            e.flow <- e.flow +. pushed;
            let r = t.adj.(e.dst).(e.rev) in
            r.flow <- r.flow -. pushed;
            sent := pushed
          end
          else iter.(v) <- iter.(v) + 1
        end
        else iter.(v) <- iter.(v) + 1
      done;
      !sent
    end
  in
  let total = ref 0.0 in
  while bfs () do
    Array.fill iter 0 t.n 0;
    let continue = ref true in
    while !continue do
      let pushed = dfs src infinity_cap in
      if pushed > eps then total := !total +. pushed else continue := false
    done
  done;
  !total

let residual_coreachable ?(eps = default_eps) t ~dst =
  let seen = Array.make t.n false in
  let queue = Queue.create () in
  seen.(dst) <- true;
  Queue.push dst queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    (* Arc v->u exists in the residual graph iff the edge paired with some
       u->v entry of adj.(u) has positive residual. *)
    for i = 0 to t.sizes.(u) - 1 do
      let e = t.adj.(u).(i) in
      let pair = t.adj.(e.dst).(e.rev) in
      if residual pair > eps && not seen.(e.dst) then begin
        seen.(e.dst) <- true;
        Queue.push e.dst queue
      end
    done
  done;
  seen

let residual_reachable t ~src =
  let eps = default_eps in
  let seen = Array.make t.n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    for i = 0 to t.sizes.(v) - 1 do
      let e = t.adj.(v).(i) in
      if residual e > eps && not seen.(e.dst) then begin
        seen.(e.dst) <- true;
        Queue.push e.dst queue
      end
    done
  done;
  seen
