open Dcache_core

type t = {
  rows : int;
  cols : int;
  adjacency : (int * float) list array;  (* indexed by dense vertex id *)
  request_rows : int array;  (* row of the request vertex per column *)
}

let vertex_id ~rows ~row ~col = (col * rows) + row

let make model seq =
  let m = Sequence.m seq and n = Sequence.n seq in
  let rows = m + 1 and cols = n + 1 in
  let adjacency = Array.make (rows * cols) [] in
  let add src dst weight = adjacency.(src) <- (dst, weight) :: adjacency.(src) in
  let request_rows = Array.init cols (fun col -> Sequence.server seq col + 1) in
  for col = 1 to n do
    let dt = Sequence.time seq col -. Sequence.time seq (col - 1) in
    (* cache edges *)
    add (vertex_id ~rows ~row:0 ~col:(col - 1)) (vertex_id ~rows ~row:0 ~col) 0.0;
    for row = 1 to m do
      add
        (vertex_id ~rows ~row ~col:(col - 1))
        (vertex_id ~rows ~row ~col)
        (model.Cost_model.mu *. dt)
    done;
    (* transfer edges: a star on the request vertex of this column *)
    let rq = request_rows.(col) in
    let rq_id = vertex_id ~rows ~row:rq ~col in
    for row = 0 to m do
      if row <> rq then begin
        let other = vertex_id ~rows ~row ~col in
        if row = 0 then add other rq_id model.Cost_model.upload
        else begin
          add other rq_id model.Cost_model.lambda;
          add rq_id other model.Cost_model.lambda
        end
      end
    done
  done;
  { rows; cols; adjacency; request_rows }

let num_rows g = g.rows
let num_cols g = g.cols
let vertex g ~row ~col =
  if row < 0 || row >= g.rows || col < 0 || col >= g.cols then
    invalid_arg "Graph.vertex: out of range";
  vertex_id ~rows:g.rows ~row ~col

let out_edges g v = g.adjacency.(v)

let num_edges g = Array.fold_left (fun acc l -> acc + List.length l) 0 g.adjacency

let dijkstra g ~src =
  let size = Array.length g.adjacency in
  let dist = Array.make size infinity in
  dist.(src) <- 0.0;
  let module Pq = Dcache_prelude.Pqueue in
  let queue = Pq.create () in
  Pq.push queue ~time:0.0 ~server:src;
  while not (Pq.is_empty queue) do
    let d = Pq.min_time queue and v = Pq.min_server queue in
    Pq.drop_min queue;
    if d <= dist.(v) then
      List.iter
        (fun (u, w) ->
          let cand = d +. w in
          if cand < dist.(u) then begin
            dist.(u) <- cand;
            Pq.push queue ~time:cand ~server:u
          end)
        g.adjacency.(v)
  done;
  dist

let request_vertex g col =
  if col < 0 || col >= g.cols then invalid_arg "Graph.request_vertex: out of range";
  vertex_id ~rows:g.rows ~row:g.request_rows.(col) ~col

(* Single-copy optimum: dp.(s) = cheapest cost with requests up to the
   current column served and the lone copy parked on server s. *)
let single_copy_optimum model seq =
  let m = Sequence.m seq and n = Sequence.n seq in
  let mu = model.Cost_model.mu and lambda = model.Cost_model.lambda in
  let dp = Array.make m infinity in
  dp.(0) <- 0.0;
  let next = Array.make m infinity in
  for i = 1 to n do
    let dt = Sequence.time seq i -. Sequence.time seq (i - 1) in
    let dest = Sequence.server seq i in
    Array.fill next 0 m infinity;
    for k = 0 to m - 1 do
      if dp.(k) < infinity then begin
        let carried = dp.(k) +. (mu *. dt) in
        if k = dest then begin
          (* already there *)
          if carried < next.(dest) then next.(dest) <- carried
        end
        else begin
          (* migrate to the request... *)
          if carried +. lambda < next.(dest) then next.(dest) <- carried +. lambda;
          (* ...or bounce a throwaway copy there and back *)
          if carried +. (2.0 *. lambda) < next.(k) then next.(k) <- carried +. (2.0 *. lambda)
        end
      end
    done;
    Array.blit next 0 dp 0 m
  done;
  Array.fold_left Float.min infinity dp
