(* Live-row layout.  Server j's live row is the arena row Streaming_dp
   would read at j's next request: the row of q_j, j's latest request.
   For it we keep C(q_j), B(q_j) and t(q_j) in the [row_*] columns,
   and in [slot] (row-major, m x m pairs, interleaved) the pair
   (D(kappa), B(kappa)) for kappa = the first request on server k
   after q_j.  A slot with no such request yet — or one that will
   never be read, because k had no request at or before q_j — holds
   (infinity, 0.0): its candidate D + base - B is then infinite and
   never beats the finite D_prev seed, so the scan needs no emptiness
   test, exactly as the sentinel does in Streaming_dp.

   A push of r_i on s with q = last.(s) >= 0 resolves column s in
   every row j with q < q_j: those rows saw s's latest request before
   their own, so r_i is the kappa they were waiting for.  Rows with
   q_j < q were resolved by an earlier request on s, and row s itself
   is reset to all-empty for r_i, whose successors do not exist yet.
   Testing q < q_j row by row is a coin-flip branch, so the servers
   are kept in recency order instead ([order], by decreasing q_j):
   the waiting rows are exactly those ranked ahead of s, and the same
   loop that resolves them shifts them back one place as s moves to
   the front.  Servers with no request yet sit at the tail, behind
   every live row.  Interleaving D and B puts each resolved pair on
   one cache line of its (strided) row.

   The scalars of the last request (its time, C, B) and the running D
   minimum live in the flat [sc] array rather than in mutable float
   fields: a float stored into a field of this mixed record would be
   boxed on every push. *)

module Obs = Dcache_obs.Obs

let c_push = Obs.counter "streaming_cost.push"

(* [sc] slots *)
let k_time = 0 (* t(n) *)

let k_c = 1 (* C(n) *)

let k_b = 2 (* B(n) *)

let k_d = 3 (* running minimum of the D(i) scan *)

type t = {
  model : Cost_model.t;
  m : int;
  lam_eff : float;
  mutable n : int;
  last : int array; (* q_j: latest request on server j, -1 = none *)
  order : int array; (* servers by decreasing q_j *)
  rank : int array; (* rank.(order.(k)) = k *)
  row_c : float array; (* C(q_j) *)
  row_b : float array; (* B(q_j) *)
  row_t : float array; (* t(q_j) *)
  (* slot.(2(j*m + k)) = D(first request on k after q_j), and B of
     that request in the next cell *)
  slot : float array;
  sc : float array;
}

let create model ~m =
  if m < 1 then invalid_arg "Streaming_cost.create: m must be at least 1";
  let last = Array.make m (-1) in
  (* boundary request r_0 = (s^1, 0) with C = B = 0 *)
  last.(0) <- 0;
  {
    model;
    m;
    lam_eff = Float.min model.Cost_model.lambda model.Cost_model.upload;
    n = 0;
    last;
    order = Array.init m Fun.id;
    rank = Array.init m Fun.id;
    row_c = Array.make m 0.0;
    row_b = Array.make m 0.0;
    row_t = Array.make m 0.0;
    slot = Array.init (2 * m * m) (fun k -> if k land 1 = 0 then infinity else 0.0);
    sc = [| 0.0; 0.0; 0.0; infinity |];
  }

let n t = t.n
let cost t = t.sc.(k_c)

let push t ~server ~time =
  let sc = t.sc in
  if server < 0 || server >= t.m then invalid_arg "Streaming_cost.push: server out of range";
  if not (Float.is_finite time) then invalid_arg "Streaming_cost.push: non-finite time";
  if time <= sc.(k_time) then invalid_arg "Streaming_cost.push: times must strictly increase";
  let m = t.m in
  let mu = t.model.Cost_model.mu in
  let q = t.last.(server) in
  let sigma = if q >= 0 then time -. t.row_t.(server) else infinity in
  let bi = Float.min t.lam_eff (mu *. sigma) in
  let b_prev = sc.(k_b) in
  (* --- D(i): the same seed, candidates and strict [<] as
     Streaming_dp's pivot scan, read from the live row of [server] *)
  sc.(k_d) <- infinity;
  if q >= 0 then begin
    let base = (mu *. sigma) +. b_prev in
    sc.(k_d) <- t.row_c.(server) +. base -. t.row_b.(server);
    let row = 2 * server * m in
    for j = 0 to m - 1 do
      let cand = t.slot.(row + (2 * j)) +. base -. t.slot.(row + (2 * j) + 1) in
      if cand < sc.(k_d) then sc.(k_d) <- cand
    done
  end;
  let d_value = sc.(k_d) in
  let b_i = b_prev +. bi in
  (* --- C(i) --- *)
  let step = sc.(k_c) +. (mu *. (time -. sc.(k_time))) +. t.lam_eff in
  if d_value <= step then sc.(k_c) <- d_value else sc.(k_c) <- step;
  (* --- resolve column [server] in the rows waiting on it, the ones
     ranked ahead of it, while moving [server] to the front.  On a
     first request (q < 0) no row is waiting: none saw [server]. --- *)
  for k = t.rank.(server) - 1 downto 0 do
    let j = t.order.(k) in
    if q >= 0 then begin
      let cell = 2 * ((j * m) + server) in
      t.slot.(cell) <- d_value;
      t.slot.(cell + 1) <- b_i
    end;
    t.order.(k + 1) <- j;
    t.rank.(j) <- k + 1
  done;
  t.order.(0) <- server;
  t.rank.(server) <- 0;
  (* --- r_i becomes [server]'s live row, with no successors yet --- *)
  let row = 2 * server * m in
  for j = 0 to m - 1 do
    t.slot.(row + (2 * j)) <- infinity;
    t.slot.(row + (2 * j) + 1) <- 0.0
  done;
  let i = t.n + 1 in
  t.last.(server) <- i;
  t.row_c.(server) <- sc.(k_c);
  t.row_b.(server) <- b_i;
  t.row_t.(server) <- time;
  sc.(k_time) <- time;
  sc.(k_b) <- b_i;
  t.n <- i;
  if Obs.probe () then Obs.incr c_push
[@@hot]
