(* One kernel, two readers.

   [Cost] runs the recurrences of Section IV on "live rows".  The
   pivot scan for D(i) on server s reads the row of matrix A at
   q = p(i), s's latest request, and from that row, per server k, only
   D and B of the first request on k after q.  So server j's live row
   is the row of A it will read at its next request: the row of q_j,
   j's latest request.  For it we keep C(q_j), B(q_j) and t(q_j) in
   the [row_*] columns, and in [slot] (row-major, m x m pairs,
   interleaved) the pair (D(kappa), B(kappa)) for kappa = the first
   request on server k after q_j.  A slot with no such request yet (or
   one that will never be read, because k had no request at or before
   q_j) holds (infinity, 0.0): its candidate D + base - B is then
   infinite and never beats the finite D_prev seed, so the scan needs
   no emptiness test.

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

   The scalars of the last request (its time, C, B, D) live in the
   flat [sc] array rather than in mutable float fields: a float stored
   into a field of this mixed record would be boxed on every push.

   [t] is a [Cost.t] plus an append-only log of what each push
   decided: server, p(i), t, C, D, B and the pivot code of D(i).
   Everything else is derived from it with the same float operations
   the kernel used (sigma_i and b_i from t and p(i); the C choice from
   C(i) = D(i)), so the backward walk of [schedule] needs O(n) state,
   not the O(mn) matrix A.  The kernel reports which column won the
   scan; [succ], a table of request indices laid out like [slot] and
   resolved by the same rows, turns that column into kappa.  Keeping
   it out of the kernel spares [Cost.push] a store per resolved row.
   Both live in this one compilation unit: the dev profile compiles
   with -opaque and this toolchain has no flambda, so a float read
   through a function of another module is boxed, whereas [push]
   reads [sc] directly.

   [schedule] conses the walk's pieces straight into the lists
   [Schedule.make] sorts, and memoises the result keyed on the prefix
   length: the log is append-only, so repeated calls between pushes
   return the same physically-equal value without re-walking. *)

module Obs = Dcache_obs.Obs

(* pivot codes of D(i): a pivot kappa >= 1 (a strict successor, never
   the boundary request 0), or one of these *)
let d_undefined = -2 (* first request on its server: D(i) = infinity *)

let d_prev = -1 (* the C(p(i)) seed won *)

module Cost = struct
  let c_push = Obs.counter "streaming_cost.push"

  (* [sc] slots *)
  let k_time = 0 (* t(n) *)

  let k_c = 1 (* C(n) *)

  let k_b = 2 (* B(n) *)

  let k_d = 3 (* D(n), the running minimum of its scan *)

  type t = {
    model : Cost_model.t;
    m : int;
    lam_eff : float;
    mutable n : int;
    mutable prev : int; (* p(n), -1 on a server's first request *)
    (* D(n)'s scan: the winning column, or d_prev / d_undefined *)
    mutable pivot : int;
    (* rows the last push resolved: ranks 1 .. resolved of [order] *)
    mutable resolved : int;
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
    if m < 1 then invalid_arg "Streaming_dp.create: m must be at least 1";
    let last = Array.make m (-1) in
    (* boundary request r_0 = (s^1, 0) with C = B = 0 *)
    last.(0) <- 0;
    {
      model;
      m;
      lam_eff = Float.min model.Cost_model.lambda model.Cost_model.upload;
      n = 0;
      prev = -1;
      pivot = d_undefined;
      resolved = 0;
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

  (* One request through the recurrences, unprobed: [push] below and
     the logging [push] of the enclosing module each add their own
     probes. *)
  let step t ~server ~time =
    let sc = t.sc in
    if server < 0 || server >= t.m then invalid_arg "Streaming_dp.push: server out of range";
    if not (Float.is_finite time) then invalid_arg "Streaming_dp.push: non-finite time";
    if time <= sc.(k_time) then invalid_arg "Streaming_dp.push: times must strictly increase";
    let m = t.m in
    let mu = t.model.Cost_model.mu in
    let q = t.last.(server) in
    let sigma = if q >= 0 then time -. t.row_t.(server) else infinity in
    let bi = Float.min t.lam_eff (mu *. sigma) in
    let b_prev = sc.(k_b) in
    (* --- D(i): seed C(p(i)), then one candidate per server from the
       live row of [server], in server order; a strict [<] keeps the
       first of equal candidates *)
    sc.(k_d) <- infinity;
    (* a local, not the [pivot] field: a field store in the loop costs
       ~10% of a push at m = 64 *)
    let pivot = ref d_undefined in
    if q >= 0 then begin
      let base = (mu *. sigma) +. b_prev in
      sc.(k_d) <- t.row_c.(server) +. base -. t.row_b.(server);
      pivot := d_prev;
      let row = server * m in
      for j = 0 to m - 1 do
        let cand = t.slot.(2 * (row + j)) +. base -. t.slot.((2 * (row + j)) + 1) in
        if cand < sc.(k_d) then begin
          sc.(k_d) <- cand;
          pivot := j
        end
      done
    end;
    t.pivot <- !pivot;
    let d_value = sc.(k_d) in
    let b_i = b_prev +. bi in
    (* --- C(i): on a tie the cache branch wins, so C(i) = D(i)
       exactly when it did --- *)
    let step = sc.(k_c) +. (mu *. (time -. sc.(k_time))) +. t.lam_eff in
    if d_value <= step then sc.(k_c) <- d_value else sc.(k_c) <- step;
    (* --- resolve column [server] in the rows waiting on it, the ones
       ranked ahead of it, while moving [server] to the front.  On a
       first request (q < 0) no row is waiting: none saw [server]. --- *)
    t.resolved <- (if q >= 0 then t.rank.(server) else 0);
    for k = t.rank.(server) - 1 downto 0 do
      let j = t.order.(k) in
      if q >= 0 then begin
        let cell = (j * m) + server in
        t.slot.(2 * cell) <- d_value;
        t.slot.((2 * cell) + 1) <- b_i
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
    t.prev <- q;
    t.last.(server) <- i;
    t.row_c.(server) <- sc.(k_c);
    t.row_b.(server) <- b_i;
    t.row_t.(server) <- time;
    sc.(k_time) <- time;
    sc.(k_b) <- b_i;
    t.n <- i
  [@@hot]

  let push t ~server ~time =
    step t ~server ~time;
    if Obs.probe () then Obs.incr c_push
  [@@hot]
end

(* Probe ids are registered once at module init; on the hot path the
   whole probe block sits behind a single [Obs.probe ()] load+branch,
   so the Noop-sink cost of a push is one call (obs_overhead.exe
   asserts 0 extra minor words and bounds the time). *)
let c_push = Obs.counter "streaming_dp.push"
let c_grow = Obs.counter "streaming_dp.grow"
let c_sched_memo = Obs.counter "streaming_dp.schedule_memo"
let sp_grow = Obs.span_name "streaming_dp.grow"
let sp_schedule = Obs.span_name "streaming_dp.schedule"
let sp_push = Obs.span_name "streaming_dp.push"

type t = {
  kernel : Cost.t;
  (* succ.(j*m + k) = the first request on server k after q_j: the
     kappa behind slot (j, k) of the kernel *)
  succ : int array;
  mutable cap : int; (* log rows allocated; rows 0 .. n are used *)
  (* the log, index 0 = the boundary request r_0 *)
  mutable server : int array;
  mutable prev : int array; (* p(i), -1 on a server's first request *)
  mutable pivot : int array; (* pivot code of D(i) *)
  mutable time : float array;
  mutable c : float array;
  mutable d : float array;
  mutable big_b : float array;
  (* reconstruction memo: the log is append-only, so the prefix length
     is a complete key for the schedule *)
  mutable sched_n : int;
  mutable sched : Schedule.t;
}

let initial_cap = 64

let create model ~m =
  let kernel = Cost.create model ~m in
  let cap = initial_cap in
  let server = Array.make cap 0 and prev = Array.make cap 0 and pivot = Array.make cap 0 in
  let d = Array.make cap 0.0 in
  (* boundary request r_0 = (s^1, 0): C = B = 0, no D *)
  prev.(0) <- -1;
  pivot.(0) <- d_undefined;
  d.(0) <- infinity;
  {
    kernel;
    succ = Array.make (m * m) 0;
    cap;
    server;
    prev;
    pivot;
    time = Array.make cap 0.0;
    c = Array.make cap 0.0;
    d;
    big_b = Array.make cap 0.0;
    sched_n = 0;
    sched = Schedule.make ~caches:[] ~transfers:[];
  }

let n t = t.kernel.Cost.n

let check t i name =
  if i < 0 || i > n t then invalid_arg ("Streaming_dp." ^ name ^ ": index out of bounds")

let cost t = t.c.(n t)

let cost_at t i =
  check t i "cost_at";
  t.c.(i)

let semi_cost_at t i =
  check t i "semi_cost_at";
  t.d.(i)

(* b_i exactly as [Cost.step] computed it *)
let marginal_at t i =
  check t i "marginal_at";
  if i = 0 then 0.0
  else
    let p = t.prev.(i) in
    let sigma = if p >= 0 then t.time.(i) -. t.time.(p) else infinity in
    Float.min t.kernel.Cost.lam_eff (t.kernel.Cost.model.Cost_model.mu *. sigma)

let running_at t i =
  check t i "running_at";
  t.big_b.(i)

let pivot_at t i =
  check t i "pivot_at";
  let v = t.pivot.(i) in
  if v >= 0 then Some v else None

(* Doubles every log column.  Amortised over pushes; the blocks it
   allocates are major-heap sized long before n is interesting. *)
let grow t =
  Obs.spanned sp_grow @@ fun () ->
  let cap = 2 * t.cap in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.cap;
    b
  in
  t.server <- extend t.server 0;
  t.prev <- extend t.prev 0;
  t.pivot <- extend t.pivot 0;
  t.time <- extend t.time 0.0;
  t.c <- extend t.c 0.0;
  t.d <- extend t.d 0.0;
  t.big_b <- extend t.big_b 0.0;
  t.cap <- cap;
  Obs.incr c_grow

let push t ~server ~time =
  (* hand-rolled span timing: [Obs.spanned] would allocate a closure,
     and this path's Noop budget is exactly 0 words.  Two probe loads
     per push (entry and exit) — bench_cases.probes_per_push. *)
  let t0 = if Obs.probe () then Obs.now_ns () else min_int in
  let k = t.kernel in
  Cost.step k ~server ~time;
  let i = k.Cost.n in
  if i = t.cap then grow t;
  let sc = k.Cost.sc in
  t.server.(i) <- server;
  t.prev.(i) <- k.Cost.prev;
  let m = k.Cost.m and col = k.Cost.pivot in
  t.pivot.(i) <- (if col >= 0 then t.succ.((server * m) + col) else col);
  (* r_i is the kappa of column [server] in the rows the step resolved,
     which it has just shifted to ranks 1 .. resolved *)
  for r = 1 to k.Cost.resolved do
    t.succ.((k.Cost.order.(r) * m) + server) <- i
  done;
  t.time.(i) <- sc.(Cost.k_time);
  t.c.(i) <- sc.(Cost.k_c);
  t.d.(i) <- sc.(Cost.k_d);
  t.big_b.(i) <- sc.(Cost.k_b);
  if Obs.probe () then begin
    Obs.incr c_push;
    if t0 <> min_int then Obs.observe_span_ns sp_push (Obs.now_ns () - t0)
  end
[@@hot]

(* -- schedule reconstruction ------------------------------------------ *)

let schedule t =
  if t.sched_n = n t then begin
    Obs.incr c_sched_memo;
    t.sched
  end
  else
    Obs.spanned sp_schedule @@ fun () ->
    let model = t.kernel.Cost.model in
    let mu = model.Cost_model.mu and lam_eff = t.kernel.Cost.lam_eff in
    (* each request index yields at most one piece of each kind and
       times strictly increase, so no two pieces share a sort key and
       the order they are consed in cannot change the sorted result *)
    let caches = ref [] and transfers = ref [] in
    let add_cache server from_time to_time =
      if to_time > from_time then caches := { Schedule.server; from_time; to_time } :: !caches
    in
    (* upload-vs-lambda is a property of the model, not of the walk
       step: decide the transfer source once, outside the loop *)
    let external_src = model.Cost_model.upload < model.Cost_model.lambda in
    let add_transfer src_server dst time =
      let src = if external_src then Schedule.From_external else Schedule.From_server src_server in
      transfers := { Schedule.src; dst; time } :: !transfers
    in
    let serve_marginal source lo hi =
      for h = lo to hi do
        let sh = t.server.(h) and ph = t.prev.(h) in
        (* sigma_h as [Cost.step] computed it *)
        let sigma = if ph >= 0 then t.time.(h) -. t.time.(ph) else infinity in
        if lam_eff <= mu *. sigma then add_transfer source sh t.time.(h)
        else add_cache sh t.time.(ph) t.time.(h)
      done
    in
    (* [walk_c i]: the walk from C(i); [walk_d i]: from D(i), where
       r_i is served by its own cache *)
    let rec walk_c i =
      if i > 0 then
        (* C(i) = D(i) bit for bit exactly when the cache branch won;
           on a same-server step that branch mathematically ties or
           wins, so take it to avoid a degenerate self-transfer *)
        if t.c.(i) = t.d.(i) || t.server.(i - 1) = t.server.(i) then walk_d i
        else begin
          add_cache t.server.(i - 1) t.time.(i - 1) t.time.(i);
          add_transfer t.server.(i - 1) t.server.(i) t.time.(i);
          walk_c (i - 1)
        end
    and walk_d i =
      let q = t.prev.(i) and pivot = t.pivot.(i) in
      assert (q >= 0 && pivot <> d_undefined);
      add_cache t.server.(i) t.time.(q) t.time.(i);
      if pivot = d_prev then begin
        serve_marginal t.server.(i) (q + 1) (i - 1);
        walk_c q
      end
      else begin
        serve_marginal t.server.(i) (pivot + 1) (i - 1);
        walk_d pivot
      end
    in
    walk_c (n t);
    let s = Schedule.make ~caches:!caches ~transfers:!transfers in
    t.sched <- s;
    t.sched_n <- n t;
    s

let to_sequence t =
  Sequence.create_exn ~m:t.kernel.Cost.m
    (Array.init (n t) (fun i -> { Request.server = t.server.(i + 1); time = t.time.(i + 1) }))
