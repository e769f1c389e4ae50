module Obs = Dcache_obs.Obs
module Pq = Dcache_prelude.Pqueue

(* registered once; probed in bulk at end-of-run so the request loop
   pays nothing for them (the epoch histogram is the one in-loop
   probe, and it fires only on the rare epoch-reset branch) *)
let c_serves = Obs.counter "online_sc.serves"
let c_transfers = Obs.counter "online_sc.transfers"
let c_evictions = Obs.counter "online_sc.evictions"
let c_epoch_resets = Obs.counter "online_sc.epoch_resets"

let h_epoch_transfers =
  Obs.histogram "online_sc.epoch_transfers"
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]

let sp_run = Obs.span_name "online_sc.run"

type serve_kind = By_cache | By_transfer of int

type event =
  | Served of { index : int; server : int; time : float; kind : serve_kind }
  | Expired of { server : int; time : float }
  | Extended of { server : int; time : float; new_expiry : float }
  | Epoch_reset of { time : float; kept : int }

type segment = {
  seg_server : int;
  activated : float;
  deactivated : float;
  by_transfer : bool;
  tail : float;
}

type run = {
  caching_cost : float;
  transfer_cost : float;
  total_cost : float;
  num_transfers : int;
  num_epochs : int;
  serves : serve_kind array;
  events : event list;
  segments : segment list;
}

let competitive_bound = 3.0

type state = {
  delta_t : float;  (* base window: the last-copy extension quantum *)
  window_for : server:int -> time:float -> float;  (* per-refresh window *)
  mu : float;
  active : bool array;
  expiry : float array;
  activated : float array;  (* activation time of the live copy *)
  last_use : float array;  (* last serve/refresh time of the live copy *)
  stamp : int array;  (* refresh recency, for the source/target tie-break *)
  from_transfer : bool array;
  queue : Pq.t;  (* expiration events, tuple-free for the hot loop *)
  mutable live : int;  (* the paper's counter c *)
  mutable act_sum : float;  (* sum of activation times over live copies *)
  mutable next_stamp : int;
  mutable caching : float;
  mutable segments : segment list;
  mutable events : event list;
  record : bool;
}

let log st e = if st.record then st.events <- e :: st.events

let refresh st server time =
  st.expiry.(server) <- time +. st.window_for ~server ~time;
  st.last_use.(server) <- time;
  st.stamp.(server) <- st.next_stamp;
  st.next_stamp <- st.next_stamp + 1;
  Pq.push st.queue ~time:st.expiry.(server) ~server

(* [act_sum] tracks the sum of activation times over the currently
   live copies, so the caching cost accrued up to any instant [t] is
   [caching + mu * (live * t - act_sum)] — the O(1) readback behind
   [Incremental.cost_so_far].  Activation and deactivation are the
   only places a copy enters or leaves the live set. *)
let activate st server time ~by_transfer =
  st.active.(server) <- true;
  st.activated.(server) <- time;
  st.from_transfer.(server) <- by_transfer;
  st.live <- st.live + 1;
  st.act_sum <- st.act_sum +. time;
  refresh st server time

let deactivate st server time =
  st.active.(server) <- false;
  st.live <- st.live - 1;
  st.act_sum <- st.act_sum -. st.activated.(server);
  st.caching <- st.caching +. (st.mu *. (time -. st.activated.(server)));
  st.segments <-
    {
      seg_server = server;
      activated = st.activated.(server);
      deactivated = time;
      by_transfer = st.from_transfer.(server);
      tail = time -. st.last_use.(server);
    }
    :: st.segments

let valid st time server = st.active.(server) && st.expiry.(server) = time

(* Process expirations strictly before [limit].  Tuple-free: the heap
   minimum is read through [min_time]/[min_server] so the fast path
   (nothing expired) touches no options and no pairs. *)
let rec drain st limit =
  if (not (Pq.is_empty st.queue)) && Pq.min_time st.queue < limit then begin
    let time = Pq.min_time st.queue in
    let server = Pq.min_server st.queue in
    Pq.drop_min st.queue;
    if valid st time server then begin
      (* a simultaneous valid partner can only be the other half of a
         source/target pair refreshed by one transfer; -1 = none *)
      let partner =
        if
          (not (Pq.is_empty st.queue))
          && Pq.min_time st.queue = time
          && Pq.min_server st.queue <> server
          && valid st time (Pq.min_server st.queue)
        then begin
          let other = Pq.min_server st.queue in
          Pq.drop_min st.queue;
          other
        end
        else -1
      in
      if partner >= 0 then begin
        let other = partner in
        if st.live > 2 then begin
          deactivate st server time;
          deactivate st other time;
          log st (Expired { server; time });
          log st (Expired { server = other; time })
        end
        else begin
          (* the last two copies: drop the source, keep the target *)
          let source, target =
            if st.stamp.(server) > st.stamp.(other) then (other, server) else (server, other)
          in
          deactivate st source time;
          log st (Expired { server = source; time });
          st.expiry.(target) <- time +. st.delta_t;
          Pq.push st.queue ~time:st.expiry.(target) ~server:target;
          log st (Extended { server = target; time; new_expiry = st.expiry.(target) })
        end
      end
      else if st.live > 1 then begin
        deactivate st server time;
        log st (Expired { server; time })
      end
      else begin
        (* last copy anywhere: extend.  Consecutive extensions
           across an idle gap collapse into one jump of
           ceil((limit - t) / delta_t) windows — no observable
           difference, since nothing else can happen while a
           single copy idles. *)
        let gaps = Float.ceil ((limit -. time) /. st.delta_t) in
        let gaps = Float.max gaps 1.0 in
        st.expiry.(server) <- time +. (gaps *. st.delta_t);
        Pq.push st.queue ~time:st.expiry.(server) ~server;
        log st (Extended { server; time; new_expiry = st.expiry.(server) })
      end
    end;
    drain st limit
  end

(* most recently refreshed live copy, tail-recursively — the hot loop
   calls this on the rare fallback path, so it must not close over
   anything *)
let rec most_recent_live st m k best =
  if k >= m then best
  else if st.active.(k) && (best < 0 || st.stamp.(k) > st.stamp.(best)) then
    most_recent_live st m (k + 1) k
  else most_recent_live st m (k + 1) best

module Incremental = struct
  type nonrec t = {
    st : state;
    model : Cost_model.t;
    m : int;
    epoch_size : int;
    mutable n : int;  (* requests fed so far *)
    mutable last_time : float;
    mutable num_transfers : int;
    mutable epoch_transfers : int;
    mutable num_epochs : int;  (* completed epoch resets *)
    mutable last_copy_server : int;
    (* serve log without per-request boxing: [-1] = by cache, else the
       transfer source; materialised as [serve_kind array] in [finish] *)
    mutable serves : int array;
    mutable finished : bool;
  }

  let create ?(epoch_size = max_int) ?(record_events = false) ?window ?window_policy model ~m =
    if epoch_size < 1 then invalid_arg "Online_sc: epoch_size must be positive";
    if m < 1 then invalid_arg "Online_sc: m must be positive";
    let delta_t =
      match window with
      | None -> Cost_model.delta_t model
      | Some w ->
          if not (w > 0.) then invalid_arg "Online_sc: window must be positive";
          w
    in
    let window_for =
      match window_policy with
      | None -> fun ~server:_ ~time:_ -> delta_t
      | Some f ->
          fun ~server ~time ->
            let w = f ~server ~time in
            if not (w > 0.) then invalid_arg "Online_sc: window_policy must be positive";
            w
    in
    let st =
      {
        delta_t;
        window_for;
        mu = model.Cost_model.mu;
        active = Array.make m false;
        expiry = Array.make m 0.0;
        activated = Array.make m 0.0;
        last_use = Array.make m 0.0;
        stamp = Array.make m 0;
        from_transfer = Array.make m false;
        queue = Pq.create ();
        live = 0;
        act_sum = 0.0;
        next_stamp = 1;
        caching = 0.0;
        segments = [];
        events = [];
        record = record_events;
      }
    in
    activate st 0 0.0 ~by_transfer:false;
    {
      st;
      model;
      m;
      epoch_size;
      n = 0;
      last_time = 0.0;
      num_transfers = 0;
      epoch_transfers = 0;
      num_epochs = 0;
      last_copy_server = 0;
      serves = Array.make 16 (-1);
      finished = false;
    }

  let n t = t.n
  let transfers_so_far t = t.num_transfers

  (* O(1): the closed-segment cost lives in [st.caching]; the still-open
     segments contribute mu * (live * now - act_sum). *)
  let cost_so_far t =
    let st = t.st in
    let caching = st.caching +. (st.mu *. ((float_of_int st.live *. t.last_time) -. st.act_sum)) in
    Cost_model.add t.model ~caching ~transfers:t.num_transfers

  let feed t ~server ~time =
    if t.finished then invalid_arg "Online_sc.Incremental.feed: state already finished";
    if server < 0 || server >= t.m then invalid_arg "Online_sc.Incremental.feed: server out of range";
    if not (time > t.last_time) then
      invalid_arg "Online_sc.Incremental.feed: times must be strictly increasing";
    let st = t.st in
    let j = server and ti = time in
    drain st ti;
    let i = t.n + 1 in
    if i >= Array.length t.serves then begin
      (* amortised doubling of the serve log: O(1) per request *)
      let grown = Array.make (2 * Array.length t.serves) (-1) in
      Array.blit t.serves 0 grown 0 (Array.length t.serves);
      t.serves <- grown
    end;
    if st.active.(j) && st.expiry.(j) >= ti then begin
      (* live local copy: serve from cache and renew its window *)
      refresh st j ti;
      t.serves.(i) <- -1;
      log st (Served { index = i; server = j; time = ti; kind = By_cache })
    end
    else begin
      (* Transfer from the most recent copy.  Under the paper's
         constant window it is always alive; a variable window_policy
         can outlive it elsewhere, so fall back to the most recently
         refreshed live copy (one always exists: the last copy is
         never dropped). *)
      let src =
        if st.active.(t.last_copy_server) then t.last_copy_server
        else most_recent_live st t.m 0 (-1)
      in
      assert (src >= 0 && st.active.(src));
      t.num_transfers <- t.num_transfers + 1;
      t.epoch_transfers <- t.epoch_transfers + 1;
      refresh st src ti;
      activate st j ti ~by_transfer:true;
      t.serves.(i) <- src;
      log st (Served { index = i; server = j; time = ti; kind = By_transfer src })
    end;
    t.last_copy_server <- j;
    t.n <- i;
    t.last_time <- ti;
    if t.epoch_transfers >= t.epoch_size then begin
      if Obs.probe () then Obs.observe h_epoch_transfers (float_of_int t.epoch_transfers);
      for k = 0 to t.m - 1 do
        if k <> j && st.active.(k) then begin
          (* dcache-sema: allow S1 — epoch resets are rare by construction (every epoch_size transfers); the closed segments are the run's output *)
          deactivate st k ti;
          (* dcache-sema: allow S1 — epoch-reset event cons, rare and guarded by [record_events] *)
          log st (Expired { server = k; time = ti })
        end
      done;
      t.epoch_transfers <- 0;
      t.num_epochs <- t.num_epochs + 1;
      log st (Epoch_reset { time = ti; kept = j })
    end
  [@@hot]

  let finish ?horizon t =
    if t.finished then invalid_arg "Online_sc.Incremental.finish: state already finished";
    let horizon =
      match horizon with
      | None -> t.last_time
      | Some h ->
          if h < t.last_time then
            invalid_arg "Online_sc.Incremental.finish: horizon before the last request";
          h
    in
    t.finished <- true;
    let st = t.st in
    (* truncate surviving copies at the horizon *)
    for k = 0 to t.m - 1 do
      if st.active.(k) then deactivate st k horizon
    done;
    (* bulk counter flush: one probe for the whole run, nothing in the
       request loop (evictions = closed cache segments) *)
    if Obs.probe () then begin
      Obs.add c_serves t.n;
      Obs.add c_transfers t.num_transfers;
      Obs.add c_epoch_resets t.num_epochs;
      Obs.add c_evictions (List.length st.segments)
    end;
    let serves =
      Array.init (t.n + 1) (fun i ->
          if i = 0 then By_cache
          else
            match t.serves.(i) with
            | -1 -> By_cache
            | src -> By_transfer src)
    in
    (* transfers all cost lambda: count them and multiply once, instead
       of folding +. lambda per request (exact, and S4-clean) *)
    {
      caching_cost = st.caching;
      transfer_cost = float_of_int t.num_transfers *. t.model.Cost_model.lambda;
      total_cost = Cost_model.add t.model ~caching:st.caching ~transfers:t.num_transfers;
      num_transfers = t.num_transfers;
      num_epochs = t.num_epochs + 1;
      serves;
      events = List.rev st.events;
      segments = List.rev st.segments;
    }
end

let run ?epoch_size ?record_events ?window ?window_policy model seq =
  Obs.spanned sp_run @@ fun () ->
  let n = Sequence.n seq in
  let inc =
    Incremental.create ?epoch_size ?record_events ?window ?window_policy model ~m:(Sequence.m seq)
  in
  for i = 1 to n do
    Incremental.feed inc ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
  done;
  Incremental.finish inc ~horizon:(Sequence.horizon seq)
[@@hot]

let schedule_of_run seq (run : run) =
  let caches =
    List.filter_map
      (fun s ->
        if s.deactivated > s.activated then
          Some { Schedule.server = s.seg_server; from_time = s.activated; to_time = s.deactivated }
        else None)
      run.segments
  in
  let transfers = ref [] in
  for i = 1 to Sequence.n seq do
    match run.serves.(i) with
    | By_cache -> ()
    | By_transfer src ->
        transfers :=
          {
            Schedule.src = Schedule.From_server src;
            dst = Sequence.server seq i;
            time = Sequence.time seq i;
          }
          :: !transfers
  done;
  Schedule.make ~caches ~transfers:!transfers
