(* serve-items: the shipped [dcache serve-metrics --metrics-port 0
   --batches K] with its default item and batch settings, scraped over
   HTTP on a schedule fixed by the seed (open loop, one connection at a
   time).
   Children run back to back until the run's seconds are used. *)

open Dcache_core
module Auditor = Dcache_sim.Auditor
module Generator = Dcache_workload.Generator
module Obs = Dcache_obs.Obs
module Prometheus = Dcache_obs.Prometheus

(* dcache serve-metrics defaults *)
let m = 4
let items = 4
let batch_size = 2000
let per_item = batch_size / items

(* One scrape every [period_ns] on average, scheduled from [warmup_ns]
   after the child's port announcement (its first batches pay one-off
   start-up costs a long-running server does not); latency runs from
   the scheduled send time. *)
let period_ns = 5_000_000
let warmup_ns = 100_000_000

(* --- the child process ---------------------------------------------- *)

type child = {
  pid : int;
  out : Unix.file_descr;  (** its stdout *)
  said : Buffer.t;  (** what it printed after the port announcement *)
  port : int;
  setup_s : float;  (** spawn to port announcement *)
  t_ready : int;
}

let live = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let status = go () in
  live := List.filter (fun p -> p <> pid) !live;
  status

(* Stops whatever child is still running when the benchmark exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid : Unix.process_status))
        !live)

let read_line_fd fd =
  let buf = Buffer.create 80 and byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> Buffer.contents buf
    | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
    | _ ->
        Buffer.add_char buf (Bytes.get byte 0);
        go ()
  in
  go ()

(* "dcache: serving http://127.0.0.1:PORT/metrics" *)
let port_of_banner line =
  match String.rindex_opt line ':' with
  | None -> None
  | Some i ->
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      int_of_string_opt (List.hd (String.split_on_char '/' rest))

let spawn ~dcache ~work_dir ~seed ~batches =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  (* the runtime-events ring file goes to the work dir, not the cwd *)
  let env = Array.append [| "OCAML_RUNTIME_EVENTS_DIR=" ^ work_dir |] (Unix.environment ()) in
  let args =
    [|
      dcache; "serve-metrics"; "--metrics-port"; "0"; "--batches"; string_of_int batches; "--seed";
      string_of_int seed;
    |]
  in
  let t0 = Probe.now () in
  let pid = Unix.create_process_env dcache args env null out_w Unix.stderr in
  live := pid :: !live;
  Unix.close out_w;
  Unix.close null;
  let banner = read_line_fd out_r in
  let t_ready = Probe.now () in
  match port_of_banner banner with
  | None -> failwith (Printf.sprintf "dcache serve-metrics did not announce a port: %S" banner)
  | Some port ->
      {
        pid;
        out = out_r;
        said = Buffer.create 128;
        port;
        setup_s = float_of_int (t_ready - t0) *. 1e-9;
        t_ready;
      }

(* --- scraping ---------------------------------------------------------- *)

(* What the scraper keeps while the child runs; it is parsed and
   checked only after the child has exited, so the timed loop does
   nothing but send, read and wait. *)
type raw = {
  r_latency_ns : int;
  r_lateness_ns : int;
  response : (string, string) result;  (** the reply, or why there was none *)
  hwm : int option;  (** the child's VmHWM just after the reply *)
}

type sample = {
  latency_ns : int;  (** scheduled send time to last byte *)
  lateness_ns : int;  (** scheduled to actual send time *)
  body_bytes : int;
  requests : int;  (** dcache_audit_requests_total *)
  sc_vs_opt : float;
  hits : int;
  misses : int;
  ok : bool;
}

let http_get port =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" in
      ignore (Unix.write_substring sock req 0 (String.length req) : int);
      let buf = Buffer.create 32768 and chunk = Bytes.create 65536 in
      let rec go () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ()
      in
      go ())

let sample_value body name =
  let prefix = name ^ " " in
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           float_of_string_opt
             (String.sub line (String.length prefix) (String.length line - String.length prefix))
         else None)

(* Splits a response into status line and body, and checks it. *)
let parse_scrape raw =
  let failed why =
    ignore (Out.check false ~name:"scrape returns 200" (lazy why) : bool);
    {
      latency_ns = raw.r_latency_ns;
      lateness_ns = raw.r_lateness_ns;
      body_bytes = 0;
      requests = -1;
      sc_vs_opt = nan;
      hits = -1;
      misses = -1;
      ok = false;
    }
  in
  match raw.response with
  | Error why -> failed why
  | Ok response ->
      let sep = "\r\n\r\n" in
      let rec find i =
        if i + 4 > String.length response then None
        else if String.sub response i 4 = sep then Some i
        else find (i + 1)
      in
      let status, body =
        match find 0 with
        | Some i ->
            ( List.hd (String.split_on_char '\r' (String.sub response 0 i)),
              String.sub response (i + 4) (String.length response - i - 4) )
        | None -> (response, "")
      in
      let value name = sample_value body name in
      let int_value name = Option.fold ~none:(-1) ~some:int_of_float (value name) in
      let sc_vs_opt = Option.value (value "dcache_serve_sc_vs_opt") ~default:nan in
      let ok200 =
        Out.check (status = "HTTP/1.1 200 OK") ~name:"scrape returns 200"
          (lazy (String.escaped status))
      in
      let valid =
        match Prometheus.validate body with
        | Ok _ -> true
        | Error msg -> Out.check false ~name:"scrape passes Prometheus.validate" (lazy msg)
      in
      let violations = int_value "dcache_audit_bound_violations_total" in
      let clean =
        Out.check (violations = 0) ~name:"dcache_audit_bound_violations_total is 0"
          (lazy (string_of_int violations))
      in
      let bounded =
        Out.check
          (sc_vs_opt <= Online_sc.competitive_bound +. 1e-6)
          ~name:"SC <= 3 OPT" (lazy (Printf.sprintf "dcache_serve_sc_vs_opt %g" sc_vs_opt))
      in
      {
        latency_ns = raw.r_latency_ns;
        lateness_ns = raw.r_lateness_ns;
        body_bytes = String.length body;
        requests = int_value "dcache_audit_requests_total";
        sc_vs_opt;
        hits = int_value "dcache_solve_cache_hit_total";
        misses = int_value "dcache_solve_cache_miss_total";
        ok = ok200 && valid && clean && bounded;
      }

(* Waits until [deadline] (ns) or the child's stdout has something;
   [true] once it reached end of file (the child is exiting). *)
let wait_child_out c ~deadline =
  let chunk = Bytes.create 256 in
  let rec go () =
    let left = float_of_int (deadline - Probe.now ()) *. 1e-9 in
    if left <= 0.0 then false
    else
      match Unix.select [ c.out ] [] [] left with
      | [], _, _ -> false
      | _ -> (
          match Unix.read c.out chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | k ->
              Buffer.add_subbytes c.said chunk 0 k;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

type child_run = {
  c : child;
  slowdown : float;  (** the host's, around the child's run *)
  samples : sample list;
  wall_s : float;  (** port announcement to end of stdout *)
  peak_rss : int;  (** VmHWM at the last reading while serving *)
  rss_requests : int;  (** requests served at that last reading *)
  exit_ok : bool;
}

(* Scrapes one child until it exits.  Send times are a Poisson process
   of mean gap [period_ns]: exponential gaps, so the scrapes do not lock
   onto the loop's batch period and their waits sample the whole batch
   evenly.  The gaps come from [rng], made from the run's seed.  Returns
   the replies and the time the child's stdout ended. *)
let scrape ~rng c =
  let gap () = int_of_float (-.Float.log1p (-.Random.State.float rng 1.0) *. float_of_int period_ns) in
  let rec loop sched raws =
    if wait_child_out c ~deadline:sched then (List.rev raws, Probe.now ())
    else begin
      let sent = Probe.now () in
      let next = sched + gap () in
      match http_get c.port with
      | response ->
          let done_ = Probe.now () in
          (* the child may already have exited after its last answer *)
          let hwm = Probe.proc_status_bytes ~pid:c.pid "VmHWM" in
          (* an empty answer while the child shuts down is not a scrape *)
          if response = "" && wait_child_out c ~deadline:(Probe.now () + 5_000_000_000) then
            (List.rev raws, Probe.now ())
          else
            loop next
              ({ r_latency_ns = done_ - sched; r_lateness_ns = sent - sched; response = Ok response;
                 hwm } :: raws)
      | exception Unix.Unix_error (e, _, _) ->
          if wait_child_out c ~deadline:(Probe.now () + 5_000_000_000) then
            (List.rev raws, Probe.now ())
          else
            loop next
              ({ r_latency_ns = Probe.now () - sched; r_lateness_ns = sent - sched;
                 response = Error (Unix.error_message e); hwm = None } :: raws)
    end
  in
  loop (c.t_ready + warmup_ns) []

(* Parses and checks what one child gave, after it exited. *)
let finish ~batches c ~slowdown ~raws ~t_end ~status =
  let samples = List.map parse_scrape raws in
  (* the child's peak resident set at the last reading taken while it
     still served, over the requests it had served by then *)
  let peak_rss, rss_requests =
    List.fold_left2
      (fun acc raw s ->
        match raw.hwm with Some hwm when s.requests > 0 -> (hwm, s.requests) | _ -> acc)
      (0, 0) raws samples
  in
  let ran = Printf.sprintf "ran %d batches" batches in
  let said = Buffer.contents c.said in
  let ran_all =
    let n = String.length ran in
    let rec find i = i + n <= String.length said && (String.sub said i n = ran || find (i + 1)) in
    find 0
  in
  let exit_ok =
    Out.check
      (status = Unix.WEXITED 0 && ran_all)
      ~name:"child exits 0 after K batches"
      (lazy
        (match status with
        | Unix.WEXITED n -> Printf.sprintf "exit %d, said %S" n said
        | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "signal %d" n))
  in
  {
    c;
    slowdown;
    samples;
    wall_s = float_of_int (t_end - c.t_ready) *. 1e-9;
    peak_rss;
    rss_requests;
    exit_ok;
  }

(* Children back to back for [seconds] (at least one), each paced by
   the yardstick. *)
let run_children ~dcache ~work_dir ~seed ~batches ~seconds =
  let rng = Random.State.make [| seed; 0x5c4a9e |] in
  let t_start = Probe.now () in
  let rec go acc =
    if acc <> [] && Probe.seconds_since t_start >= seconds then List.rev acc
    else begin
      let (c, raws, t_end, status), slowdown =
        Probe.paced (fun () ->
            let c = spawn ~dcache ~work_dir ~seed ~batches in
            let raws, t_end = scrape ~rng c in
            Unix.close c.out;
            (c, raws, t_end, reap c.pid))
      in
      go (finish ~batches c ~slowdown ~raws ~t_end ~status :: acc)
    end
  in
  go []

(* --- the batch body, replayed in-process ------------------------------ *)

let item_labels = Array.init items (Printf.sprintf "item%d")

let item_sequence ~seed i k =
  Generator.generate_seeded
    ~seed:(seed + (i * items) + k)
    {
      Generator.m;
      n = per_item;
      arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
      placement = Dcache_workload.Placement.Uniform_random;
    }

(* Batch [i] as the child runs it; returns the batch's SC/OPT ratio,
   what the child publishes as dcache_serve_sc_vs_opt after it. *)
let replay_batch ~seed ~inflate model i =
  let online = ref 0.0 and opt = ref 0.0 in
  for k = 0 to items - 1 do
    let seq = item_sequence ~seed i k in
    let a = Auditor.create model ~m ~item:item_labels.(k) ~inflate in
    Pipeline.feed_all a (Pipeline.of_sequence seq);
    let report = Auditor.finish a in
    ignore (Solve_cache.solve model seq : Offline_dp.t);
    online := !online +. (inflate *. report.online_cost);
    opt := !opt +. report.opt_cost
  done;
  Dcache_obs.Audit.ratio ~online:!online ~opt:!opt

type replayed = { expo_ns : float; expo_bytes : int; windows : int; violations : int }

(* The batch body untraced, with the exposition the child serves
   between batches; wall ns per request. *)
let replay_body ~seed ~inflate model ~batches =
  Probe.settle ();
  let t0 = Probe.now () in
  for i = 0 to batches - 1 do
    ignore (replay_batch ~seed ~inflate model i : float);
    ignore (Sys.opaque_identity (Prometheus.exposition ()) : string)
  done;
  float_of_int (Probe.now () - t0) /. float_of_int (batches * batch_size)

(* The same batches with spans: generator, the rebuilt per-request
   pipeline, the re-solve, and one exposition per batch. *)
let replay_traced sp ~seed ~inflate model ~batches =
  let module S = Probe.Spans in
  let expo_ns = ref [] and expo_bytes = ref 0 and req = ref 0 in
  let windows = ref 0 and violations = ref 0 in
  for i = 0 to batches - 1 do
    let b = S.enter sp ~name:Pipeline.s_batch ~parent:(-1) ~req:!req in
    for k = 0 to items - 1 do
      let it = S.enter sp ~name:Pipeline.s_item ~parent:b ~req:!req in
      let s = S.enter sp ~name:Pipeline.s_generator ~parent:it ~req:!req in
      let seq = item_sequence ~seed i k in
      S.leave sp s;
      let st = Pipeline.of_sequence ~item:item_labels.(k) seq in
      let o = Pipeline.traced_stream sp ~inflate model st ~parent:it ~first_req:!req in
      windows := !windows + o.windows;
      violations := !violations + o.violations;
      req := !req + per_item;
      let s = S.enter sp ~name:Pipeline.s_solve_cache ~parent:it ~req:!req in
      ignore (Solve_cache.solve model seq : Offline_dp.t);
      S.leave sp s;
      S.leave sp it
    done;
    let s = S.enter sp ~name:Pipeline.s_exposition ~parent:b ~req:!req in
    let text = Prometheus.exposition () in
    S.leave sp s;
    expo_ns := float_of_int (sp.stop.(s) - sp.start.(s)) :: !expo_ns;
    expo_bytes := String.length text;
    S.leave sp b
  done;
  { expo_ns = Probe.median_float !expo_ns; expo_bytes = !expo_bytes; windows = !windows;
    violations = !violations }

(* --- the two runs -------------------------------------------------------- *)

let faster_half runs =
  let scaled_wall run = run.wall_s /. run.slowdown in
  let sorted = List.stable_sort (fun a b -> compare (scaled_wall a) (scaled_wall b)) runs in
  List.filteri (fun i _ -> i < (List.length runs + 1) / 2) sorted

let pooled_quantile samples f q =
  let a = Array.of_list (List.map f samples) in
  Probe.quantile_int a ~len:(Array.length a) q

(* Checks what each child published against the in-process replay of
   the batch its last scrape saw, and counts ops: every scrape and
   every child run. *)
let check_children r ~seed ~inflate model runs =
  let memo = Hashtbl.create 8 in
  let replay i =
    match Hashtbl.find_opt memo i with
    | Some v -> v
    | None ->
        let v = replay_batch ~seed ~inflate model i in
        Hashtbl.add memo i v;
        v
  in
  List.iter
    (fun run ->
      let scrapes = List.length run.samples in
      let bad = List.length (List.filter (fun s -> not s.ok) run.samples) in
      let seen = List.filter (fun s -> s.ok && s.requests >= batch_size) run.samples in
      let agrees =
        match List.rev seen with
        | [] ->
            Out.check false ~name:"scrapes see the loop progress"
              (lazy "no scrape saw a finished batch")
        | last :: _ ->
            let batch = (last.requests / batch_size) - 1 in
            let expect = replay batch in
            Out.check (Out.rel_close last.sc_vs_opt expect)
              ~name:"dcache_serve_sc_vs_opt equals the replayed batch"
              (lazy
                (Printf.sprintf "batch %d: scraped %.12g, replay %.12g" batch last.sc_vs_opt
                   expect))
      in
      r.Out.attempted <- r.Out.attempted + scrapes + 1;
      r.failed <- r.failed + bad + if run.exit_ok && agrees then 0 else 1)
    runs;
  replay

let untraced r ~dcache ~work_dir ~seed ~seconds ~inflate ~batches model =
  let all = run_children ~dcache ~work_dir ~seed ~batches ~seconds in
  let replay = check_children r ~seed ~inflate model all in
  let paced f = List.map (fun run -> (f run, run.slowdown)) all in
  Out.time_median r "setup_s" (paced (fun run -> run.c.setup_s));
  (* Scrape latencies come from the faster half of the children: the
     slower half are the ones the host preempted more, and a handful of
     20 ms preemptions decide a p99 over a few thousand scrapes.  A
     stall in the loop itself slows every child alike and still shows. *)
  let kept = faster_half all in
  let samples = List.concat_map (fun run -> run.samples) kept in
  let scaled =
    List.concat_map
      (fun run ->
        List.map
          (fun s -> { s with latency_ns = int_of_float (float_of_int s.latency_ns /. run.slowdown) })
          run.samples)
      kept
  in
  let med f = Probe.median_float (List.map f all) in
  let served = float_of_int (batches * batch_size) in
  Printf.printf
    "serve-items: %d children x %d batches; %d scrapes from the faster %d (op latency samples)\n"
    (List.length all) batches (List.length samples) (List.length kept);
  Out.rate_median r "throughput_rps" (paced (fun run -> served /. run.wall_s));
  let latency_us name q =
    let quantile samples = float_of_int (pooled_quantile samples (fun s -> s.latency_ns) q) in
    Out.set_scaled r name ~raw:(quantile samples /. 1000.0) ~scaled:(quantile scaled /. 1000.0)
  in
  latency_us "op_p50_us" 0.50;
  latency_us "op_p99_us" 0.99;
  (* the child's resident set grew from nothing at exec: its peak over
     the requests it had served by then *)
  Out.set r "rss_bytes_per_req"
    (med (fun run -> float_of_int run.peak_rss /. float_of_int (max 1 run.rss_requests)));
  (* the child's GC is out of reach: words come from replaying its
     first batches in-process, under the same Recording sink *)
  let words_batches = min batches 25 in
  Obs.set_sink (Pipeline.recording ());
  let w0 = Gc.minor_words () in
  for i = 0 to words_batches - 1 do
    ignore (replay_batch ~seed ~inflate model i : float)
  done;
  Out.set r "minor_words_per_req"
    ((Gc.minor_words () -. w0) /. float_of_int (words_batches * batch_size));
  Out.set r "sc_opt_ratio" (replay (batches - 1))

type round = {
  feed_ns : float;  (** Auditor.feed, Recording sink *)
  noop_ns : float;  (** Auditor.feed, Noop sink *)
  body_ns : float;  (** the batch body untraced *)
  traced_ns : float;  (** the batch body with spans *)
  self : float array;  (** span self ns, by span name *)
  replayed : replayed;
}

let traced r ~dcache ~work_dir ~seed ~seconds ~inflate ~batches ~clock_ns ~spans_out model =
  (* half the time on the child, for what only a scrape shows *)
  let runs = run_children ~dcache ~work_dir ~seed ~batches ~seconds:(seconds /. 2.0) in
  let samples = List.concat_map (fun run -> run.samples) runs in
  ignore (check_children r ~seed ~inflate model runs : int -> float);
  (* the other half replaying the first batches in-process *)
  let replayed_batches = min batches 20 in
  let requests = replayed_batches * batch_size in
  let streams =
    List.concat
      (List.init replayed_batches (fun i ->
           List.init items (fun k ->
               Pipeline.of_sequence ~item:item_labels.(k) (item_sequence ~seed i k))))
  in
  let sp =
    Probe.Spans.create
      ~capacity:(replayed_batches * (2 + (items * (4 + (per_item * Pipeline.spans_per_feed)))))
      Pipeline.span_names
  in
  let round () =
    let feed_ns, _ = Pipeline.auditor_pass ~sink:(Pipeline.recording ()) ~inflate model streams in
    let noop_ns, _ = Pipeline.auditor_pass ~sink:Obs.Noop ~inflate model streams in
    Obs.set_sink (Pipeline.recording ());
    let body_ns = replay_body ~seed ~inflate model ~batches:replayed_batches in
    Probe.settle ();
    Probe.Spans.clear sp;
    let t0 = Probe.now () in
    let replayed = replay_traced sp ~seed ~inflate model ~batches:replayed_batches in
    let traced_ns = float_of_int (Probe.now () - t0) /. float_of_int requests in
    let self = Array.map snd (Probe.Spans.totals sp ~clock_ns) in
    { feed_ns; noop_ns; body_ns; traced_ns; self; replayed }
  in
  let t_start = Probe.now () in
  let rec loop acc =
    if acc <> [] && Probe.seconds_since t_start >= seconds /. 2.0 then acc
    else loop (round () :: acc)
  in
  let rounds = loop [] in
  Probe.Spans.write_csv sp ~path:spans_out;
  let med f = Probe.median_float (List.map f rounds) in
  let self = Array.mapi (fun i _ -> med (fun rd -> rd.self.(i))) Pipeline.span_names in
  let per name = self.(name) /. float_of_int requests in
  Pipeline.report_feed_layers r ~self ~requests ~feed_ns:(med (fun rd -> rd.feed_ns))
    ~noop_ns:(med (fun rd -> rd.noop_ns)) ~clock_ns;
  Pipeline.report_overhead r ~traced_ns:(med (fun rd -> rd.traced_ns))
    ~untraced_ns:(med (fun rd -> rd.body_ns));
  let dp = Pipeline.dp_alone model streams in
  let feed_words, transfer_ratio = Pipeline.sc_alone model streams in
  let replayed = (List.hd rounds).replayed in
  let expo_ns = med (fun rd -> rd.replayed.expo_ns) in
  let latency_p50 = float_of_int (pooled_quantile samples (fun s -> s.latency_ns) 0.50) in
  let last = List.rev (List.filter (fun s -> s.ok) samples) in
  let hit_ratio =
    match last with
    | s :: _ when s.hits + s.misses > 0 -> float_of_int s.hits /. float_of_int (s.hits + s.misses)
    | _ -> 0.0
  in
  Printf.printf
    "serve-items traced: %d children, %d scrapes; %d batches replayed x %d rounds; exposition \
     %d bytes in-process, %d from the child\n"
    (List.length runs) (List.length samples) replayed_batches (List.length rounds)
    replayed.expo_bytes
    (match last with s :: _ -> s.body_bytes | [] -> 0);
  Out.set r "streaming_dp.push_words" dp.push_words;
  Out.set r "streaming_dp.push_max_ms" (float_of_int dp.push_max_ns *. 1e-6);
  Out.set r "streaming_dp.rss_bytes_per_req" dp.dp_rss_per_req;
  Out.set r "online_sc.feed_words" feed_words;
  Out.set r "online_sc.transfer_ratio" transfer_ratio;
  Out.set r "audit.windows" (float_of_int replayed.windows);
  Out.set r "audit.violations" (float_of_int replayed.violations);
  Out.set r "generator.ns" (per Pipeline.s_generator);
  Out.set r "solve_cache.solve_ns" (per Pipeline.s_solve_cache);
  Out.set r "solve_cache.hit_ratio" hit_ratio;
  Out.set r "prometheus.exposition_us" (expo_ns /. 1000.0);
  Out.set r "prometheus.exposition_bytes" (float_of_int replayed.expo_bytes);
  Out.set r "prometheus.scrape_wait_us" ((latency_p50 -. expo_ns) /. 1000.0);
  Out.set r "load.lateness_p99_ms"
    (float_of_int (pooled_quantile samples (fun s -> s.lateness_ns) 0.99) *. 1e-6)

let run r ~seed ~seconds ~trace ~inflate ~clock_ns ~spans_out ~tiny ~dcache ~work_dir =
  let model = Cost_model.make ~mu:1.0 ~lambda:1.0 () in
  let batches = if tiny then 100 else 400 in
  let work_dir =
    if Filename.is_relative work_dir then Filename.concat (Sys.getcwd ()) work_dir else work_dir
  in
  if trace then
    traced r ~dcache ~work_dir ~seed ~seconds ~inflate ~batches ~clock_ns ~spans_out model
  else untraced r ~dcache ~work_dir ~seed ~seconds ~inflate ~batches model
