(* The per-request audit pipeline, driven three ways over the same
   recorded streams: through [Auditor] as shipped (untraced), rebuilt
   from its public parts with a span around each call (traced), and one
   layer at a time (the DP alone, SC alone). *)

open Dcache_core
module Audit = Dcache_obs.Audit
module Auditor = Dcache_sim.Auditor
module Obs = Dcache_obs.Obs

type stream = { m : int; servers : int array; times : float array; item : string option }

let of_sequence ?item seq =
  let n = Sequence.n seq in
  {
    m = Sequence.m seq;
    servers = Array.init n (fun i -> Sequence.server seq (i + 1));
    times = Array.init n (fun i -> Sequence.time seq (i + 1));
    item;
  }

let length st = Array.length st.servers
let total_requests streams = List.fold_left (fun acc st -> acc + length st) 0 streams

(* What the checks need from a finished pipeline. *)
type outcome = {
  online : float;  (** uninflated SC cost *)
  opt : float;
  ratio : float;  (** as the auditor saw it, inflation included *)
  windows : int;
  violations : int;
  transfers : int;
}

let outcome_of_report (r : Auditor.report) =
  {
    online = r.online_cost;
    opt = r.opt_cost;
    ratio = r.final_ratio;
    windows = r.windows;
    violations = r.violations;
    transfers = r.run.Online_sc.num_transfers;
  }

let recording () = Obs.Recording (Obs.recorder ())

(* --- untraced: Auditor as dcache audit and serve-metrics drive it ---- *)

let feed_all a st =
  for i = 0 to length st - 1 do
    Auditor.feed a ~server:st.servers.(i) ~time:st.times.(i)
  done

(* Wall ns per request of feeding every stream through a fresh Auditor
   under [sink], and the outcomes. *)
let auditor_pass ~sink ~inflate model streams =
  Probe.settle ();
  let saved = Obs.sink () in
  Obs.set_sink sink;
  let t0 = Probe.now () in
  let outcomes =
    List.map
      (fun st ->
        let a = Auditor.create ?item:st.item ~inflate model ~m:st.m in
        feed_all a st;
        outcome_of_report (Auditor.finish a))
      streams
  in
  let ns = float_of_int (Probe.now () - t0) /. float_of_int (total_requests streams) in
  Obs.set_sink saved;
  (ns, outcomes)

(* --- traced: Auditor.feed rebuilt from its public parts ------------ *)

let span_names =
  [|
    "auditor.feed";
    "online_sc.feed";
    "streaming_dp.push";
    "online_sc.cost_so_far";
    "streaming_dp.cost";
    "audit.observe";
    "auditor.finish";
    "item";
    "generator";
    "solve_cache.solve";
    "prometheus.exposition";
    "batch";
  |]

let s_feed = 0
let s_inc = 1
let s_push = 2
let s_online = 3
let s_opt = 4
let s_observe = 5
let s_finish = 6
let s_item = 7
let s_generator = 8
let s_solve_cache = 9
let s_exposition = 10
let s_batch = 11

(* Spans one traced feed opens. *)
let spans_per_feed = 6

type rebuilt = {
  inc : Online_sc.Incremental.t;
  dp : Streaming_dp.t;
  audit : Audit.t;
  inflate : float;
}

let rebuilt_create ?item ~inflate model ~m =
  {
    inc = Online_sc.Incremental.create model ~m;
    dp = Streaming_dp.create model ~m;
    audit = Audit.create ?item ();
    inflate;
  }

let traced_feed sp p ~parent ~req ~server ~time =
  let root = Probe.Spans.enter sp ~name:s_feed ~parent ~req in
  let s = Probe.Spans.enter sp ~name:s_inc ~parent:root ~req in
  Online_sc.Incremental.feed p.inc ~server ~time;
  Probe.Spans.leave sp s;
  let s = Probe.Spans.enter sp ~name:s_push ~parent:root ~req in
  Streaming_dp.push p.dp ~server ~time;
  Probe.Spans.leave sp s;
  let s = Probe.Spans.enter sp ~name:s_online ~parent:root ~req in
  let online = p.inflate *. Online_sc.Incremental.cost_so_far p.inc in
  Probe.Spans.leave sp s;
  let s = Probe.Spans.enter sp ~name:s_opt ~parent:root ~req in
  let opt = Streaming_dp.cost p.dp in
  Probe.Spans.leave sp s;
  let s = Probe.Spans.enter sp ~name:s_observe ~parent:root ~req in
  ignore (Audit.observe p.audit ~online ~opt : bool);
  Probe.Spans.leave sp s;
  Probe.Spans.leave sp root

(* The same summary Auditor.finish builds. *)
let rebuilt_finish sp p ~parent ~req =
  let s = Probe.Spans.enter sp ~name:s_finish ~parent ~req in
  ignore (Audit.flush p.audit : bool);
  let run = Online_sc.Incremental.finish p.inc in
  let opt = Streaming_dp.cost p.dp in
  Probe.Spans.leave sp s;
  {
    online = run.Online_sc.total_cost;
    opt;
    ratio = Audit.ratio ~online:(p.inflate *. run.Online_sc.total_cost) ~opt;
    windows = Audit.windows_closed p.audit;
    violations = Audit.violations p.audit;
    transfers = run.Online_sc.num_transfers;
  }

(* Feed one stream through the rebuilt pipeline; request ids continue
   from [first_req]. *)
let traced_stream sp ~inflate model st ~parent ~first_req =
  let p = rebuilt_create ?item:st.item ~inflate model ~m:st.m in
  for i = 0 to length st - 1 do
    traced_feed sp p ~parent ~req:(first_req + i) ~server:st.servers.(i) ~time:st.times.(i)
  done;
  rebuilt_finish sp p ~parent ~req:(first_req + length st)

(* --- one layer alone ------------------------------------------------ *)

type dp_alone = { push_words : float; push_max_ns : int; dp_rss_per_req : float }

(* Streaming_dp.push over every stream with nothing else running:
   minor words and resident-set growth per request, and the slowest
   single push (arena growth stalls show here). *)
let dp_alone model streams =
  Probe.settle ();
  let rss0 = Probe.rss_bytes () in
  let w0 = Gc.minor_words () in
  let worst = ref 0 in
  let dps =
    List.map
      (fun st ->
        let dp = Streaming_dp.create model ~m:st.m in
        for i = 0 to length st - 1 do
          let t0 = Probe.now () in
          Streaming_dp.push dp ~server:st.servers.(i) ~time:st.times.(i);
          let d = Probe.now () - t0 in
          if d > !worst then worst := d
        done;
        dp)
      streams
  in
  let words = Gc.minor_words () -. w0 in
  let rss1 = Probe.rss_bytes () in
  let n = float_of_int (total_requests streams) in
  ignore (Sys.opaque_identity dps);
  {
    push_words = words /. n;
    push_max_ns = !worst;
    dp_rss_per_req = float_of_int (rss1 - rss0) /. n;
  }

(* Online_sc.Incremental.feed alone: minor words and transfers per
   request. *)
let sc_alone model streams =
  let w0 = Gc.minor_words () in
  let transfers =
    List.fold_left
      (fun acc st ->
        let inc = Online_sc.Incremental.create model ~m:st.m in
        for i = 0 to length st - 1 do
          Online_sc.Incremental.feed inc ~server:st.servers.(i) ~time:st.times.(i)
        done;
        acc + Online_sc.Incremental.transfers_so_far inc)
      0 streams
  in
  let n = float_of_int (total_requests streams) in
  ((Gc.minor_words () -. w0) /. n, float_of_int transfers /. n)

(* --- per-layer figures of a traced run ----------------------------- *)

(* Reports the feed layers' self times per request ([self] holds span
   self ns by span name), and the glue: the untraced Auditor.feed time
   ([feed_ns]) those self times leave unexplained.  [noop_ns] is the
   same feed under the Noop sink. *)
let report_feed_layers r ~self ~requests ~feed_ns ~noop_ns ~clock_ns =
  let per name = self.(name) /. float_of_int requests in
  let inc = per s_inc and push = per s_push and observe = per s_observe in
  let readback = per s_online +. per s_opt in
  let glue = feed_ns -. (inc +. push +. readback +. observe) in
  Printf.printf
    "per-feed: untraced Auditor.feed %.1f ns = online_sc.feed %.1f + streaming_dp.push %.1f + \
     readbacks %.1f + audit.observe %.1f + glue %.1f (clock read %.1f ns, charged per span)\n"
    feed_ns inc push readback observe glue clock_ns;
  Out.set r "online_sc.feed_ns" inc;
  Out.set r "streaming_dp.push_ns" push;
  Out.set r "audit.observe_ns" observe;
  Out.set r "auditor.readback_ns" readback;
  Out.set r "auditor.feed_ns" feed_ns;
  Out.set r "auditor.glue_ns" glue;
  Out.set r "obs.recording_ns" (feed_ns -. noop_ns);
  Out.set r "clock.read_ns" clock_ns

(* Tracing overhead: the traced time per request over the untraced. *)
let report_overhead r ~traced_ns ~untraced_ns =
  Printf.printf "tracing overhead: traced %.1f ns/req vs untraced %.1f (throughput x%.3f)\n"
    traced_ns untraced_ns (untraced_ns /. traced_ns);
  Out.set r "trace.overhead" (traced_ns /. untraced_ns)
