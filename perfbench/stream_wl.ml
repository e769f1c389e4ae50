(* stream-m64: one long stream fed request by request through
   Auditor.create/feed/finish under a recording Obs sink, the way
   [dcache audit] runs it.  m = 64, Zipf placement, Poisson arrivals. *)

open Dcache_core
module Auditor = Dcache_sim.Auditor
module Generator = Dcache_workload.Generator

let m = 64

let spec ~n =
  {
    Generator.m;
    n;
    arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
    placement = Dcache_workload.Placement.Zipf { exponent = 1.0 };
  }

(* Set-up is generating the stream; done five times, each paced by the
   yardstick. *)
let setup ~seed ~n =
  let times = ref [] and seq = ref None in
  for _ = 1 to 5 do
    seq := None;
    Probe.settle ();
    let (dt, v), slowdown =
      Probe.paced (fun () ->
          let t0 = Probe.now () in
          let s = Generator.generate_seeded ~seed (spec ~n) in
          let st = Pipeline.of_sequence s in
          (Probe.seconds_since t0, (s, st)))
    in
    times := (dt, slowdown) :: !times;
    seq := Some v
  done;
  match !seq with Some v -> (!times, v) | None -> assert false

type pass = {
  slowdown : float;  (** the host's, around the pass *)
  wall_ns : int;
  p50_ns : int;
  p99_ns : int;
  words : float;
  rss_growth : int;
  outcome : Pipeline.outcome;
}

let timed_pass ~inflate model (st : Pipeline.stream) lat =
  Probe.settle ();
  let (wall_ns, words, rss_growth, outcome), slowdown =
    Probe.paced (fun () ->
        let rss0 = Probe.rss_bytes () in
        let w0 = Gc.minor_words () in
        let t0 = Probe.now () in
        let a = Auditor.create ~inflate model ~m in
        for i = 0 to Pipeline.length st - 1 do
          let s = Probe.now () in
          Auditor.feed a ~server:st.servers.(i) ~time:st.times.(i);
          lat.(i) <- Probe.now () - s
        done;
        let rss1 = Probe.rss_bytes () in
        let outcome = Pipeline.outcome_of_report (Auditor.finish a) in
        let wall_ns = Probe.now () - t0 in
        (wall_ns, Gc.minor_words () -. w0, rss1 - rss0, outcome))
  in
  let n = Pipeline.length st in
  let p50_ns = Probe.quantile_int lat ~len:n 0.50 in
  let p99_ns = Probe.quantile_int lat ~len:n 0.99 in
  { slowdown; wall_ns; p50_ns; p99_ns; words; rss_growth; outcome }

(* The output checks, run outside the timed region: Naive_dp and
   Online_sc.run recompute the stream's costs from scratch. *)
let check_stream model seq (o : Pipeline.outcome) =
  let naive = Dcache_baselines.Naive_dp.solve model seq in
  let run = (Online_sc.run model seq).Online_sc.total_cost in
  let ok1 =
    Out.check (Out.rel_close o.opt naive) ~name:"stream optimum equals Naive_dp"
      (lazy (Printf.sprintf "Streaming_dp %.17g vs Naive_dp %.17g" o.opt naive))
  in
  let ok2 =
    Out.check (Out.rel_close o.online run) ~name:"online cost equals Online_sc.run"
      (lazy (Printf.sprintf "Incremental %.17g vs run %.17g" o.online run))
  in
  let ok3 =
    Out.check
      (o.ratio <= Online_sc.competitive_bound +. 1e-6)
      ~name:"SC <= 3 OPT"
      (lazy (Printf.sprintf "reported ratio %.6f" o.ratio))
  in
  let ok4 =
    Out.check (o.violations = 0) ~name:"audit bound violations are 0"
      (lazy (Printf.sprintf "%d violations" o.violations))
  in
  ok1 && ok2 && ok3 && ok4

let untraced r ~seconds ~inflate model seq (st : Pipeline.stream) =
  let n = Pipeline.length st in
  Dcache_obs.Obs.set_sink (Pipeline.recording ());
  let lat = Array.make n 0 in
  let t_start = Probe.now () in
  let rec loop acc =
    if acc <> [] && Probe.seconds_since t_start >= seconds then List.rev acc
    else loop (timed_pass ~inflate model st lat :: acc)
  in
  let passes = loop [] in
  let first = List.hd passes in
  let ok = check_stream model seq first.outcome in
  List.iter
    (fun p ->
      r.Out.attempted <- r.Out.attempted + n;
      let same = p.outcome = first.outcome in
      let same =
        Out.check same ~name:"every pass gives the same costs" (lazy "a later pass differs")
      in
      if not (ok && same) then r.failed <- r.failed + n)
    passes;
  let nf = float_of_int n in
  Printf.printf "stream-m64: %d requests x %d passes (%d latency samples per pass)\n" n
    (List.length passes) n;
  let per f = Probe.median_float (List.map f passes) in
  let paced f = List.map (fun p -> (f p, p.slowdown)) passes in
  Out.rate_median r "throughput_rps" (paced (fun p -> nf /. (float_of_int p.wall_ns *. 1e-9)));
  Out.time_median r "op_p50_us" (paced (fun p -> float_of_int p.p50_ns /. 1000.0));
  Out.time_median r "op_p99_us" (paced (fun p -> float_of_int p.p99_ns /. 1000.0));
  Out.set r "rss_bytes_per_req" (per (fun p -> float_of_int p.rss_growth /. nf));
  Out.set r "minor_words_per_req" (per (fun p -> p.words /. nf));
  Out.set r "sc_opt_ratio" first.outcome.ratio

(* The traced run: the shipped Auditor under both sinks and the
   rebuilt pipeline with spans, repeated for the run's seconds (medians
   kept), then each layer alone once. *)
type round = {
  feed_ns : float;  (** Auditor.feed, Recording sink *)
  noop_ns : float;  (** Auditor.feed, Noop sink *)
  traced_ns : float;  (** the rebuilt pipeline with spans *)
  self : float array;  (** span self ns, by span name *)
  reference : Pipeline.outcome list;
  rebuilt : Pipeline.outcome;
}

let traced r ~seconds ~inflate ~clock_ns ~spans_out model seq (st : Pipeline.stream) =
  let n = Pipeline.length st in
  let streams = [ st ] in
  let sp = Probe.Spans.create ~capacity:((n * Pipeline.spans_per_feed) + 1) Pipeline.span_names in
  let round () =
    let feed_ns, reference =
      Pipeline.auditor_pass ~sink:(Pipeline.recording ()) ~inflate model streams
    in
    let noop_ns, _ = Pipeline.auditor_pass ~sink:Dcache_obs.Obs.Noop ~inflate model streams in
    Probe.settle ();
    Probe.Spans.clear sp;
    Dcache_obs.Obs.set_sink (Pipeline.recording ());
    let t0 = Probe.now () in
    let rebuilt = Pipeline.traced_stream sp ~inflate model st ~parent:(-1) ~first_req:1 in
    let traced_ns = float_of_int (Probe.now () - t0) /. float_of_int n in
    let self = Array.map snd (Probe.Spans.totals sp ~clock_ns) in
    { feed_ns; noop_ns; traced_ns; self; reference; rebuilt }
  in
  let t_start = Probe.now () in
  let rec loop acc =
    if acc <> [] && Probe.seconds_since t_start >= seconds then acc else loop (round () :: acc)
  in
  let rounds = loop [] in
  Probe.Spans.write_csv sp ~path:spans_out;
  let med f = Probe.median_float (List.map f rounds) in
  let rebuilt = (List.hd rounds).rebuilt in
  let self = Array.mapi (fun i _ -> med (fun rd -> rd.self.(i))) Pipeline.span_names in
  let dp = Pipeline.dp_alone model streams in
  let feed_words, transfer_ratio = Pipeline.sc_alone model streams in
  let ok =
    Out.check
      (List.for_all (fun rd -> rd.reference = [ rebuilt ] && rd.rebuilt = rebuilt) rounds)
      ~name:"rebuilt pipeline equals Auditor" (lazy "costs or audit readbacks differ")
    && check_stream model seq rebuilt
  in
  Printf.printf "stream-m64 traced: %d requests x %d rounds\n" n (List.length rounds);
  r.Out.attempted <- n * List.length rounds;
  if not ok then r.failed <- r.attempted;
  let feed_ns = med (fun rd -> rd.feed_ns) in
  Pipeline.report_feed_layers r ~self ~requests:n ~feed_ns ~noop_ns:(med (fun rd -> rd.noop_ns))
    ~clock_ns;
  Pipeline.report_overhead r ~traced_ns:(med (fun rd -> rd.traced_ns)) ~untraced_ns:feed_ns;
  Out.set r "streaming_dp.push_words" dp.push_words;
  Out.set r "streaming_dp.push_max_ms" (float_of_int dp.push_max_ns *. 1e-6);
  Out.set r "streaming_dp.rss_bytes_per_req" dp.dp_rss_per_req;
  Out.set r "online_sc.feed_words" feed_words;
  Out.set r "online_sc.transfer_ratio" transfer_ratio;
  Out.set r "audit.windows" (float_of_int rebuilt.windows);
  Out.set r "audit.violations" (float_of_int rebuilt.violations)

let run r ~seed ~seconds ~trace ~inflate ~clock_ns ~spans_out ~n =
  let model = Cost_model.make ~mu:1.0 ~lambda:1.0 () in
  let setups, (seq, st) = setup ~seed ~n in
  Out.time_median r "setup_s" setups;
  if trace then traced r ~seconds ~inflate ~clock_ns ~spans_out model seq st
  else untraced r ~seconds ~inflate model seq st
