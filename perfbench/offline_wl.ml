(* offline-plan: a fixed corpus of trace files, written at set-up, each
   planned the way [dcache solve] and [dcache online] plan it:
   Trace_io.read -> Offline_dp.solve -> Offline_dp.schedule ->
   Schedule.validate, then Online_sc.run -> Online_sc.schedule_of_run ->
   Schedule.validate.  No Audit, no Obs recording. *)

open Dcache_core
module Generator = Dcache_workload.Generator
module Placement = Dcache_workload.Placement
module Arrival = Dcache_workload.Arrival
module Trace_io = Dcache_workload.Trace_io

type entry = { file : string; m : int; n : int }

(* The two bundled traces, with the server counts the audit demo uses. *)
let bundled = [ ("test/data/15041.events", 6); ("test/data/17018.events", 4) ]

(* m from 4 to 64 and n across a decade; every (m, n) pair once, and
   each placement and arrival process across the sizes. *)
let ms = [| 4; 8; 16; 32; 64 |]
let ns = [| 150; 400; 1000; 1500 |]

let placements =
  [|
    Placement.Uniform_random;
    Placement.Zipf { exponent = 1.0 };
    Placement.Mobility { stay = 0.9; ring = true };
    Placement.Multi_user { users = 3; stay = 0.85; ring = true };
  |]

let arrivals = [| Arrival.Poisson { rate = 1.0 }; Arrival.Pareto { shape = 1.5; scale = 0.25 } |]

let generated ~tiny =
  List.init 20 (fun i ->
      {
        Generator.m = ms.(i mod 5);
        n = (if tiny then 40 else ns.(i mod 4));
        placement = placements.(i / 5);
        arrival = arrivals.(((i / 5) + i) mod 2);
      })

let write_corpus ~seed ~tiny ~dir =
  let gen =
    List.mapi
      (fun i spec ->
        let file = Filename.concat dir (Printf.sprintf "gen-%02d.csv" i) in
        let seq = Generator.generate_seeded ~seed:(seed + i) spec in
        Trace_io.write ~filename:file seq;
        { file; m = spec.Generator.m; n = Sequence.n seq })
      (generated ~tiny)
  in
  let copies =
    List.map
      (fun (src, m) ->
        let text = In_channel.with_open_bin src In_channel.input_all in
        let file = Filename.concat dir (Filename.basename src) in
        Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text);
        let n = List.length (String.split_on_char '\n' (String.trim text)) - 1 in
        { file; m; n })
      bundled
  in
  copies @ gen

(* Set-up is writing the corpus; done five times, each paced by the
   yardstick. *)
let setup ~seed ~tiny ~dir =
  Probe.mkdir_p dir;
  let times = ref [] and corpus = ref [] in
  for _ = 1 to 5 do
    let dt, slowdown =
      Probe.paced (fun () ->
          let t0 = Probe.now () in
          corpus := write_corpus ~seed ~tiny ~dir;
          Probe.seconds_since t0)
    in
    times := (dt, slowdown) :: !times
  done;
  (!times, !corpus)

let remove_corpus corpus = List.iter (fun e -> try Sys.remove e.file with Sys_error _ -> ()) corpus

(* One planned trace: what the checks need. *)
type plan = {
  opt : Offline_dp.t;
  opt_schedule : Schedule.t;
  opt_valid : (unit, string list) result;
  sc : Online_sc.run;
  sc_valid : (unit, string list) result;
}

let read_exn e =
  match Trace_io.read ~filename:e.file ~m:e.m with
  | Ok seq -> seq
  | Error msg -> failwith (e.file ^ ": " ^ msg)

let span_names =
  [|
    "plan";
    "trace_io.read";
    "offline_dp.solve";
    "offline_dp.schedule";
    "schedule.validate";
    "online_sc.run";
    "online_sc.schedule_of_run";
  |]

let s_plan = 0
let s_read = 1
let s_solve = 2
let s_schedule = 3
let s_validate = 4
let s_run = 5
let s_of_run = 6

(* One op.  [c.call name f] runs each public call: directly, or inside a
   span in the traced run. *)
type caller = { call : 'a. int -> (unit -> 'a) -> 'a }

let plan_with c model e =
  let call = c.call in
  let seq = call s_read (fun () -> read_exn e) in
  let opt = call s_solve (fun () -> Offline_dp.solve model seq) in
  let opt_schedule = call s_schedule (fun () -> Offline_dp.schedule opt) in
  let opt_valid = call s_validate (fun () -> Schedule.validate seq opt_schedule) in
  let sc = call s_run (fun () -> Online_sc.run model seq) in
  let sc_schedule = call s_of_run (fun () -> Online_sc.schedule_of_run seq sc) in
  let sc_valid = call s_validate (fun () -> Schedule.validate seq sc_schedule) in
  { opt; opt_schedule; opt_valid; sc; sc_valid }

let plan model e = plan_with { call = (fun _ f -> f ()) } model e

(* The traced op: a root span, a span around each call, and [words]
   collecting minor words by span name. *)
let plan_traced sp words model e ~op =
  let module S = Probe.Spans in
  let root = S.enter sp ~name:s_plan ~parent:(-1) ~req:op in
  let call name f =
    let w0 = Gc.minor_words () in
    let s = S.enter sp ~name ~parent:root ~req:op in
    let v = f () in
    S.leave sp s;
    words.(name) <- words.(name) +. (Gc.minor_words () -. w0);
    v
  in
  let p = plan_with { call } model e in
  S.leave sp root;
  p

(* The output checks of one op, outside the timed region. *)
let check_plan model ~inflate e p =
  let opt_cost = Offline_dp.cost p.opt in
  let priced = Schedule.cost model p.opt_schedule in
  let sc_cost = inflate *. p.sc.Online_sc.total_cost in
  let valid name = function
    | Ok () -> true
    | Error errs ->
        Out.check false ~name (lazy (Printf.sprintf "%s: %s" e.file (String.concat "; " errs)))
  in
  let ok1 = valid "optimal schedule passes Schedule.validate" p.opt_valid in
  let ok2 = valid "SC schedule passes Schedule.validate" p.sc_valid in
  let ok3 =
    Out.check (Out.rel_close priced opt_cost) ~name:"Schedule.cost equals Offline_dp.cost"
      (lazy (Printf.sprintf "%s: %.17g vs %.17g" e.file priced opt_cost))
  in
  let ok4 =
    Out.check
      (sc_cost <= (Online_sc.competitive_bound *. opt_cost) +. 1e-6)
      ~name:"SC <= 3 OPT"
      (lazy (Printf.sprintf "%s: SC %.6f vs OPT %.6f" e.file sc_cost opt_cost))
  in
  ok1 && ok2 && ok3 && ok4

let corpus_requests corpus = List.fold_left (fun acc e -> acc + e.n) 0 corpus

(* Enough ops that the p99 has at least ten samples beyond it. *)
let min_ops = 1010

let untraced r ~seconds ~inflate model corpus =
  let ops_per_pass = List.length corpus in
  let lat = Array.make (ops_per_pass * 4096) 0 in
  let scaled = Array.make (Array.length lat) 0 in
  let ops = ref 0 and passes = ref [] in
  let sc_total = ref 0.0 and opt_total = ref 0.0 in
  let words = ref 0.0 in
  Probe.settle ();
  let rss_start = Probe.rss_bytes () in
  let t_start = Probe.now () in
  while
    (!passes = [] || !ops < min_ops || Probe.seconds_since t_start < seconds)
    && !ops + ops_per_pass <= Array.length lat
  do
    Probe.settle ();
    let first = !ops in
    (* a pass's time is the sum of its ops: the checks run between them *)
    let wall_ns, slowdown =
      Probe.paced (fun () ->
          List.fold_left
            (fun wall_ns e ->
              let w0 = Gc.minor_words () in
              let s = Probe.now () in
              let p = plan model e in
              let dt = Probe.now () - s in
              words := !words +. (Gc.minor_words () -. w0);
              lat.(!ops) <- dt;
              incr ops;
              r.Out.attempted <- r.Out.attempted + 1;
              if !passes = [] then begin
                sc_total := !sc_total +. p.sc.Online_sc.total_cost;
                opt_total := !opt_total +. Offline_dp.cost p.opt
              end;
              if not (check_plan model ~inflate e p) then r.failed <- r.failed + 1;
              wall_ns + dt)
            0 corpus)
    in
    for i = first to !ops - 1 do
      scaled.(i) <- int_of_float (float_of_int lat.(i) /. slowdown)
    done;
    passes := (wall_ns, slowdown) :: !passes
  done;
  let reqs = corpus_requests corpus in
  Printf.printf "offline-plan: %d traces (%d requests) x %d passes = %d op latency samples\n"
    ops_per_pass reqs (List.length !passes) !ops;
  Out.rate_median r "throughput_rps"
    (List.map (fun (ns, s) -> (float_of_int reqs /. (float_of_int ns *. 1e-9), s)) !passes);
  let latency_us name q =
    Out.set_scaled r name
      ~raw:(float_of_int (Probe.quantile_int lat ~len:!ops q) /. 1000.0)
      ~scaled:(float_of_int (Probe.quantile_int scaled ~len:!ops q) /. 1000.0)
  in
  latency_us "op_p50_us" 0.50;
  latency_us "op_p99_us" 0.99;
  (* every pass re-plans the same corpus: the peak growth over the
     timed part, per corpus request *)
  let hwm = Option.value (Probe.proc_status_bytes ~pid:0 "VmHWM") ~default:0 in
  Out.set r "rss_bytes_per_req" (float_of_int (hwm - rss_start) /. float_of_int reqs);
  Out.set r "minor_words_per_req" (!words /. float_of_int (reqs * List.length !passes));
  Out.set r "sc_opt_ratio" (inflate *. !sc_total /. !opt_total)

type round = {
  untraced_ns : float;  (** the plans without spans, per request *)
  traced_ns : float;
  totals : (float * float) array;  (** span total and self ns *)
  words : float array;  (** minor words, by span name *)
}

let traced r ~seconds ~inflate ~clock_ns ~spans_out model corpus =
  let ops_per_pass = List.length corpus in
  let reqs = corpus_requests corpus in
  let sp = Probe.Spans.create ~capacity:(ops_per_pass * 8) span_names in
  let per_req ns = float_of_int ns /. float_of_int reqs in
  let round () =
    Probe.settle ();
    let t0 = Probe.now () in
    List.iter (fun e -> ignore (plan model e : plan)) corpus;
    let untraced_ns = per_req (Probe.now () - t0) in
    Probe.settle ();
    Probe.Spans.clear sp;
    let words = Array.make (Array.length span_names) 0.0 in
    let t0 = Probe.now () in
    let plans = List.mapi (fun op e -> plan_traced sp words model e ~op) corpus in
    let traced_ns = per_req (Probe.now () - t0) in
    List.iter2
      (fun e p ->
        r.Out.attempted <- r.Out.attempted + 1;
        if not (check_plan model ~inflate e p) then r.failed <- r.failed + 1)
      corpus plans;
    { untraced_ns; traced_ns; totals = Probe.Spans.totals sp ~clock_ns; words }
  in
  let t_start = Probe.now () in
  let rec loop acc =
    if acc <> [] && Probe.seconds_since t_start >= seconds then acc else loop (round () :: acc)
  in
  let rounds = loop [] in
  Probe.Spans.write_csv sp ~path:spans_out;
  let med f = Probe.median_float (List.map f rounds) in
  let self i = med (fun rd -> snd rd.totals.(i)) /. float_of_int reqs in
  let total i = med (fun rd -> fst rd.totals.(i)) /. float_of_int reqs in
  let words i = med (fun rd -> rd.words.(i)) /. float_of_int reqs in
  Printf.printf "offline-plan traced: %d traces (%d requests) x %d rounds\n" ops_per_pass reqs
    (List.length rounds);
  Printf.printf
    "per-request plan %.1f ns: read %.1f solve %.1f schedule %.1f validate %.1f run %.1f \
     schedule_of_run %.1f glue %.1f\n"
    (total s_plan) (self s_read) (self s_solve) (self s_schedule) (self s_validate) (self s_run)
    (self s_of_run) (self s_plan);
  Pipeline.report_overhead r ~traced_ns:(med (fun rd -> rd.traced_ns))
    ~untraced_ns:(med (fun rd -> rd.untraced_ns));
  Out.set r "trace_io.read_ns" (self s_read);
  Out.set r "trace_io.read_words" (words s_read);
  Out.set r "offline_dp.solve_ns" (self s_solve);
  Out.set r "offline_dp.schedule_ns" (self s_schedule);
  Out.set r "offline_dp.schedule_words" (words s_schedule);
  Out.set r "online_sc.run_ns" (self s_run);
  Out.set r "online_sc.schedule_of_run_ns" (self s_of_run);
  Out.set r "schedule.validate_ns" (self s_validate);
  Out.set r "schedule.validate_share" (self s_validate /. total s_plan);
  Out.set r "clock.read_ns" clock_ns

let run r ~seed ~seconds ~trace ~inflate ~clock_ns ~spans_out ~tiny ~work_dir =
  let model = Cost_model.make ~mu:1.0 ~lambda:1.0 () in
  let dir = Filename.concat work_dir (Printf.sprintf "corpus-%d" (Unix.getpid ())) in
  let setups, corpus = setup ~seed ~tiny ~dir in
  Out.time_median r "setup_s" setups;
  Fun.protect
    ~finally:(fun () ->
      remove_corpus corpus;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      if trace then traced r ~seconds ~inflate ~clock_ns ~spans_out model corpus
      else untraced r ~seconds ~inflate model corpus)
