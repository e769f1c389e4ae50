(* The metric catalog (names and units, as BENCHMARK.json lists them),
   the per-run result, and its printing. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_rps", "req/s");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
    ("rss_bytes_per_req", "B/req");
    ("minor_words_per_req", "words/req");
    ("sc_opt_ratio", "ratio");
  ]

(* Layers a workload does not run report 0. *)
let per_layer =
  [
    ("streaming_dp.push_ns", "ns");
    ("streaming_dp.push_words", "words/req");
    ("streaming_dp.push_max_ms", "ms");
    ("streaming_dp.rss_bytes_per_req", "B/req");
    ("online_sc.feed_ns", "ns");
    ("online_sc.feed_words", "words/req");
    ("online_sc.transfer_ratio", "fraction");
    ("audit.observe_ns", "ns");
    ("audit.windows", "count");
    ("audit.violations", "count");
    ("obs.recording_ns", "ns");
    ("auditor.feed_ns", "ns");
    ("auditor.readback_ns", "ns");
    ("auditor.glue_ns", "ns");
    ("trace_io.read_ns", "ns");
    ("trace_io.read_words", "words/req");
    ("offline_dp.solve_ns", "ns");
    ("offline_dp.schedule_ns", "ns");
    ("offline_dp.schedule_words", "words/req");
    ("online_sc.run_ns", "ns");
    ("online_sc.schedule_of_run_ns", "ns");
    ("schedule.validate_ns", "ns");
    ("schedule.validate_share", "fraction");
    ("generator.ns", "ns");
    ("solve_cache.solve_ns", "ns");
    ("solve_cache.hit_ratio", "fraction");
    ("prometheus.exposition_us", "us");
    ("prometheus.exposition_bytes", "B");
    ("prometheus.scrape_wait_us", "us");
    ("load.lateness_p99_ms", "ms");
    ("trace.overhead", "ratio");
    ("clock.read_ns", "ns");
  ]

type t = {
  mutable attempted : int;
  mutable failed : int;
  values : (string, float) Hashtbl.t;
  raw : (string, float) Hashtbl.t;  (** timings before scaling to the nominal host *)
}

let create () =
  { attempted = 0; failed = 0; values = Hashtbl.create 64; raw = Hashtbl.create 8 }

let set r name v = Hashtbl.replace r.values name v

(* End-to-end timings are reported at the yardstick's nominal host speed
   (see Probe.yardstick), with the raw figure printed beside them. *)
let set_scaled r name ~raw ~scaled =
  set r name scaled;
  Hashtbl.replace r.raw name raw

(* [samples] pairs each pass's reading with the host slowdown around
   that pass; the metric is the median of the scaled readings. *)
let time_median r name samples =
  set_scaled r name
    ~raw:(Probe.median_float (List.map fst samples))
    ~scaled:(Probe.median_float (List.map (fun (v, slowdown) -> v /. slowdown) samples))

let rate_median r name samples =
  set_scaled r name
    ~raw:(Probe.median_float (List.map fst samples))
    ~scaled:(Probe.median_float (List.map (fun (v, slowdown) -> v *. slowdown) samples))

(* A failed output check: says which one, on stdout, and returns
   [false] so callers can count the ops it spoils. *)
let check ok ~name detail =
  if not ok then Printf.printf "check failed: %s: %s\n%!" name (Lazy.force detail);
  ok

(* Equal up to float rounding (and the 12 digits /metrics prints). *)
let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* JSON has no NaN or infinity; a non-finite reading is a failed run. *)
let json_number r v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    r.failed <- max r.failed 1;
    "-1"
  end

let print r ~trace =
  let catalog = if trace then per_layer else end_to_end in
  if r.attempted < 1 then r.attempted <- 1;
  let readings = !Probe.yard_samples in
  Printf.printf "host speed: yardstick median %.3f ms over %d readings, %.3fx the nominal %.1f ms\n"
    (Probe.median_float readings *. Probe.yard_nominal_ns *. 1e-6)
    (List.length readings) (Probe.median_float readings) (Probe.yard_nominal_ns *. 1e-6);
  List.iter
    (fun (name, unit) ->
      let v = Option.value (Hashtbl.find_opt r.values name) ~default:0.0 in
      match Hashtbl.find_opt r.raw name with
      | Some raw -> Printf.printf "%-32s %16.6g %-10s (raw %.6g)\n" name v unit raw
      | None -> Printf.printf "%-32s %16.6g %s\n" name v unit)
    catalog;
  Printf.printf "error_rate %.6g (%d failed of %d ops)\n"
    (float_of_int r.failed /. float_of_int r.attempted)
    r.failed r.attempted;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (Hashtbl.find_opt r.values name) ~default:0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number r v) unit)
      catalog
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)
