(* Entry point of the end-to-end benchmark.  run.py builds this and
   bin/dcache.exe, then runs

     bench.exe --workload W --seed N --seconds S --trace 0|1 --dcache PATH

   The last line of standard output is the result as one JSON object;
   see perfbench/README.md for the workloads and metrics. *)

let usage =
  "bench.exe --workload stream-m64|offline-plan|serve-items --seed N --seconds S --trace 0|1 \
   [--dcache PATH] [--work-dir DIR] [--tiny] [--inject-inflate F]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let dcache = ref "_build/default/bin/dcache.exe" and work_dir = ref ".bench_build/perfbench" in
  let tiny = ref false and inflate = ref 1.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--dcache", Arg.Set_string dcache, "PATH the dcache binary serve-items runs");
      ("--work-dir", Arg.Set_string work_dir, "DIR for the corpus, runtime events and spans");
      ("--tiny", Arg.Set tiny, " small inputs, for the self-test");
      ("--inject-inflate", Arg.Set_float inflate, "F inflate the online cost the checks see");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  Probe.mkdir_p !work_dir;
  (* a traced run leaves its span buffer here *)
  let spans_out = Filename.concat !work_dir ("spans-" ^ !workload ^ ".csv") in
  let r = Out.create () in
  let clock_ns = Probe.clock_read_ns () in
  Printf.printf "clock: bechamel monotonic clock, %.1f ns per read\n%!" clock_ns;
  (match !workload with
  | "stream-m64" ->
      let n = if !tiny then 5_000 else 250_000 in
      Stream_wl.run r ~seed:!seed ~seconds:!seconds ~trace ~inflate:!inflate ~clock_ns
        ~spans_out ~n
  | "offline-plan" ->
      Offline_wl.run r ~seed:!seed ~seconds:!seconds ~trace ~inflate:!inflate ~clock_ns
        ~spans_out ~tiny:!tiny ~work_dir:!work_dir
  | "serve-items" ->
      Serve_wl.run r ~seed:!seed ~seconds:!seconds ~trace ~inflate:!inflate ~clock_ns
        ~spans_out ~tiny:!tiny ~dcache:!dcache ~work_dir:!work_dir
  | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2);
  Out.print r ~trace
