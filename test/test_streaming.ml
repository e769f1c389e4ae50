(* Tests for the streaming (incremental) solver: prefix optima and
   the per-request log against the batch and full-scan solvers,
   mid-stream reconstruction, validation, the cost-only kernel's
   bit-identity and bounded state, and metamorphic properties of the
   optimum. *)

open Dcache_core
open Helpers

(* -------------------------------------------------------- streaming *)

let feed stream seq upto =
  for i = 1 to upto do
    Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
  done

let prefix_optima_match_batch =
  qcheck ~count:200 "streaming: every prefix optimum equals the batch solver's"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
      let ok = ref true in
      for i = 1 to Sequence.n seq do
        Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i);
        let batch = Offline_dp.cost (Offline_dp.solve model (Sequence.sub seq i)) in
        if not (approx (Streaming_dp.cost stream) batch) then ok := false
      done;
      !ok)

let schedule_between_pushes =
  qcheck ~count:100 "streaming: schedules requested mid-stream are feasible and optimal"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
      let k = max 1 (Sequence.n seq / 2) in
      feed stream seq k;
      let mid_sched = Streaming_dp.schedule stream in
      let mid_ok =
        (match Schedule.validate (Sequence.sub seq k) mid_sched with
        | Ok () -> true
        | Error _ -> false)
        && approx (Schedule.cost model mid_sched) (Streaming_dp.cost stream)
      in
      (* pushing more afterwards must still work *)
      for i = k + 1 to Sequence.n seq do
        Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i)
      done;
      mid_ok && approx (Streaming_dp.cost stream) (Offline_dp.cost (Offline_dp.solve model seq)))

let log_matches_full_scan =
  (* exercises the log well past its growth boundaries (initial
     capacity 64, doubling) and across wide server counts, against the
     structure-free full-scan oracle *)
  qcheck ~count:8 "streaming: logged C/D equal the full-scan oracle on large instances"
    large_size_arbitrary
    (fun (n, m) ->
      let seq = large_instance ~n ~m in
      let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
      let c, d = Dcache_baselines.Naive_dp.solve_vectors model seq in
      let stream = Streaming_dp.create model ~m in
      feed stream seq n;
      let ok = ref true in
      for i = 1 to n do
        if
          not
            (approx ~eps:1e-6 c.(i) (Streaming_dp.cost_at stream i)
            && approx ~eps:1e-6 d.(i) (Streaming_dp.semi_cost_at stream i))
        then ok := false
      done;
      !ok)

let streaming_accessors () =
  let model = Cost_model.unit in
  let stream = Streaming_dp.create model ~m:4 in
  Alcotest.(check int) "empty n" 0 (Streaming_dp.n stream);
  check_float "empty cost" 0.0 (Streaming_dp.cost stream);
  let seq = fig6 () in
  feed stream seq 8;
  Alcotest.(check int) "n" 8 (Streaming_dp.n stream);
  check_float "C(7)" 8.9 (Streaming_dp.cost_at stream 7);
  check_float "D(7)" 9.2 (Streaming_dp.semi_cost_at stream 7);
  check_float "b_6" 0.6 (Streaming_dp.marginal_at stream 6);
  check_float "B_6" 5.6 (Streaming_dp.running_at stream 6);
  Alcotest.(check (option int)) "pivot of 7" (Some 4) (Streaming_dp.pivot_at stream 7)

let schedule_memo () =
  let seq = fig6 () in
  let model = Cost_model.unit in
  let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
  feed stream seq (Sequence.n seq - 1) ;
  let a = Streaming_dp.schedule stream in
  Alcotest.(check bool) "repeat request is physically equal" true
    (Streaming_dp.schedule stream == a);
  (* a push invalidates the memo: the new schedule is rebuilt, and it
     must cover the longer prefix *)
  let i = Sequence.n seq in
  Streaming_dp.push stream ~server:(Sequence.server seq i) ~time:(Sequence.time seq i);
  let b = Streaming_dp.schedule stream in
  Alcotest.(check bool) "push invalidates the memo" true (not (b == a));
  (match Schedule.validate seq b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-push schedule invalid: %s" (String.concat "; " e));
  check_float "post-push schedule is optimal" (Streaming_dp.cost stream) (Schedule.cost model b);
  Alcotest.(check bool) "memo re-primed" true (Streaming_dp.schedule stream == b)

(* warm reconstruction must be allocation-free: after the first
   [schedule] call the memo answers from the log without
   touching the minor heap (the perf gate enforces the same budget on
   the n = 1000 instance; this is the in-suite regression) *)
let schedule_memo_alloc_free () =
  let rng = Dcache_prelude.Rng.create 97 in
  let clock = ref 0.0 in
  let requests =
    Array.init 500 (fun _ ->
        clock := !clock +. Dcache_prelude.Rng.float_in rng 0.05 0.7;
        Request.make ~server:(Dcache_prelude.Rng.int rng 8) ~time:!clock)
  in
  let seq = Sequence.create_exn ~m:8 requests in
  let stream = Streaming_dp.create (Cost_model.make ~mu:1.0 ~lambda:2.0 ()) ~m:8 in
  feed stream seq 500;
  ignore (Streaming_dp.schedule stream);
  (* calibrate away the cost of the Gc.minor_words probe itself (it
     boxes its float result) *)
  let calib = Gc.minor_words () in
  let calib = Gc.minor_words () -. calib in
  let before = Gc.minor_words () in
  let runs = 64 in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (Streaming_dp.schedule stream))
  done;
  let words = ((Gc.minor_words () -. before) -. calib) /. float_of_int runs in
  if words >= 1000.0 then
    Alcotest.failf "warm schedule reconstruction allocates %.1f minor words/run (budget 1000)"
      words

let to_sequence_roundtrip =
  qcheck ~count:100 "streaming: to_sequence returns exactly what was pushed"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let stream = Streaming_dp.create model ~m:(Sequence.m seq) in
      feed stream seq (Sequence.n seq);
      Sequence.requests (Streaming_dp.to_sequence stream) = Sequence.requests seq)

let push_validation () =
  let stream = Streaming_dp.create Cost_model.unit ~m:2 in
  Streaming_dp.push stream ~server:1 ~time:1.0;
  List.iter
    (fun f -> Alcotest.(check bool) "rejected" true (try f (); false with Invalid_argument _ -> true))
    [
      (fun () -> Streaming_dp.push stream ~server:2 ~time:2.0);
      (fun () -> Streaming_dp.push stream ~server:(-1) ~time:2.0);
      (fun () -> Streaming_dp.push stream ~server:0 ~time:1.0);
      (fun () -> Streaming_dp.push stream ~server:0 ~time:0.5);
      (fun () -> Streaming_dp.push stream ~server:0 ~time:nan);
    ];
  (* the failed pushes must not have corrupted the solver *)
  Streaming_dp.push stream ~server:0 ~time:2.0;
  Alcotest.(check int) "still consistent" 2 (Streaming_dp.n stream)

let create_validation () =
  Alcotest.(check bool) "m = 0" true
    (try ignore (Streaming_dp.create Cost_model.unit ~m:0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------- metamorphic properties *)

let insertion_monotone =
  qcheck ~count:150 "metamorphic: serving one more request never costs less"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      (* drop a random-ish middle request and compare *)
      let n = Sequence.n seq in
      let drop = 1 + (n / 2) in
      let smaller =
        Sequence.create_exn ~m:(Sequence.m seq)
          (Array.of_list
             (List.filteri (fun i _ -> i + 1 <> drop) (Array.to_list (Sequence.requests seq))))
      in
      Dcache_prelude.Float_cmp.approx_le
        (Offline_dp.cost (Offline_dp.solve model smaller))
        (Offline_dp.cost (Offline_dp.solve model seq)))

let time_scale_invariance =
  qcheck ~count:150 "metamorphic: stretching time while shrinking mu preserves the optimum"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let factor = 3.0 in
      let stretched =
        Sequence.create_exn ~m:(Sequence.m seq)
          (Array.map
             (fun r -> { r with Request.time = r.Request.time *. factor })
             (Sequence.requests seq))
      in
      let rescaled =
        Cost_model.make ~mu:(model.Cost_model.mu /. factor) ~lambda:model.Cost_model.lambda ()
      in
      approx ~eps:1e-6
        (Offline_dp.cost (Offline_dp.solve model seq))
        (Offline_dp.cost (Offline_dp.solve rescaled stretched)))

(* Shifting every request by T only lengthens the wait for the first
   request: the optimum and SC both hold the initial copy on s0 over
   the extra [0, T], so each grows by exactly mu * T (and their regret
   does not move).  Checked to 1e-12 relative at T up to 1e6, where
   the floats of a 4000-request stream still resolve its gaps. *)
let time_shift_invariance () =
  let model = Cost_model.make ~mu:0.7 ~lambda:2.0 () in
  let seq =
    Dcache_workload.Generator.generate_seeded ~seed:7
      {
        Dcache_workload.Generator.m = 8;
        n = 4000;
        arrival = Dcache_workload.Arrival.Poisson { rate = 1.0 };
        placement = Dcache_workload.Placement.Uniform_random;
      }
  in
  let shifted by =
    Sequence.create_exn ~m:8
      (Array.map (fun r -> { r with Request.time = r.Request.time +. by }) (Sequence.requests seq))
  in
  let opt s =
    let k = Streaming_dp.Cost.create model ~m:8 in
    for i = 1 to Sequence.n s do
      Streaming_dp.Cost.push k ~server:(Sequence.server s i) ~time:(Sequence.time s i)
    done;
    Streaming_dp.Cost.cost k
  in
  let sc s = (Online_sc.run model s).Online_sc.total_cost in
  let base_opt = opt seq and base_sc = sc seq in
  List.iter
    (fun by ->
      let s = shifted by and hold = model.Cost_model.mu *. by in
      List.iter
        (fun (name, base, cost) ->
          let want = base +. hold in
          let rel = Float.abs (cost -. want) /. want in
          if rel > 1e-12 then
            Alcotest.failf "T=%g: %s cost %.17g, want %.17g (relative error %.3g)" by name cost
              want rel)
        [ ("optimal", base_opt, opt s); ("SC", base_sc, sc s) ])
    [ 1e3; 1e6 ]

let server_relabel_invariance =
  qcheck ~count:150 "metamorphic: permuting non-initial server labels preserves the optimum"
    (nonempty_problem_arbitrary ())
    (fun { model; seq } ->
      let m = Sequence.m seq in
      (* rotate labels 1..m-1, keeping the initial holder fixed *)
      let relabel s = if s = 0 then 0 else 1 + ((s - 1 + 1) mod (m - 1)) in
      if m < 3 then true
      else
        let rotated =
          Sequence.create_exn ~m
            (Array.map
               (fun r -> { r with Request.server = relabel r.Request.server })
               (Sequence.requests seq))
        in
        approx ~eps:1e-6
          (Offline_dp.cost (Offline_dp.solve model seq))
          (Offline_dp.cost (Offline_dp.solve model rotated)))

let exchange_local_optimality =
  qcheck ~count:80 "metamorphic: no cache interval of OPT can be swapped for a transfer"
    (nonempty_problem_arbitrary ~max_n:10 ())
    (fun { model; seq } ->
      (* removing any single cache interval that ends at a request and
         serving that request by a transfer instead must not beat OPT
         (it cannot, since OPT is optimal — we rebuild the mutated
         schedule and check it is never cheaper while feasible) *)
      let opt = Offline_dp.cost (Offline_dp.solve model seq) in
      let sched = Offline_dp.schedule (Offline_dp.solve model seq) in
      List.for_all
        (fun piece ->
          let others = List.filter (fun c -> c <> piece) (Schedule.caches sched) in
          let served_requests =
            List.filter
              (fun i ->
                Sequence.server seq i = piece.Schedule.server
                && approx (Sequence.time seq i) piece.Schedule.to_time)
              (List.init (Sequence.n seq) (fun i -> i + 1))
          in
          match served_requests with
          | [ i ] -> (
              (* try to serve r_i by a transfer from any other cacher *)
              let ti = Sequence.time seq i in
              let source =
                List.find_opt
                  (fun c ->
                    c.Schedule.server <> piece.Schedule.server
                    && c.Schedule.from_time <= ti && ti <= c.Schedule.to_time)
                  others
              in
              match source with
              | None -> true (* no feasible mutation *)
              | Some src ->
                  let mutated =
                    Schedule.make ~caches:others
                      ~transfers:
                        ({ Schedule.src = Schedule.From_server src.Schedule.server;
                           dst = piece.Schedule.server;
                           time = ti;
                         }
                        :: Schedule.transfers sched)
                  in
                  (match Schedule.validate seq mutated with
                  | Ok () -> Schedule.cost model mutated >= opt -. 1e-9
                  | Error _ -> true))
          | _ -> true)
        (Schedule.caches sched))

(* ---------------------------------------------- cost-only kernel *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Pushes [seq] into both kernels and checks [Streaming_dp.Cost.cost]
   against [Streaming_dp.cost] bit for bit at every prefix. *)
let cost_bits_match model seq =
  let m = Sequence.m seq in
  let full = Streaming_dp.create model ~m and lean = Streaming_dp.Cost.create model ~m in
  let ok = ref (same_bits (Streaming_dp.cost full) (Streaming_dp.Cost.cost lean)) in
  for i = 1 to Sequence.n seq do
    let server = Sequence.server seq i and time = Sequence.time seq i in
    Streaming_dp.push full ~server ~time;
    Streaming_dp.Cost.push lean ~server ~time;
    if not (same_bits (Streaming_dp.cost full) (Streaming_dp.Cost.cost lean)) then ok := false
  done;
  !ok && Streaming_dp.Cost.n lean = Sequence.n seq

let cost_kernel_bit_identical =
  qcheck ~count:300 "cost kernel: every prefix cost has Streaming_dp's exact bits"
    (nonempty_problem_arbitrary ~with_upload:true ())
    (fun { model; seq } -> cost_bits_match model seq)

(* Gaps mix near-ties (1e-9), ordinary spacing and gaps long enough
   that every copy expires, so both the pivot scan and the step
   branch win often. *)
let mixed_gap_instance ~seed ~m ~n =
  let rng = Dcache_prelude.Rng.create seed in
  let clock = ref 0.0 in
  let requests =
    Array.init n (fun _ ->
        let gap =
          match Dcache_prelude.Rng.int rng 4 with
          | 0 -> 1e-9
          | 1 -> Dcache_prelude.Rng.float_in rng 5.0 50.0
          | _ -> Dcache_prelude.Rng.float_in rng 0.01 1.0
        in
        clock := !clock +. gap;
        Request.make ~server:(Dcache_prelude.Rng.int rng m) ~time:!clock)
  in
  Sequence.create_exn ~m requests

let sweep_models =
  [
    ("mu=1 lambda=2", Cost_model.make ~mu:1.0 ~lambda:2.0 ());
    ("upload < lambda", Cost_model.make ~upload:0.7 ~mu:0.5 ~lambda:3.0 ());
    ("cheap transfers", Cost_model.make ~mu:4.0 ~lambda:0.1 ());
  ]

let cost_kernel_sweep () =
  List.iter
    (fun (m, n) ->
      List.iter
        (fun (label, model) ->
          let seq = mixed_gap_instance ~seed:((1000 * m) + n) ~m ~n in
          if not (cost_bits_match model seq) then
            Alcotest.failf "m=%d n=%d (%s): cost differs from Streaming_dp" m n label)
        sweep_models)
    [ (1, 2_000); (2, 10_000); (3, 10_000); (8, 10_000); (64, 10_000); (128, 4_000) ]

let cost_kernel_matches_naive () =
  let seq = mixed_gap_instance ~seed:7 ~m:5 ~n:600 in
  List.iter
    (fun (label, model) ->
      let c, _ = Dcache_baselines.Naive_dp.solve_vectors model seq in
      let lean = Streaming_dp.Cost.create model ~m:5 in
      for i = 1 to Sequence.n seq do
        Streaming_dp.Cost.push lean ~server:(Sequence.server seq i) ~time:(Sequence.time seq i);
        if i mod 75 = 0 || i = Sequence.n seq then
          check_float ~eps:1e-6 (Printf.sprintf "%s: C(%d)" label i) c.(i)
            (Streaming_dp.Cost.cost lean)
      done)
    sweep_models

(* The retained-bytes gate made exact: the state of an m = 64 kernel
   is the same size after 10^5 and after 10^6 pushes. *)
let cost_kernel_state_bounded () =
  let m = 64 in
  let lean = Streaming_dp.Cost.create (Cost_model.make ~mu:1.0 ~lambda:2.0 ()) ~m in
  let rng = Dcache_prelude.Rng.create 64 in
  let clock = ref 0.0 in
  let push_upto n =
    for _ = Streaming_dp.Cost.n lean + 1 to n do
      clock := !clock +. Dcache_prelude.Rng.float_in rng 0.001 0.1;
      Streaming_dp.Cost.push lean ~server:(Dcache_prelude.Rng.int rng m) ~time:!clock
    done
  in
  push_upto 100_000;
  let words_1e5 = Obj.reachable_words (Obj.repr lean) in
  push_upto 1_000_000;
  let words_1e6 = Obj.reachable_words (Obj.repr lean) in
  Alcotest.(check int) "pushed" 1_000_000 (Streaming_dp.Cost.n lean);
  Alcotest.(check int) "reachable words after 1e5 and 1e6 pushes" words_1e5 words_1e6

let cost_kernel_input_contract () =
  let lean = Streaming_dp.Cost.create Cost_model.unit ~m:3 in
  Streaming_dp.Cost.push lean ~server:1 ~time:1.0;
  Streaming_dp.Cost.push lean ~server:2 ~time:2.0;
  let cost = Streaming_dp.Cost.cost lean in
  List.iter
    (fun (label, server, time) ->
      (match Streaming_dp.Cost.push lean ~server ~time with
      | () -> Alcotest.failf "%s: accepted" label
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) (label ^ ": n unchanged") 2 (Streaming_dp.Cost.n lean);
      Alcotest.(check bool) (label ^ ": cost unchanged") true
        (same_bits cost (Streaming_dp.Cost.cost lean)))
    [
      ("server = m", 3, 3.0);
      ("server < 0", -1, 3.0);
      ("nan time", 0, nan);
      ("infinite time", 0, infinity);
      ("equal time", 0, 2.0);
      ("earlier time", 0, 1.5);
    ];
  (* the rejected pushes left a kernel that still agrees with the full DP *)
  let full = Streaming_dp.create Cost_model.unit ~m:3 in
  List.iter
    (fun (server, time) ->
      Streaming_dp.push full ~server ~time;
      if time > 2.0 then Streaming_dp.Cost.push lean ~server ~time)
    [ (1, 1.0); (2, 2.0); (0, 3.0); (1, 3.5) ];
  Alcotest.(check bool) "still bit-identical" true
    (same_bits (Streaming_dp.cost full) (Streaming_dp.Cost.cost lean));
  List.iter
    (fun m ->
      match Streaming_dp.Cost.create Cost_model.unit ~m with
      | _ -> Alcotest.failf "m = %d accepted" m
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

let suite =
  [
    prefix_optima_match_batch;
    log_matches_full_scan;
    schedule_between_pushes;
    case "streaming: accessors on fig6" streaming_accessors;
    case "streaming: schedule memo and push invalidation" schedule_memo;
    case "streaming: warm reconstruction is allocation-free" schedule_memo_alloc_free;
    to_sequence_roundtrip;
    case "streaming: push validation" push_validation;
    case "streaming: create validation" create_validation;
    cost_kernel_bit_identical;
    case "cost kernel: mixed-gap sweep equals Streaming_dp bit for bit" cost_kernel_sweep;
    case "cost kernel: prefix costs equal Naive_dp" cost_kernel_matches_naive;
    case "cost kernel: state does not grow with the stream" cost_kernel_state_bounded;
    case "cost kernel: rejected pushes leave the state untouched" cost_kernel_input_contract;
    insertion_monotone;
    time_scale_invariance;
    server_relabel_invariance;
    case "metamorphic: shifting time by T adds mu*T to the optimum and to SC"
      time_shift_invariance;
    exchange_local_optimality;
  ]
