(* Golden error lists of [Schedule.validate] on mutated schedules.

   For each bundled trace, the optimal and the SC schedule are broken
   in fixed ways (a dropped cache, a shifted transfer, a gap with no
   copy, a transfer from a dead source, pieces on unknown servers,
   nested and overlapping caches, times within eps of each other) and
   every violation [validate] reports is printed in its order.  dune
   diffs the output against validate_golden.expected; after an intended
   change to the messages, [dune promote] refreshes it. *)

open Dcache_core

let model = Cost_model.make ~mu:1.0 ~lambda:1.0 ()

let print_result name seq sched =
  Printf.printf "## %s\n" name;
  match Schedule.validate seq sched with
  | Ok () -> print_endline "ok"
  | Error es -> List.iter (fun e -> Printf.printf "- %s\n" e) es

let rebuild ?(caches = fun cs -> cs) ?(transfers = fun ts -> ts) sched =
  Schedule.make ~caches:(caches (Schedule.caches sched))
    ~transfers:(transfers (Schedule.transfers sched))

let drop_nth k xs = List.filteri (fun i _ -> i <> k) xs
let map_nth k f xs = List.mapi (fun i x -> if i = k then f x else x) xs

let longest caches =
  List.fold_left
    (fun best c ->
      let len c = c.Schedule.to_time -. c.Schedule.from_time in
      if len c > len best then c else best)
    (List.hd caches) caches

(* Cuts [lo, hi] out of every cache interval: a window with no copy. *)
let cut ~lo ~hi caches =
  List.concat_map
    (fun (c : Schedule.cache) ->
      if c.to_time <= lo || c.from_time >= hi then [ c ]
      else
        (if c.from_time < lo then [ { c with to_time = lo } ] else [])
        @ if c.to_time > hi then [ { c with from_time = hi } ] else [])
    caches

(* The first server-sourced transfer that can be re-pointed at a server
   holding no copy at its time, paired with its re-pointed copy. *)
let dead_source seq sched =
  let m = Sequence.m seq in
  let rec pick = function
    | [] -> None
    | ({ Schedule.src = From_server _; dst; time } as tr) :: rest -> (
        let dead =
          List.find_opt
            (fun s ->
              s <> dst
              && (not (Schedule.holds_copy_at sched ~server:s ~time))
              && not (s = 0 && time = 0.0))
            (List.init m Fun.id)
        in
        match dead with
        | Some s -> Some (tr, { tr with src = From_server s })
        | None -> pick rest)
    | { src = From_external; _ } :: rest -> pick rest
  in
  pick (Schedule.transfers sched)

let mutations seq sched =
  let m = Sequence.m seq and h = Sequence.horizon seq in
  let caches = Schedule.caches sched and transfers = Schedule.transfers sched in
  let nc = List.length caches and nt = List.length transfers in
  let (mid_tr : Schedule.transfer) = List.nth transfers (nt / 2) in
  let (long : Schedule.cache) = longest caches in
  let span = long.to_time -. long.from_time in
  [
    ("unmutated", Some sched);
    ("dropped middle cache", Some (rebuild sched ~caches:(drop_nth (nc / 2))));
    ("dropped first cache", Some (rebuild sched ~caches:(drop_nth 0)));
    ("dropped middle transfer", Some (rebuild sched ~transfers:(drop_nth (nt / 2))));
    ( "shifted transfer",
      Some
        (rebuild sched
           ~transfers:(map_nth (nt / 2) (fun (tr : Schedule.transfer) -> { tr with time = tr.time +. 0.37 })))
    );
    ( "gap with no copy",
      Some (rebuild sched ~caches:(cut ~lo:(h /. 2.) ~hi:((h /. 2.) +. (h /. 50.)))) );
    ( "transfer from a dead source",
      Option.map
        (fun (orig, dead) ->
          rebuild sched ~transfers:(List.map (fun tr -> if tr = orig then dead else tr)))
        (dead_source seq sched) );
    ( "pieces on unknown servers",
      Some
        (rebuild sched
           ~caches:(fun cs ->
             { Schedule.server = m; from_time = h /. 4.; to_time = h /. 2. }
             :: { server = m + 2; from_time = 0.0; to_time = h /. 8. }
             :: cs)
           ~transfers:(fun ts ->
             { Schedule.src = From_server m; dst = 0; time = h /. 3. }
             :: { src = From_server (m + 1); dst = 1 mod m; time = h /. 5. }
             :: { src = From_server 0; dst = m + 2; time = h /. 7. }
             :: ts)) );
    ( "nested cache",
      Some
        (rebuild sched ~caches:(fun cs ->
             {
               long with
               from_time = long.from_time +. (span /. 3.);
               to_time = long.to_time -. (span /. 3.);
             }
             :: cs)) );
    ( "overlapping cache",
      Some
        (rebuild sched ~caches:(fun cs ->
             {
               long with
               from_time = long.from_time +. (span /. 2.);
               to_time = long.to_time +. span;
             }
             :: cs)) );
    ( "times within eps",
      Some
        (rebuild sched
           ~caches:(fun cs ->
             (* split the longest cache with a sub-eps gap, and start a
                copy just past a transfer's arrival *)
             let z = long.from_time +. (span /. 2.) in
             let gap = 4e-10 *. Float.max 1.0 z in
             { long with to_time = z }
             :: { long with from_time = z +. gap }
             :: { Schedule.server = mid_tr.dst; from_time = mid_tr.time +. (3e-10 *. Float.max 1.0 mid_tr.time);
                  to_time = mid_tr.time +. 0.001 }
             :: List.filter (( <> ) long) cs)
           ~transfers:(fun ts ->
             (* one arrival nudged inside eps, one just outside it *)
             List.concat_map
               (fun (tr : Schedule.transfer) ->
                 if tr = mid_tr then
                   [ { tr with time = tr.time +. (5e-10 *. Float.max 1.0 tr.time) } ]
                 else [ tr ])
               ts
             @ [
                 {
                   mid_tr with
                   Schedule.time = mid_tr.time +. (2.5e-9 *. Float.max 1.0 mid_tr.time);
                 };
               ])) );
  ]

let report label seq sched =
  List.iter
    (fun (name, mutated) ->
      match mutated with
      | Some s -> print_result (Printf.sprintf "%s: %s" label name) seq s
      | None -> Printf.printf "## %s: %s\nno candidate\n" label name)
    (mutations seq sched)

let trace filename m =
  match Dcache_workload.Trace_io.read ~filename ~m with
  | Ok seq -> seq
  | Error msg -> failwith (filename ^ ": " ^ msg)

(* Requests closer together than eps: the optimum and SC both see
   near-coincident times on distinct servers. *)
let close_seq =
  Sequence.of_list ~m:3
    [
      (1, 0.5);
      (2, 1.0);
      (1, 1.0 +. 5e-10);
      (0, 1.0 +. 1e-9);
      (2, 2.0);
      (2, 2.0 +. 1e-12);
      (1, 3.0);
    ]

let () =
  List.iter
    (fun (label, seq) ->
      let opt = Offline_dp.schedule (Offline_dp.solve model seq) in
      let sc = Online_sc.schedule_of_run seq (Online_sc.run model seq) in
      report (label ^ " opt") seq opt;
      report (label ^ " sc") seq sc)
    [
      ("15041", trace "data/15041.events" 6);
      ("17018", trace "data/17018.events" 4);
      ("close", close_seq);
    ]
