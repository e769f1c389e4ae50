(* Schedule.validate and Schedule.is_standard_form against O(n·k)
   reference scans.  The reference is the direct reading of each
   constraint: for every piece or request, a List.exists over every
   cache or transfer.  The library sweeps must return the identical
   [Ok ()] / [Error list] (same strings, same order) on valid schedules
   and on randomly mutated ones, including pieces on unknown servers,
   nested intervals and times within eps of each other. *)

open Dcache_core
open Helpers

module Reference = struct
  let eq = Dcache_prelude.Float_cmp.approx_eq

  let holds_copy_at caches ~server ~time =
    List.exists
      (fun (c : Schedule.cache) -> c.server = server && c.from_time <= time && time <= c.to_time)
      caches

  let validate seq t =
    let caches = Schedule.caches t and transfers = Schedule.transfers t in
    let errors = ref [] in
    let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
    let horizon = Sequence.horizon seq in
    let m = Sequence.m seq in
    List.iter
      (fun (c : Schedule.cache) ->
        if c.server >= m then err "cache on unknown server s%d" c.server;
        if c.to_time > horizon +. Dcache_prelude.Float_cmp.default_eps then
          err "dead-end cache on s%d beyond horizon (%g > %g)" c.server c.to_time horizon)
      caches;
    List.iter
      (fun (tr : Schedule.transfer) ->
        if tr.dst >= m then err "transfer to unknown server s%d" tr.dst;
        (match tr.src with
        | From_server s when s >= m -> err "transfer from unknown server s%d" s
        | From_server _ | From_external -> ());
        if tr.time > horizon then err "transfer at %g beyond horizon %g" tr.time horizon)
      transfers;
    let rec check_overlaps = function
      | (a : Schedule.cache) :: ((b : Schedule.cache) :: _ as rest) ->
          if a.server = b.server && b.from_time < a.to_time && not (eq b.from_time a.to_time)
          then
            err "overlapping caches on s%d: [%g,%g] and [%g,%g]" a.server a.from_time
              a.to_time b.from_time b.to_time;
          check_overlaps rest
      | [ _ ] | [] -> ()
    in
    check_overlaps caches;
    let incoming_transfer_at server time =
      List.exists (fun (tr : Schedule.transfer) -> tr.dst = server && eq tr.time time) transfers
    in
    let preceding_cache_at server time =
      List.exists (fun (c : Schedule.cache) -> c.server = server && eq c.to_time time) caches
    in
    List.iter
      (fun (c : Schedule.cache) ->
        let sourced =
          (c.server = 0 && eq c.from_time 0.0)
          || incoming_transfer_at c.server c.from_time
          || preceding_cache_at c.server c.from_time
        in
        if not sourced then err "unsourced cache on s%d starting at %g" c.server c.from_time)
      caches;
    List.iter
      (fun (tr : Schedule.transfer) ->
        match tr.src with
        | From_external -> ()
        | From_server s ->
            let holder = holds_copy_at caches ~server:s ~time:tr.time || (s = 0 && eq tr.time 0.0) in
            if not holder then err "transfer at %g departs from s%d which holds no copy" tr.time s)
      transfers;
    for i = 1 to Sequence.n seq do
      let s = Sequence.server seq i and ti = Sequence.time seq i in
      let by_cache =
        List.exists
          (fun (c : Schedule.cache) ->
            c.server = s
            && (c.from_time < ti || eq c.from_time ti)
            && (ti < c.to_time || eq c.to_time ti))
          caches
      in
      let by_transfer =
        List.exists (fun (tr : Schedule.transfer) -> tr.dst = s && eq tr.time ti) transfers
      in
      if not (by_cache || by_transfer) then err "request r%d at (s%d, %g) is not served" i s ti
    done;
    if horizon > 0. then begin
      let spans =
        List.map
          (fun (c : Schedule.cache) ->
            Dcache_prelude.Interval.make ~lo:c.from_time ~hi:c.to_time)
          caches
      in
      match Dcache_prelude.Interval.first_gap spans ~lo:0.0 ~hi:horizon with
      | Some (a, b) -> err "no copy cached anywhere during [%g, %g]" a b
      | None -> ()
    end;
    match !errors with [] -> Ok () | es -> Error (List.rev es)

  let is_standard_form seq t =
    let n = Sequence.n seq in
    let is_request dst time =
      let rec scan i =
        if i > n then false
        else if Sequence.server seq i = dst && eq (Sequence.time seq i) time then true
        else scan (i + 1)
      in
      scan 1
    in
    List.for_all (fun (tr : Schedule.transfer) -> is_request tr.dst tr.time) (Schedule.transfers t)
end

(* ------------------------------------------------------------ mutation *)

(* One edit of a schedule's piece lists.  [idx] picks the piece (mod the
   list length), [server] a server in [0, m + 1] (so m and m + 1 are
   unknown), [amount] a shift that is either O(1) or a few eps. *)
type edit = { kind : int; idx : int; server : int; amount : float }

let num_kinds = 12

let pp_edit { kind; idx; server; amount } =
  Printf.sprintf "{kind=%d idx=%d server=%d amount=%h}" kind idx server amount

let well_formed_cache (c : Schedule.cache) =
  c.server >= 0 && Float.is_finite c.from_time && Float.is_finite c.to_time && c.from_time >= 0.
  && c.to_time > c.from_time

let well_formed_transfer (tr : Schedule.transfer) =
  tr.dst >= 0 && Float.is_finite tr.time && tr.time >= 0.
  && match tr.src with From_server s -> s >= 0 && s <> tr.dst | From_external -> true

let nth_opt xs k = match xs with [] -> None | _ -> List.nth_opt xs (k mod List.length xs)
let without x xs = List.filteri (fun i _ -> i <> x) xs

(* Applies [e] to (caches, transfers); an edit that would produce a
   malformed piece (one [Schedule.make] rejects) is skipped. *)
let apply seq (caches, transfers) e =
  let n = Sequence.n seq in
  let request_time k = if n = 0 then 0.0 else Sequence.time seq (1 + (k mod n)) in
  let scaled t = e.amount *. Float.max 1.0 (Float.abs t) in
  let keep_caches cs = if List.for_all well_formed_cache cs then (cs, transfers) else (caches, transfers) in
  let keep_transfers ts =
    if List.for_all well_formed_transfer ts then (caches, ts) else (caches, transfers)
  in
  let nc = max 1 (List.length caches) and nt = max 1 (List.length transfers) in
  let ci = e.idx mod nc and ti = e.idx mod nt in
  let map_cache f = keep_caches (List.mapi (fun i c -> if i = ci then f c else c) caches) in
  let map_transfer f = keep_transfers (List.mapi (fun i t -> if i = ti then f t else t) transfers) in
  match (e.kind, nth_opt caches e.idx) with
  | 0, Some _ -> (without ci caches, transfers)
  | 1, _ -> (caches, without ti transfers)
  | 2, Some _ -> map_cache (fun c -> { c with from_time = c.from_time +. scaled c.from_time })
  | 3, Some _ -> map_cache (fun c -> { c with to_time = c.to_time +. scaled c.to_time })
  | 4, _ -> map_transfer (fun tr -> { tr with time = tr.time +. scaled tr.time })
  | 5, _ -> map_transfer (fun tr -> { tr with src = From_server e.server })
  | 6, _ -> map_transfer (fun tr -> { tr with dst = e.server })
  | 7, _ ->
      let from_time = request_time e.idx +. scaled (request_time e.idx) in
      keep_caches
        ({ Schedule.server = e.server; from_time; to_time = from_time +. 0.25 +. Float.abs e.amount }
        :: caches)
  | 8, _ ->
      let time = request_time e.idx +. scaled (request_time e.idx) in
      keep_transfers
        ({ Schedule.src = From_server (e.idx mod (Sequence.m seq + 1)); dst = e.server; time }
        :: transfers)
  | 9, Some c ->
      (* split with a gap (or an overlap, for a negative amount) *)
      let z = (c.from_time +. c.to_time) /. 2. in
      keep_caches
        ({ c with to_time = z } :: { c with from_time = z +. scaled z } :: without ci caches)
  | 10, Some c -> (c :: caches, transfers)
  | 11, Some c ->
      let third = (c.to_time -. c.from_time) /. 3. in
      keep_caches
        ({ c with from_time = c.from_time +. third; to_time = c.to_time -. third } :: caches)
  | _, _ ->
      keep_transfers
        ({ Schedule.src = From_external; dst = e.server; time = request_time e.idx } :: transfers)

let mutate seq sched edits =
  let caches, transfers =
    List.fold_left (apply seq) (Schedule.caches sched, Schedule.transfers sched) edits
  in
  Schedule.make ~caches ~transfers

(* Instances whose times may sit within eps of each other or far from
   the origin, where eps is relative. *)
let instance_gen =
  let open QCheck.Gen in
  let* m = int_range 1 5 in
  let* n = int_range 0 40 in
  let* offset = oneofl [ 0.0; 0.0; 1e3; 1e6 ] in
  let* gaps =
    array_size (return n) (frequency [ (4, float_range 0.01 3.0); (1, float_range 1e-10 3e-9) ])
  in
  let* servers = array_size (return n) (int_range 0 (m - 1)) in
  let clock = ref offset in
  let requests =
    Array.map2
      (fun gap server ->
        clock := !clock +. (gap *. Float.max 1.0 !clock);
        Request.make ~server ~time:!clock)
      gaps servers
  in
  let* mu = float_range 0.2 3.0 and* lambda = float_range 0.2 3.0 in
  let* online = bool in
  return (Cost_model.make ~mu ~lambda (), Sequence.create_exn ~m requests, online)

let edit_gen m =
  let open QCheck.Gen in
  let* kind = int_range 0 (num_kinds - 1) and* idx = int_range 0 1000 in
  let* server = int_range 0 (m + 1) in
  let+ amount =
    oneof
      [
        float_range (-1.0) 1.0;
        map (fun k -> float_of_int k *. 3e-10) (int_range (-8) 8);
        return 0.0;
      ]
  in
  { kind; idx; server; amount }

type case = { model : Cost_model.t; seq : Sequence.t; online : bool; edits : edit list }

let case_arbitrary =
  let gen =
    QCheck.Gen.(
      let* model, seq, online = instance_gen in
      let+ edits = list_size (int_range 0 5) (edit_gen (Sequence.m seq)) in
      { model; seq; online; edits })
  in
  let print { model; seq; online; edits } =
    Format.asprintf "%a with %a, %s schedule, edits [%s]" Sequence.pp seq Cost_model.pp model
      (if online then "SC" else "optimal")
      (String.concat "; " (List.map pp_edit edits))
  in
  QCheck.make ~print gen

let base_schedule { model; seq; online; _ } =
  if online then Online_sc.schedule_of_run seq (Online_sc.run model seq)
  else Offline_dp.schedule (Offline_dp.solve model seq)

let show = function Ok () -> "Ok" | Error es -> String.concat "\n" es

let validate_matches_reference =
  qcheck ~count:2000 "validate returns the reference scan's verdict, error for error"
    case_arbitrary (fun c ->
      let sched = mutate c.seq (base_schedule c) c.edits in
      let got = Schedule.validate c.seq sched and want = Reference.validate c.seq sched in
      if got = want then true
      else QCheck.Test.fail_reportf "got:\n%s\nwant:\n%s" (show got) (show want))

let standard_form_matches_reference =
  qcheck ~count:1000 "is_standard_form agrees with the reference scan" case_arbitrary (fun c ->
      let sched = mutate c.seq (base_schedule c) c.edits in
      Bool.equal (Schedule.is_standard_form c.seq sched) (Reference.is_standard_form c.seq sched))

(* The unmutated schedules of both solvers are valid on long instances
   too, where a quadratic scan would show. *)
let valid_on_large_instances () =
  List.iter
    (fun (n, m) ->
      let seq = large_instance ~n ~m in
      let model = Cost_model.make ~mu:1.0 ~lambda:2.0 () in
      let opt = Offline_dp.schedule (Offline_dp.solve model seq) in
      let sc = Online_sc.schedule_of_run seq (Online_sc.run model seq) in
      List.iter
        (fun (name, sched) ->
          match Schedule.validate seq sched with
          | Ok () -> ()
          | Error es -> Alcotest.failf "%s n=%d m=%d: %s" name n m (String.concat "; " es))
        [ ("optimal", opt); ("sc", sc) ];
      Alcotest.(check bool) "optimal in standard form" true (Schedule.is_standard_form seq opt))
    [ (20_000, 4); (20_000, 64) ]

let suite =
  [
    validate_matches_reference;
    standard_form_matches_reference;
    case "validate: long optimal and SC schedules pass" valid_on_large_instances;
  ]
