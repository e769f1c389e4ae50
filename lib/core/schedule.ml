type cache = { server : int; from_time : float; to_time : float }

type source = From_server of int | From_external

type transfer = { src : source; dst : int; time : float }

type t = { caches : cache list; transfers : transfer list }

let compare_cache a b =
  match Int.compare a.server b.server with
  | 0 -> (
      match Float.compare a.from_time b.from_time with
      | 0 -> Float.compare a.to_time b.to_time
      | c -> c)
  | c -> c

let compare_transfer a b =
  match Float.compare a.time b.time with 0 -> Int.compare a.dst b.dst | c -> c

let check_cache c =
  if c.server < 0 then invalid_arg "Schedule: cache on negative server";
  if not (Float.is_finite c.from_time && Float.is_finite c.to_time) then
    invalid_arg "Schedule: non-finite cache endpoint";
  if c.from_time < 0. then invalid_arg "Schedule: cache starts before time 0";
  if c.to_time <= c.from_time then invalid_arg "Schedule: empty or reversed cache interval"

let check_transfer tr =
  if tr.dst < 0 then invalid_arg "Schedule: transfer to negative server";
  if not (Float.is_finite tr.time) || tr.time < 0. then
    invalid_arg "Schedule: transfer at invalid time";
  match tr.src with
  | From_server s ->
      if s < 0 then invalid_arg "Schedule: transfer from negative server";
      if s = tr.dst then invalid_arg "Schedule: transfer source equals destination"
  | From_external -> ()

let make ~caches ~transfers =
  List.iter check_cache caches;
  List.iter check_transfer transfers;
  {
    caches = List.sort compare_cache caches;
    transfers = List.sort compare_transfer transfers;
  }

let empty = { caches = []; transfers = [] }

let caches t = t.caches
let transfers t = t.transfers

let kahan_sum_by f xs =
  let k = Dcache_prelude.Stats.kahan_create () in
  List.iter (fun x -> Dcache_prelude.Stats.kahan_add k (f x)) xs;
  Dcache_prelude.Stats.kahan_total k

let caching_cost model t =
  kahan_sum_by (fun c -> model.Cost_model.mu *. (c.to_time -. c.from_time)) t.caches

let transfer_cost model t =
  kahan_sum_by
    (fun tr ->
      match tr.src with
      | From_server _ -> model.Cost_model.lambda
      | From_external -> model.Cost_model.upload)
    t.transfers

let cost model t = caching_cost model t +. transfer_cost model t

let num_transfers t = List.length t.transfers

let num_copies_at t time =
  List.fold_left
    (fun acc c -> if c.from_time <= time && time <= c.to_time then acc + 1 else acc)
    0 t.caches

let holds_copy_at t ~server ~time =
  List.exists (fun c -> c.server = server && c.from_time <= time && time <= c.to_time) t.caches

let union a b = make ~caches:(a.caches @ b.caches) ~transfers:(a.transfers @ b.transfers)

(* -- validation ---------------------------------------------------------- *)

let eq = Dcache_prelude.Float_cmp.approx_eq

(* [eq a t] implies |a - t| <= eps * max(1, |a|, |t|) < 2 eps * max(1, |t|),
   so every piece time that can [eq] [t] lies in [t -. window t, t +. window t].
   The sweeps below skip what lies before that window for good (later
   lookups are at larger times) and apply the exact [eq] test inside it. *)
let[@inline] window t =
  2.0 *. Dcache_prelude.Float_cmp.default_eps *. if Float.abs t > 1.0 then Float.abs t else 1.0

(* The sweeps walk the sorted piece lists with plain recursive functions
   whose float arguments are record fields, so no float is boxed per
   step. *)

(* Drops the head of a time-sorted transfer list that ends before
   [time]'s window. *)
let rec transfers_from l time =
  match l with tr :: rest when tr.time < time -. window time -> transfers_from rest time | _ -> l

(* Some transfer to [dst] in the window at the head of [l] ends at [eq]
   [time]. *)
let rec transfer_at l dst time =
  match l with
  | tr :: rest when tr.time <= time +. window time ->
      (tr.dst = dst && eq tr.time time) || transfer_at rest dst time
  | _ -> false

(* Drops the caches of [server] whose end lies before [time]'s window,
   from the head of a list where that server's ends never decrease. *)
let rec ends_from l server time =
  match l with
  | c :: rest when c.server = server && c.to_time < time -. window time -> ends_from rest server time
  | _ -> l

(* Some cache of [server] in the window at the head of [l] (ends sorted)
   ends at [eq] [time]. *)
let rec end_at l server time =
  match l with
  | c :: rest when c.server = server && c.to_time <= time +. window time ->
      eq c.to_time time || end_at rest server time
  | _ -> false

(* The same question over the whole run of [server] at the head of [l],
   for runs whose ends are not sorted. *)
let rec end_in_run l server time =
  match l with
  | c :: rest when c.server = server -> eq c.to_time time || end_in_run rest server time
  | _ -> false

(* Some cache of [server] at the head of [l] starts after [time] but at
   [eq] [time]. *)
let rec start_at l server time =
  match l with
  | c :: rest when c.server = server && c.from_time <= time +. window time ->
      eq c.from_time time || start_at rest server time
  | _ -> false

let rec ends_sorted server prev = function
  | c :: rest when c.server = server -> prev <= c.to_time && ends_sorted server c.to_time rest
  | _ -> true

let no_cache = { server = -1; from_time = neg_infinity; to_time = neg_infinity }

(* Per-server cursors over the (server, start)-sorted cache list:
   [heads.(s)] is the first cache of [s] not yet passed, [reach.(s)]
   the passed cache of [s] with the latest end.  Lookups on one server
   come at non-decreasing times, so a cursor only moves forward. *)
let reset_cursors heads reach caches =
  Array.fill reach 0 (Array.length reach) no_cache;
  let m = Array.length heads in
  let rec index prev = function
    | [] -> ()
    | c :: rest as l ->
        if c.server <> prev && c.server < m then heads.(c.server) <- l;
        index c.server rest
  in
  Array.fill heads 0 m [];
  index (-1) caches

(* Passes the caches of [server] that start at or before [time]. *)
let rec advance heads reach server time l =
  match l with
  | c :: rest when c.server = server && c.from_time <= time ->
      if c.to_time > reach.(server).to_time then reach.(server) <- c;
      advance heads reach server time rest
  | _ -> heads.(server) <- l

let validate seq t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let horizon = Sequence.horizon seq in
  let m = Sequence.m seq in
  (* well-formedness relative to the instance *)
  List.iter
    (fun c ->
      if c.server >= m then err "cache on unknown server s%d" c.server;
      if c.to_time > horizon +. Dcache_prelude.Float_cmp.default_eps then
        err "dead-end cache on s%d beyond horizon (%g > %g)" c.server c.to_time horizon)
    t.caches;
  List.iter
    (fun tr ->
      if tr.dst >= m then err "transfer to unknown server s%d" tr.dst;
      (match tr.src with
      | From_server s when s >= m -> err "transfer from unknown server s%d" s
      | From_server _ | From_external -> ());
      if tr.time > horizon then err "transfer at %g beyond horizon %g" tr.time horizon)
    t.transfers;
  (* no overlapping cache intervals on one server *)
  let rec check_overlaps = function
    | a :: (b :: _ as rest) ->
        if a.server = b.server && b.from_time < a.to_time && not (eq b.from_time a.to_time)
        then
          err "overlapping caches on s%d: [%g,%g] and [%g,%g]" a.server a.from_time a.to_time
            b.from_time b.to_time;
        check_overlaps rest
    | [ _ ] | [] -> ()
  in
  check_overlaps t.caches;
  (* provenance: every cache interval must begin where a copy exists —
     at time 0 on s0, at an incoming transfer, or at the end of a cache
     on the same server.  One run of caches per server, walked with a
     cursor over that server's incoming transfers (time-sorted) and one
     over the run's ends. *)
  let incoming = Array.make m [] in
  List.iter
    (fun tr -> if tr.dst < m then incoming.(tr.dst) <- tr :: incoming.(tr.dst))
    (List.rev t.transfers);
  let rec provenance = function
    | [] -> ()
    | c :: rest as run ->
        let s = c.server in
        let sorted = ends_sorted s c.to_time rest in
        let rec sweep arrivals ends = function
          | c :: rest when c.server = s ->
              let f = c.from_time in
              let arrivals = transfers_from arrivals f and ends = ends_from ends s f in
              let sourced =
                (s = 0 && eq f 0.0)
                || (if s < m then transfer_at arrivals s f
                    else List.exists (fun tr -> tr.dst = s && eq tr.time f) t.transfers)
                || if sorted then end_at ends s f else end_in_run run s f
              in
              if not sourced then err "unsourced cache on s%d starting at %g" s f;
              sweep arrivals ends rest
          | l -> l
        in
        provenance (sweep (if s < m then incoming.(s) else []) run run)
  in
  provenance t.caches;
  (* transfers must depart from a copy holder *)
  let heads = Array.make m [] and reach = Array.make m no_cache in
  reset_cursors heads reach t.caches;
  List.iter
    (fun tr ->
      match tr.src with
      | From_external -> ()
      | From_server s ->
          let holder =
            (s = 0 && eq tr.time 0.0)
            ||
            if s < m then begin
              advance heads reach s tr.time heads.(s);
              tr.time <= reach.(s).to_time
            end
            else holds_copy_at t ~server:s ~time:tr.time
          in
          if not holder then
            err "transfer at %g departs from s%d which holds no copy" tr.time s)
    t.transfers;
  (* every request is served: a cache on its server covers it (a passed
     cache reaching it, or one starting within eps after it), or a
     transfer to its server ends at it *)
  reset_cursors heads reach t.caches;
  let pending = ref t.transfers in
  for i = 1 to Sequence.n seq do
    let s = Sequence.server seq i and ti = Sequence.time seq i in
    advance heads reach s ti heads.(s);
    let last = reach.(s).to_time in
    let by_cache = ti < last || eq last ti || start_at heads.(s) s ti in
    pending := transfers_from !pending ti;
    if not (by_cache || transfer_at !pending s ti) then
      err "request r%d at (s%d, %g) is not served" i s ti
  done;
  (* coverage of [0, horizon] by the union of cache intervals *)
  if horizon > 0. then begin
    let spans =
      List.map
        (fun c -> Dcache_prelude.Interval.make ~lo:c.from_time ~hi:c.to_time)
        t.caches
    in
    match Dcache_prelude.Interval.first_gap spans ~lo:0.0 ~hi:horizon with
    | Some (a, b) -> err "no copy cached anywhere during [%g, %g]" a b
    | None -> ()
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

exception Invalid_schedule of string list

let () =
  Printexc.register_printer (function
    | Invalid_schedule es ->
        Some (Printf.sprintf "Schedule.Invalid_schedule [%s]" (String.concat "; " es))
    | _ -> None)

let validate_exn seq t =
  match validate seq t with Ok () -> () | Error es -> raise (Invalid_schedule es)

let is_standard_form seq t =
  let n = Sequence.n seq in
  (* transfers and requests are both time-sorted: one cursor over the
     requests, skipping those before each transfer's eq window *)
  let rec first_from j time =
    if j <= n && Sequence.time seq j < time -. window time then first_from (j + 1) time else j
  in
  let rec request_at j dst time =
    j <= n
    && Sequence.time seq j <= time +. window time
    && ((Sequence.server seq j = dst && eq (Sequence.time seq j) time) || request_at (j + 1) dst time)
  in
  let rec ends_on_requests j = function
    | [] -> true
    | tr :: rest ->
        let j = first_from j tr.time in
        request_at j tr.dst tr.time && ends_on_requests j rest
  in
  ends_on_requests 1 t.transfers

(* -- rendering ----------------------------------------------------------- *)

let render seq t =
  let width = 72 in
  let horizon = Sequence.horizon seq in
  let horizon = if horizon <= 0. then 1.0 else horizon in
  let col time = min (width - 1) (int_of_float (time /. horizon *. float_of_int (width - 1))) in
  let m = Sequence.m seq in
  let rows = Array.init m (fun _ -> Bytes.make width ' ') in
  let put server time ch =
    if server >= 0 && server < m then Bytes.set rows.(server) (col time) ch
  in
  List.iter
    (fun c ->
      if c.server < m then
        for x = col c.from_time to col c.to_time do
          Bytes.set rows.(c.server) x '='
        done)
    t.caches;
  List.iter
    (fun tr ->
      (match tr.src with From_server s -> put s tr.time '^' | From_external -> ());
      put tr.dst tr.time 'T')
    t.transfers;
  for i = 1 to Sequence.n seq do
    put (Sequence.server seq i) (Sequence.time seq i) '*'
  done;
  let buf = Buffer.create ((m + 2) * (width + 8)) in
  Buffer.add_string buf
    (Printf.sprintf "time 0 .. %g   (= cached, * request, T arrival, ^ departure)\n" horizon);
  for s = 0 to m - 1 do
    Buffer.add_string buf (Printf.sprintf "s%-3d |%s|\n" s (Bytes.to_string rows.(s)))
  done;
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>caches:";
  List.iter
    (fun c -> Format.fprintf ppf "@,  H(s%d, %g, %g)" c.server c.from_time c.to_time)
    t.caches;
  Format.fprintf ppf "@,transfers:";
  List.iter
    (fun tr ->
      match tr.src with
      | From_server s -> Format.fprintf ppf "@,  Tr(s%d -> s%d, %g)" s tr.dst tr.time
      | From_external -> Format.fprintf ppf "@,  Up(ext -> s%d, %g)" tr.dst tr.time)
    t.transfers;
  Format.fprintf ppf "@]"
