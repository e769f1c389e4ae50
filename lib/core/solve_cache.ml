(* Memo discipline after coq-lsp's [Memo] tables: one module-level
   cache with typed stats, a hard entry bound, and LRU eviction driven
   by a monotonic touch tick.  The key is an MD5 digest of a canonical
   binary encoding of the input, so lookups cost one O(input) hash —
   cheap next to the O(mn) sweep they replace — and never retain the
   (possibly huge) input sequence itself. *)

module Obs = Dcache_obs.Obs

let c_hit = Obs.counter "solve_cache.hit"
let c_miss = Obs.counter "solve_cache.miss"
let c_evict = Obs.counter "solve_cache.evict"
let g_size = Obs.gauge "solve_cache.size"

type entry = {
  result : Offline_dp.t;
  mutable stamp : int; (* last-touch tick, for LRU eviction *)
}

type stats = { hits : int; misses : int; evictions : int; size : int }

let table : (string, entry) Hashtbl.t = Hashtbl.create 64
let tick = ref 0
let hits = ref 0
let misses = ref 0
let evictions = ref 0
let bound = ref 64

let key model seq =
  let buf = Buffer.create (32 + (12 * Sequence.n seq)) in
  Buffer.add_int64_le buf (Int64.bits_of_float model.Cost_model.mu);
  Buffer.add_int64_le buf (Int64.bits_of_float model.Cost_model.lambda);
  Buffer.add_int64_le buf (Int64.bits_of_float model.Cost_model.upload);
  Sequence.add_fingerprint buf seq;
  Digest.string (Buffer.contents buf)

let evict_lru () =
  let victim =
    (* dcache-lint: allow R1 — the fold picks the unique minimum stamp (ticks never repeat) *)
    Hashtbl.fold
      (fun k e acc ->
        match acc with Some (_, best) when best.stamp <= e.stamp -> acc | _ -> Some (k, e))
      table None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove table k;
      incr evictions;
      Obs.incr c_evict
  | None -> ()

let solve model seq =
  let k = key model seq in
  match Hashtbl.find_opt table k with
  | Some e ->
      incr tick;
      e.stamp <- !tick;
      incr hits;
      Obs.incr c_hit;
      e.result
  | None ->
      let result = Offline_dp.solve model seq in
      incr misses;
      Obs.incr c_miss;
      incr tick;
      if Hashtbl.length table >= !bound then evict_lru ();
      Hashtbl.add table k { result; stamp = !tick };
      Obs.set_gauge g_size (float_of_int (Hashtbl.length table));
      result

let stats () =
  { hits = !hits; misses = !misses; evictions = !evictions; size = Hashtbl.length table }

let size () = Hashtbl.length table

let clear () =
  Hashtbl.reset table;
  Obs.set_gauge g_size 0.0

let capacity () = !bound

let set_capacity c =
  if c < 1 then invalid_arg "Solve_cache.set_capacity: capacity must be at least 1";
  bound := c;
  while Hashtbl.length table > !bound do
    evict_lru ()
  done;
  Obs.set_gauge g_size (float_of_int (Hashtbl.length table))
