(** Digest-keyed memo cache for {!Offline_dp.solve}.

    A caller that re-solves the offline DP on identical
    [(cost model, sequence)] inputs can amortise those calls behind an
    MD5 digest of the instance — the model's three rates as IEEE bits
    plus {!Sequence.add_fingerprint} — with bounded capacity and
    least-recently-used eviction.  No [dcache] subcommand calls it:
    the streaming auditor already yields the per-item optimum, and a
    one-shot [dcache solve] could never hit.  It is kept only for the
    end-to-end benchmark's replay of the serving loop and the bench
    cases that price a hit.

    The bookkeeping discipline (typed per-cache stats, [size],
    [clear]) is modeled on coq-lsp's [Memo] tables.  Counters
    [solve_cache.hit]/[miss]/[evict] and the [solve_cache.size] gauge
    are registered with [dcache_obs], so a Recording sink exports
    them like any other family.

    The cache is a module-level table and is not domain-safe: callers
    that share it across {!Prelude.Pool} domains must serialise
    access externally (the repo's solver sweeps shard by instance
    instead). *)

val solve : Cost_model.t -> Sequence.t -> Offline_dp.t
(** Like {!Offline_dp.solve}, but memoised.  A hit returns the
    physically-same solver result (so downstream
    {!Offline_dp.schedule} memoisation is shared too); a miss runs the
    sweep, stores it, and evicts the least-recently-used entry when
    the table is at capacity.
    @raise Invalid_argument as {!Offline_dp.solve} on invalid input
    (nothing is cached in that case). *)

type stats = {
  hits : int;  (** lookups served from the table (cumulative) *)
  misses : int;  (** lookups that ran the sweep (cumulative) *)
  evictions : int;  (** entries dropped by the LRU bound (cumulative) *)
  size : int;  (** live entries right now *)
}

val stats : unit -> stats

val size : unit -> int
(** Live entries; [stats ()] bundles the same number. *)

val clear : unit -> unit
(** Drops every entry.  Cumulative counters ([hits], [misses],
    [evictions]) are preserved — they describe traffic, not contents. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Changes the entry bound (default [64]), evicting down to it
    immediately if the table is over.
    @raise Invalid_argument when the bound is below [1]. *)
