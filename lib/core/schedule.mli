(** Explicit schedules: cache intervals and transfers (Definition 1).

    A schedule is the set of caching intervals [H(s, x, y)] and
    transfers [Tr(src, dst, t)] chosen to serve a request sequence.
    This module prices schedules and — crucially for the reproduction
    — {e validates} them against the problem constraints of
    Section III:

    + at least one server caches the item at every time of
      [\[t_0, t_n\]];
    + the item is present on [s_i] at [t_i] for every request (either
      a cache interval covers [t_i] or a transfer ends at
      [(s_i, t_i)]);
    + transfers depart from servers that actually hold a copy, and
      every cache interval is {e sourced}: it begins at time [0] on
      server [0], at an incoming transfer, or adjacent to a preceding
      interval on the same server.

    Requests served by a transfer whose copy is immediately deleted
    (the red squares of Fig 1) occupy no cache interval at all —
    possession at a point costs nothing. *)

type cache = { server : int; from_time : float; to_time : float }

type source =
  | From_server of int
  | From_external  (** upload from external storage, priced at [beta] *)

type transfer = { src : source; dst : int; time : float }

type t

val make : caches:cache list -> transfers:transfer list -> t
(** Intervals and transfers are stored sorted; [make] does not
    validate feasibility (see {!validate}) but rejects malformed
    pieces: empty or reversed intervals, negative times, a transfer
    whose source equals its destination. *)

val empty : t

val caches : t -> cache list
(** Sorted by server, then start time. *)

val transfers : t -> transfer list
(** Sorted by time. *)

val caching_cost : Cost_model.t -> t -> float
val transfer_cost : Cost_model.t -> t -> float

val cost : Cost_model.t -> t -> float
(** Total cost [Pi(Psi)]: caching plus transfer (uploads priced at
    [beta]). *)

val num_transfers : t -> int
val num_copies_at : t -> float -> int
(** Number of cache intervals covering the given instant (inclusive
    endpoints). *)

val holds_copy_at : t -> server:int -> time:float -> bool

val union : t -> t -> t
(** Concatenation of the two piece sets (no deduplication). *)

val validate : Sequence.t -> t -> (unit, string list) result
(** All feasibility constraints above.  Also rejects overlapping cache
    intervals on one server (double caching a single item is never
    minimal) and caching beyond the horizon [t_n] (dead-end caches).
    Returns every violated constraint, not just the first, grouped
    by constraint in this order: unknown servers and pieces beyond
    the horizon, overlaps, unsourced caches, transfers from
    non-holders, unserved requests, the first coverage gap.

    [O(n + k + m)] for [k] pieces on a valid schedule, plus the
    [O(k log k)] coverage merge: forward sweeps over the sorted piece
    lists with per-server cursors, allocating [O(m)] words of cursor
    arrays and [O(k)] list cells.  Two inputs take a scan instead,
    both already reported as errors: lookups on a server [>= m] scan
    every piece, and a server whose caches nest (ends not sorted by
    start) scans its own caches for each of them.
    @raise Invalid_argument if a piece is structurally malformed
    (negative server, non-finite or reversed interval endpoints): only
    well-formed pieces get the [result] verdict. *)

exception Invalid_schedule of string list
(** Every violated constraint, in the order {!validate} reports
    them. *)

val validate_exn : Sequence.t -> t -> unit
(** @raise Invalid_schedule with the violations, so callers can catch
    validation failures distinctly from other [Failure]s.
    @raise Invalid_argument on structurally malformed pieces, as
    {!validate} does. *)

val is_standard_form : Sequence.t -> t -> bool
(** Observation 1: every transfer ends on a request, i.e. its
    [(dst, time)] coincides with some [(s_i, t_i)] (times compared
    with [Float_cmp.approx_eq]).  One merge of the time-sorted
    transfers against the requests: [O(n + k)]. *)

val render : Sequence.t -> t -> string
(** ASCII space-time diagram (one row per server: [=] cached, [*]
    request, [T] transfer arrival, [^] transfer departure). *)

val pp : Format.formatter -> t -> unit
