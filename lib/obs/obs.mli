(** Zero-overhead observability: typed metrics, span tracing, and
    pluggable sinks.

    Every probe is gated on one mutable-field read ({!probe}) and
    allocates nothing on either side of the branch: counters and
    histogram buckets are [Atomic.t] cells created once at
    registration, gauges live in a flat float array, and span events
    are four stores into preallocated ring columns.  With the default
    {!Noop} sink an instrumented [[@@hot]] path keeps its allocation
    budget bit-for-bit; [bench/obs_overhead.exe] asserts the 0-word /
    <2%-time contract and [bench/perf_gate.exe] gates it.

    Determinism: counters are commutative atomic sums and span events
    from {!Parallel} jobs are merged positionally by task index, so
    counter totals and trace {e structure} are identical at any
    domain count.  Timestamps come from the injected {!Clock} — real
    monotonic nanoseconds for humans, a virtual tick clock under
    test.  See [docs/OBSERVABILITY.md]. *)

(** {1 Metric registration}

    Register in a top-level [let] of the instrumented module (ids are
    cheap ints; re-registering a name returns the existing id), then
    probe through the id on the hot path. *)

type counter
(** Monotonic event count, one atomic cell. *)

type gauge
(** Last-written float value; every {!set_gauge} also records a
    sample event on the current trace track. *)

type histogram
(** Fixed-bucket distribution: one atomic cell per bucket plus an
    overflow bucket. *)

type span
(** Interned span name, for allocation-free {!enter}/{!leave} and
    {!spanned} at hot call sites.  Every span owns a log-scale
    duration histogram ({!Histo_log}) fed by {!spanned},
    {!Parallel.task} and {!observe_span_ns} — quantile telemetry
    rides the spans that already exist. *)

type sample
(** Interned name of a trace-only sample (see {!Parallel.task}): a
    value recorded as a counter event on the trace track, with no
    cell, so it appears in no readback and no [/metrics] scrape. *)

val counter : string -> counter
val gauge : string -> gauge
val span_name : string -> span
val sample_name : string -> sample

val histogram : string -> buckets:float array -> histogram
(** [buckets] are upper bucket edges, strictly increasing; a value
    [v] lands in the first bucket with [v <= edge], or the implicit
    overflow bucket.
    @raise Invalid_argument on empty or non-increasing edges.

    All registration functions validate names at [let]-time against
    the grammar the Prometheus renderer and {!Prometheus.validate}
    accept: names match [[a-zA-Z_:][a-zA-Z0-9_:.]*] ('.' is
    namespacing, mapped to '_' at export; '{' is reserved for labeled
    children), label names match [[a-zA-Z_][a-zA-Z0-9_]*].
    @raise Invalid_argument on a bad metric or label name. *)

(** {1 Labeled families}

    A metric vector is a family of plain cells keyed by one label
    ([item], [policy], [task], ...).  Resolve a child {e once}, off the
    hot path — at registration, stream setup, or loop entry — and bump
    the returned plain id in the loop: the bump is the same single
    probe-gated atomic op as any flat metric, so the 0-word Noop
    contract is unchanged (sema rule S5 flags {!counter_with_label} /
    {!gauge_with_label} calls inside [[@@hot]] bodies).

    Cardinality is bounded: past 64 children every new label value
    collapses into a reserved ["other"] child and bumps the
    [obs.label_overflow] counter, so a family never owns more than 65
    children.  Children export through {!Prometheus} as
    [base{key="value"}] in deterministic sorted order and appear under
    their encoded names in {!counter_totals} / {!gauge_values} and
    {!Recorder} snapshots. *)

type counter_vec
type gauge_vec

val counter_vec : string -> label:string -> counter_vec
(** Register (or intern) a counter family keyed by [label].
    Re-registering with the same name, kind and label returns the
    same family — child ids stay stable.
    @raise Invalid_argument on a bad name or label, a mismatched
    re-registration, or a name already registered as a plain
    counter. *)

val gauge_vec : string -> label:string -> gauge_vec

val counter_with_label : counter_vec -> string -> counter
(** Resolve the child for one label value (stable across calls and
    re-registration).  The value may be any string — it is escaped at
    encoding time.  Registration-path work (a lock and a registry
    scan): never call on a hot path. *)

val gauge_with_label : gauge_vec -> string -> gauge

(** {1 Sinks} *)

type recorder
(** A recording context: an injected clock plus a preallocated event
    ring.  When the ring fills, the oldest events are overwritten
    (the recent window is the one triage needs) and the loss is
    reported via {!events_lost} and in the exported trace. *)

type sink = Noop | Recording of recorder

val recorder : ?clock:Clock.t -> ?capacity:int -> unit -> recorder
(** Fresh recorder; [clock] defaults to {!Clock.monotonic}, [capacity]
    (events) to [2^18].
    @raise Invalid_argument if [capacity < 16]. *)

val set_sink : sink -> unit
(** Install a sink process-wide.  [Noop] (the initial state) turns
    every probe into a constant-false branch; [Recording r] routes
    span events of the calling domain to [r]'s main ring and enables
    all probes. *)

val sink : unit -> sink
(** The currently installed sink. *)

val probe : unit -> bool
(** One mutable-field read: [true] iff a recording sink is installed.
    Hot paths hoist a single [if Obs.probe () then ...] around their
    per-call probe block so the disabled cost is one load+branch. *)

(** {1 Probes}

    All are no-ops (no allocation, no stores) under {!Noop}. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set_gauge : gauge -> float -> unit
val observe : histogram -> float -> unit

val enter : span -> unit
(** Record a span-begin event on the current track.  Pair with
    {!leave}; prefer {!spanned} wherever a closure is acceptable. *)

val leave : span -> unit

val spanned : span -> (unit -> 'a) -> 'a
(** [spanned sp f] runs [f] inside span [sp]: exception-safe, and
    calls [f] directly (no event, no allocation) when disabled.
    While recording, exactly two clock reads bracket [f] — they stamp
    the begin/end events and their delta lands in the span's duration
    histogram, so under the per-domain tick clock histogram contents
    are width-independent. *)

val now_ns : unit -> int
(** The current domain's recording clock (the task buffer's inside a
    {!Parallel} job, the recorder's otherwise); [0] under {!Noop}.
    For hand-rolled span timing on paths where {!spanned}'s closure
    is too expensive — pair with {!observe_span_ns}. *)

val observe_span_ns : span -> int -> unit
(** Record a measured duration (ns, or ticks under test) straight
    into the span's histogram, without emitting trace events.  No-op
    under {!Noop}. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] is [spanned (span_name name) f] — interns on every
    call, so register a {!span_name} once for frequent sites. *)

(** {1 Readback} *)

val counter_value : counter -> int
val gauge_value : gauge -> float
val histogram_edges : histogram -> float array
val histogram_counts : histogram -> int array

val histogram_sum : histogram -> float
(** Sum of observed values (for Prometheus [_sum]).  Float
    accumulation order is scheduling-dependent, so this is
    monitoring-only — outside the determinism contract (span
    histograms carry exact int sums instead). *)

val counter_totals : unit -> (string * int) list
(** All registered counters with their current values, sorted by
    name.  Deterministic at any domain count: totals are sums of
    atomic increments. *)

val gauge_values : unit -> (string * float) list
(** All registered gauges with their last-written values, sorted by
    name. *)

val span_histo : span -> Histo_log.t
(** The span's duration histogram (live handle, not a snapshot). *)

val span_durations : unit -> (string * Histo_log.t) list
(** Every registered span with its duration histogram, sorted by
    name.  Bucket counts, counts and int sums are commutative atomic
    adds: identical at any domain count. *)

val histogram_dump : unit -> (string * (float array * int array * float)) list
(** Every fixed-bucket histogram as [(name, (edges, counts, sum))],
    sorted by name — the Prometheus/flight-recorder export surface. *)

val reset : unit -> unit
(** Zero every counter, gauge, histogram and span-duration histogram
    and clear the recording ring (if any).  For tests and
    back-to-back runs sharing a process. *)

val inject_event : span -> track:int -> is_begin:bool -> ts:int -> unit
(** Append a begin/end event with a caller-supplied timestamp
    (already in the recorder's timebase) and explicit track id to the
    main ring.  The {!Runtime_bridge} lands GC phase spans here on
    high track ids; no-op without a recording sink. *)

val events_lost : recorder -> int
(** Events dropped by ring overwrite plus events recorded on domains
    with no installed buffer. *)

(** {1 Parallel regions}

    Used by [Pool]: each task of a job records into its own
    positional buffer (track = task index + 1), merged back into the
    main ring in task order after the join — trace structure is
    independent of domain count and chunk schedule. *)

module Parallel : sig
  type job

  val job_begin :
    span:span ->
    task_span:span ->
    wait_sample:sample ->
    tasks:int ->
    job option
  (** Open a job span on the submitting domain and preallocate one
      buffer per task.  [None] when not recording — callers keep the
      uninstrumented fast path. *)

  val task : job -> int -> (unit -> 'a) -> 'a
  (** [task j i f] runs task [i]'s body with its positional buffer
      installed, recording a queue-wait sample ([wait_sample], ns
      since [job_begin]) and a [task_span].  The wait is a trace
      event only, never a cell: the cross-domain wait is
      width-dependent under the per-domain tick clock, and cells feed
      the byte-compared readbacks.
      Exception-safe. *)

  val job_end : job -> unit
  (** After the join, on the submitting domain: merge task buffers
      positionally and close the job span. *)
end

(** {1 Export} *)

val chrome_json : recorder -> string
(** The trace as Chrome [trace_event] JSON ([chrome://tracing] /
    Perfetto): B/E duration events and C counter samples, [tid] =
    logical track, timestamps in microseconds from the recorder's
    clock.  Windows truncated by ring overwrite are re-balanced. *)

val write_chrome_trace : recorder -> path:string -> unit

val tree_string : ?timings:bool -> recorder -> string
(** Human-readable aggregated span tree (children in first-seen
    order).  With [~timings:false] the output is a pure function of
    trace structure — what the determinism tests compare. *)

(** {1 Wiring} *)

val enable_file_trace : ?clock:Clock.t -> ?capacity:int -> string -> unit
(** Install a fresh recording sink now and write its Chrome trace to
    the given path at process exit.  Repeated calls retarget the
    exit dump to the latest recorder/path. *)

val install_from_env : unit -> unit
(** [enable_file_trace path] when [DCACHE_TRACE=path] is set and
    non-empty; otherwise leave the {!Noop} sink in place. *)
