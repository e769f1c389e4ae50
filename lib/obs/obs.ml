(* Zero-overhead observability: typed metrics, span tracing, and
   pluggable sinks.

   The design center is the cost of the *disabled* path.  Every probe
   ([incr], [add], [set_gauge], [observe], [enter], [leave], [span])
   starts with a read of [state.recording] — one load and one branch,
   small enough for ocamlopt's cross-module inliner — and allocates
   nothing either way: counters and histogram buckets are arrays of
   [Atomic.t] cells created at registration, gauges are a flat float
   array, and span events land in preallocated int/float ring columns.
   With the default [Noop] sink the instrumented hot paths therefore
   keep their allocation budget exactly (bench/obs_overhead.ml asserts
   0 extra minor words and bounds the time cost; bench/perf_gate.exe
   gates both).

   Multi-domain story: counters and histograms are atomic, so totals
   are sums of per-task contributions and identical at any domain
   count.  Span events go to the buffer installed in the recording
   domain's DLS slot — the recorder's main ring on the installing
   domain, a positional per-task buffer inside a {!Parallel} job —
   and per-task buffers are merged back into the main ring in task
   order, so trace *structure* is independent of how many domains ran
   the job.  Events recorded on a domain with no installed buffer are
   counted as strays and dropped. *)

(* ------------------------------------------------------------ registry *)

(* Metric registration is module-init-time work (the instrumented
   libraries register their probes in top-level [let]s), so a mutex
   plus linear scans over small arrays is plenty; nothing here is on
   a hot path.  Re-registering a name returns the existing id. *)

let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  match f () with
  | v ->
      Mutex.unlock registry_lock;
      v
  | exception e ->
      Mutex.unlock registry_lock;
      raise e

let find_name names name =
  let n = Array.length names in
  let rec go i = if i >= n then None else if String.equal names.(i) name then Some i else go (i + 1) in
  go 0

(* ------------------------------------------- name & label validation *)

(* Registry names are dot-namespaced ([streaming_dp.push]); the
   Prometheus renderer maps '.' to '_', so the accepted grammar is the
   text-format 0.0.4 metric-name grammar plus '.'.  '{' is rejected
   everywhere: labeled children are interned under the encoded name
   [base{k="v",...}], so the brace opens a namespace reserved for
   them.  Validating at registration means a bad name fails at
   [let]-time in the instrumented module, not at scrape time. *)

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '.' -> true
  | _ -> false

let is_name_start = function '0' .. '9' | '.' -> false | c -> is_name_char c

let valid_metric_name s =
  String.length s > 0 && is_name_start s.[0] && String.for_all is_name_char s

let check_name fn s =
  if not (valid_metric_name s) then
    invalid_arg
      (Printf.sprintf "Obs.%s: invalid metric name %S (want [a-zA-Z_:][a-zA-Z0-9_:.]*)" fn s)

(* Label keys follow the strict Prometheus label grammar: no ':'
   (reserved for recording rules) and no '.'. *)
let is_label_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let valid_label_key s =
  String.length s > 0
  && (match s.[0] with '0' .. '9' -> false | c -> is_label_char c)
  && String.for_all is_label_char s

let check_label_key fn s =
  if not (valid_label_key s) then
    invalid_arg (Printf.sprintf "Obs.%s: invalid label name %S (want [a-zA-Z_][a-zA-Z0-9_]*)" fn s)

type counter = int
type gauge = int
type span = int
type histogram = int

let c_names = ref [||]
let c_cells : int Atomic.t array ref = ref [||]

let g_names = ref [||]
let g_cells : float array ref = ref [||]

let s_names = ref [||]

(* Names of trace-only samples: events in the ring, no cell, so they
   stay out of every readback and scrape. *)
type sample = int

let t_names = ref [||]

(* One log-scale duration histogram per span, created at
   registration: [spanned] records end-minus-begin into it, so
   quantile telemetry rides the spans that already exist.  Bucket
   bumps are commutative atomic int adds — no positional merge is
   needed for histograms, totals are width-independent by
   construction (the per-domain tick clock keeps the *durations*
   width-independent too; see Clock.ticks). *)
let s_histos : Histo_log.t array ref = ref [||]

type hist = {
  h_name : string;
  h_edges : float array;
  h_counts : int Atomic.t array;
  (* float sum for Prometheus [_sum]: accumulation order is
     scheduling-dependent rounding, so this is monitoring-only and
     deliberately outside the determinism contract (the exact int
     sums live in Histo_log) *)
  h_sum : float Atomic.t;
}

let h_cells : hist array ref = ref [||]

let append cells v = cells := Array.append !cells [| v |]

(* ------------------------------------------------------- registration *)

(* A metric family is a set of plain cells keyed by one label.  Each
   child is a regular entry in the flat registries above, interned
   under the encoded name [base{key="value"}] (value Prometheus-escaped
   at creation), so the hot-path bump on a resolved child is the same
   single atomic op as any plain metric and the 0-word Noop contract
   holds unchanged.  The flat registry already interns by name, so a
   family only counts its children.  Because readbacks are name-sorted,
   the children of one family are contiguous and in a deterministic
   byte order no matter which domain resolved them first — exposition
   stays width-independent. *)

type vec_kind = Vec_counter | Vec_gauge

type vec = {
  v_name : string;
  v_key : string;
  v_kind : vec_kind;
  mutable v_size : int;  (* children interned below [family_cap] *)
}

type counter_vec = vec
type gauge_vec = vec

let vec_registry : vec list ref = ref []

let find_vec name = List.find_opt (fun v -> String.equal v.v_name name) !vec_registry

let same_vec_kind a b =
  match (a, b) with
  | Vec_counter, Vec_counter | Vec_gauge, Vec_gauge -> true
  | (Vec_counter | Vec_gauge), _ -> false

let vec_kind_label = function Vec_counter -> "counter" | Vec_gauge -> "gauge"

(* A plain metric and a same-kind family under one base name would
   render into the same Prometheus family with inconsistent label
   sets — reject the collision at registration, from both sides. *)
let check_vec_collision fn kind name =
  match find_vec name with
  | Some v when same_vec_kind v.v_kind kind ->
      invalid_arg
        (Printf.sprintf "Obs.%s: %S is already a labeled %s family" fn name (vec_kind_label kind))
  | Some _ | None -> ()

(* unlocked cell interning, shared by plain registration and child
   resolution (both already hold the registry lock) *)

let counter_cell name =
  match find_name !c_names name with
  | Some id -> id
  | None ->
      append c_names name;
      append c_cells (Atomic.make 0);
      Array.length !c_names - 1

let gauge_cell name =
  match find_name !g_names name with
  | Some id -> id
  | None ->
      append g_names name;
      g_cells := Array.append !g_cells [| 0.0 |];
      Array.length !g_names - 1

let counter name =
  check_name "counter" name;
  locked (fun () ->
      check_vec_collision "counter" Vec_counter name;
      counter_cell name)

let gauge name =
  check_name "gauge" name;
  locked (fun () ->
      check_vec_collision "gauge" Vec_gauge name;
      gauge_cell name)

let span_name name =
  check_name "span_name" name;
  locked (fun () ->
      match find_name !s_names name with
      | Some id -> id
      | None ->
          append s_names name;
          append s_histos (Histo_log.create ());
          Array.length !s_names - 1)

let sample_name name =
  check_name "sample_name" name;
  locked (fun () ->
      match find_name !t_names name with
      | Some id -> id
      | None ->
          append t_names name;
          Array.length !t_names - 1)

let histogram name ~buckets =
  if Array.length buckets = 0 then invalid_arg "Obs.histogram: need at least one bucket edge";
  Array.iteri
    (fun i e ->
      if i > 0 && not (buckets.(i - 1) < e) then
        invalid_arg "Obs.histogram: bucket edges must be strictly increasing")
    buckets;
  check_name "histogram" name;
  locked (fun () ->
      let names = Array.map (fun h -> h.h_name) !h_cells in
      match find_name names name with
      | Some id -> id
      | None ->
          append h_cells
            {
              h_name = name;
              h_edges = Array.copy buckets;
              h_counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
              h_sum = Atomic.make 0.0;
            };
          Array.length !h_cells - 1)

(* ---------------------------------------------------- labeled families *)

let make_vec fn kind name ~label =
  check_name fn name;
  check_label_key fn label;
  locked (fun () ->
      match find_vec name with
      | Some v ->
          (* re-registration interns: same name + kind + key returns the
             existing family, so child ids resolved through either
             handle agree *)
          if not (same_vec_kind v.v_kind kind && String.equal v.v_key label) then
            invalid_arg
              (Printf.sprintf "Obs.%s: %S is already registered with a different kind or label" fn
                 name);
          v
      | None ->
          let plain_names = match kind with Vec_counter -> !c_names | Vec_gauge -> !g_names in
          (match find_name plain_names name with
          | Some _ ->
              invalid_arg
                (Printf.sprintf "Obs.%s: %S is already a plain %s" fn name (vec_kind_label kind))
          | None -> ());
          let v = { v_name = name; v_key = label; v_kind = kind; v_size = 0 } in
          vec_registry := v :: !vec_registry;
          v)

let counter_vec name ~label = make_vec "counter_vec" Vec_counter name ~label

let gauge_vec name ~label = make_vec "gauge_vec" Vec_gauge name ~label

(* Cardinality is bounded: past [family_cap] every new label value
   collapses into the reserved ["other"] child and bumps
   [obs.label_overflow], so a family owns at most [family_cap + 1]
   cells, ever.  The overflow counter is bumped unconditionally (not
   probe-gated): resolution is registration-path work, and an
   overflow under [Noop] must still be visible once a sink is
   installed. *)

let family_cap = 64

let overflow_label = "other"

let c_label_overflow = counter "obs.label_overflow"

let child_name v value =
  let b = Buffer.create (String.length v.v_name + String.length v.v_key + 16) in
  Buffer.add_string b v.v_name;
  Buffer.add_char b '{';
  Buffer.add_string b v.v_key;
  Buffer.add_string b "=\"";
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    value;
  Buffer.add_string b "\"}";
  Buffer.contents b

let resolve v value =
  let name = child_name v value in
  let names, intern =
    match v.v_kind with
    | Vec_counter -> (c_names, counter_cell)
    | Vec_gauge -> (g_names, gauge_cell)
  in
  locked (fun () ->
      match find_name !names name with
      | Some id -> id
      | None when v.v_size < family_cap ->
          v.v_size <- v.v_size + 1;
          intern name
      | None ->
          Atomic.incr !c_cells.(c_label_overflow);
          intern (child_name v overflow_label))

let counter_with_label = resolve
let gauge_with_label = resolve

(* ---------------------------------------------------------- event rings *)

(* One preallocated ring per recording context: parallel int columns
   for tag/name/timestamp/track plus a flat float column for sampled
   values.  Recording an event is four array stores and an index
   bump; when the ring is full the oldest event is overwritten (the
   most recent window is the useful one for triage) and the loss is
   counted. *)

let tag_begin = 0
let tag_end = 1
let tag_sample = 2 (* a gauge write; the name is a gauge *)
let tag_trace_sample = 3 (* the name is a [sample] *)

type buf = {
  b_clock : Clock.t;
  b_track : int;  (* chrome tid: 0 = installing domain, task index + 1 in a job *)
  b_cap : int;
  e_tag : int array;
  e_name : int array;
  e_ts : int array;
  e_track : int array;  (* per-event: tasks keep their lane through the merge, GC bridge injects high lanes *)
  e_value : float array;
  mutable b_start : int;
  mutable b_len : int;
  mutable b_lost : int;
}

let make_buf ~clock ~track cap =
  {
    b_clock = clock;
    b_track = track;
    b_cap = cap;
    e_tag = Array.make cap 0;
    e_name = Array.make cap 0;
    e_ts = Array.make cap 0;
    e_track = Array.make cap track;
    e_value = Array.make cap 0.0;
    b_start = 0;
    b_len = 0;
    b_lost = 0;
  }

let put_track b ~track tag name ts value =
  let slot =
    if b.b_len < b.b_cap then begin
      let s = (b.b_start + b.b_len) mod b.b_cap in
      b.b_len <- b.b_len + 1;
      s
    end
    else begin
      let s = b.b_start in
      b.b_start <- (b.b_start + 1) mod b.b_cap;
      b.b_lost <- b.b_lost + 1;
      s
    end
  in
  b.e_tag.(slot) <- tag;
  b.e_name.(slot) <- name;
  b.e_ts.(slot) <- ts;
  b.e_track.(slot) <- track;
  b.e_value.(slot) <- value

let put b tag name ts value = put_track b ~track:b.b_track tag name ts value

let record_into b tag name value = put b tag name (b.b_clock ()) value

(* iterate the retained window oldest-first *)
let iter_buf b f =
  for k = 0 to b.b_len - 1 do
    let i = (b.b_start + k) mod b.b_cap in
    f b.e_tag.(i) b.e_name.(i) b.e_ts.(i) b.e_value.(i) b.e_track.(i)
  done

(* -------------------------------------------------------------- recorder *)

type recorder = { r_clock : Clock.t; r_main : buf; r_stray : int Atomic.t }

type sink = Noop | Recording of recorder

let default_capacity = 1 lsl 18

let recorder ?clock ?(capacity = default_capacity) () =
  if capacity < 16 then invalid_arg "Obs.recorder: capacity must be at least 16";
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  { r_clock = clock; r_main = make_buf ~clock ~track:0 capacity; r_stray = Atomic.make 0 }

type state_t = { mutable recording : bool; mutable current : recorder option }

let state = { recording = false; current = None }

(* Which buffer this domain's span events go to.  [set_sink] installs
   the main ring on the calling domain; [Parallel.task] swaps in the
   task's positional buffer for the duration of the task body. *)
let current_buf : buf option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let probe () = state.recording

let sink () = match state.current with None -> Noop | Some r -> Recording r

let set_sink s =
  match s with
  | Noop ->
      state.recording <- false;
      state.current <- None;
      Domain.DLS.set current_buf None
  | Recording r ->
      state.current <- Some r;
      Domain.DLS.set current_buf (Some r.r_main);
      state.recording <- true

let events_lost r = r.r_main.b_lost + Atomic.get r.r_stray

(* ---------------------------------------------------------------- probes *)

let incr c = if state.recording then Atomic.incr !c_cells.(c)

let add c n = if state.recording then ignore (Atomic.fetch_and_add !c_cells.(c) n)

let record tag name value =
  match Domain.DLS.get current_buf with
  | Some b -> record_into b tag name value
  | None -> ( match state.current with Some r -> Atomic.incr r.r_stray | None -> ())

let set_gauge g v =
  if state.recording then begin
    !g_cells.(g) <- v;
    record tag_sample g v
  end

(* CAS loop, not [:=]: callable from any domain.  Rounding depends on
   accumulation order, hence monitoring-only (see [hist]). *)
let rec atomic_add_float cell v =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. v)) then atomic_add_float cell v

let observe h v =
  if state.recording then begin
    let hist = !h_cells.(h) in
    let edges = hist.h_edges in
    let n = Array.length edges in
    let rec bucket i = if i >= n || v <= edges.(i) then i else bucket (i + 1) in
    Atomic.incr hist.h_counts.(bucket 0);
    atomic_add_float hist.h_sum v
  end

let enter sp = if state.recording then record tag_begin sp 0.0

let leave sp = if state.recording then record tag_end sp 0.0

(* Clock of the buffer this domain records into, falling back to the
   recorder's own clock off-buffer.  0 under Noop so callers can time
   unconditionally after one [probe] check. *)
let now_ns () =
  match Domain.DLS.get current_buf with
  | Some b -> b.b_clock ()
  | None -> ( match state.current with Some r -> Clock.now r.r_clock | None -> 0)

let observe_span_ns sp ns = if state.recording then Histo_log.record !s_histos.(sp) ns

let spanned sp f =
  if not state.recording then f ()
  else
    match Domain.DLS.get current_buf with
    | None ->
        (match state.current with Some r -> Atomic.incr r.r_stray | None -> ());
        f ()
    | Some b -> (
        (* exactly two clock reads per span — the begin/end events
           reuse them, and the delta feeds the span's histogram.
           Under the per-domain tick clock that delta counts the
           body's own clock reads, so histogram contents are
           width-independent. *)
        let t0 = b.b_clock () in
        put b tag_begin sp t0 0.0;
        match f () with
        | v ->
            let t1 = b.b_clock () in
            put b tag_end sp t1 0.0;
            Histo_log.record !s_histos.(sp) (t1 - t0);
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            let t1 = b.b_clock () in
            put b tag_end sp t1 0.0;
            Histo_log.record !s_histos.(sp) (t1 - t0);
            Printexc.raise_with_backtrace e bt)

let span name f = if not state.recording then f () else spanned (span_name name) f

(* Append an event with a caller-supplied timestamp and track into
   the main ring — the Runtime_events bridge lands GC phase spans
   here, on high track ids, already translated into the recorder's
   timebase. *)
let inject_event sp ~track ~is_begin ~ts =
  match state.current with
  | None -> ()
  | Some r -> put_track r.r_main ~track (if is_begin then tag_begin else tag_end) sp ts 0.0

(* -------------------------------------------------------------- readback *)

let counter_value c = Atomic.get !c_cells.(c)

let gauge_value g = !g_cells.(g)

let histogram_counts h =
  let hist = !h_cells.(h) in
  Array.map Atomic.get hist.h_counts

let histogram_edges h = Array.copy !h_cells.(h).h_edges

let histogram_sum h = Atomic.get !h_cells.(h).h_sum

let sorted_pairs names value =
  let pairs = List.init (Array.length names) (fun i -> (names.(i), value i)) in
  List.sort (fun (a, _) (b, _) -> String.compare a b) pairs

let counter_totals () = sorted_pairs !c_names (fun i -> Atomic.get !c_cells.(i))

let gauge_values () = sorted_pairs !g_names (fun i -> !g_cells.(i))

let span_histo sp = !s_histos.(sp)

let span_durations () = sorted_pairs !s_names (fun i -> !s_histos.(i))

let histogram_dump () =
  sorted_pairs
    (Array.map (fun h -> h.h_name) !h_cells)
    (fun i ->
      let h = !h_cells.(i) in
      (Array.copy h.h_edges, Array.map Atomic.get h.h_counts, Atomic.get h.h_sum))

let reset () =
  Array.iter (fun c -> Atomic.set c 0) !c_cells;
  g_cells := Array.map (fun _ -> 0.0) !g_cells;
  Array.iter Histo_log.reset !s_histos;
  Array.iter
    (fun h ->
      Array.iter (fun c -> Atomic.set c 0) h.h_counts;
      Atomic.set h.h_sum 0.0)
    !h_cells;
  match state.current with
  | None -> ()
  | Some r ->
      r.r_main.b_start <- 0;
      r.r_main.b_len <- 0;
      r.r_main.b_lost <- 0;
      Atomic.set r.r_stray 0

(* ------------------------------------------------------ parallel regions *)

module Parallel = struct
  type job = {
    j_span : span;
    j_task_span : span;
    j_wait_sample : sample;
    j_post_ns : int;
    j_bufs : buf array;
    j_rec : recorder;
  }

  (* Jobs have one buffer per *task* (sweeps can have thousands), so
     keep them small: a task records a wait sample, its own span, and
     a handful of nested solver spans.  Overflow drops the task's
     oldest events and is counted, like the main ring. *)
  let task_capacity = 64

  let job_begin ~span:sp ~task_span ~wait_sample ~tasks =
    if not state.recording then None
    else
      match state.current with
      | None -> None
      | Some r ->
          record tag_begin sp 0.0;
          let bufs =
            Array.init tasks (fun i -> make_buf ~clock:r.r_clock ~track:(i + 1) task_capacity)
          in
          Some
            {
              j_span = sp;
              j_task_span = task_span;
              j_wait_sample = wait_sample;
              j_post_ns = Clock.now r.r_clock;
              j_bufs = bufs;
              j_rec = r;
            }

  let task j i f =
    let b = j.j_bufs.(i) in
    let saved = Domain.DLS.get current_buf in
    Domain.DLS.set current_buf (Some b);
    let started = Clock.now b.b_clock in
    put b tag_trace_sample j.j_wait_sample started (float_of_int (started - j.j_post_ns));
    put b tag_begin j.j_task_span started 0.0;
    let restore () =
      let ended = Clock.now b.b_clock in
      put b tag_end j.j_task_span ended 0.0;
      Histo_log.record !s_histos.(j.j_task_span) (ended - started);
      Domain.DLS.set current_buf saved
    in
    match f () with
    | v ->
        restore ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        restore ();
        Printexc.raise_with_backtrace e bt

  (* Called on the submitting domain after the join: replay every
     task buffer into the main ring in task order, so the exported
     stream is independent of the domain count and chunk schedule. *)
  let job_end j =
    let main = j.j_rec.r_main in
    Array.iter
      (fun b ->
        iter_buf b (fun tag name ts value track -> put_track main ~track tag name ts value);
        main.b_lost <- main.b_lost + b.b_lost)
      j.j_bufs;
    record tag_end j.j_span 0.0
end

(* -------------------------------------------------- export: chrome trace *)

(* The trace_event JSON array format chrome://tracing and Perfetto
   load: B/E duration events plus C counter samples, timestamps in
   microseconds.  Tracks ([tid]) are logical — 0 for the installing
   domain, task index + 1 inside a parallel job — never physical
   domain ids, so a trace's shape is domain-count independent.  The
   emitter keeps a per-track depth so a window truncated by ring
   overwrite still produces balanced B/E pairs. *)

let escape_json b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let us_of_ns ns = float_of_int ns /. 1e3

(* span-name/gauge-name lookup with a safe fallback: a trace written
   after [reset] races nothing, but a stale id must not raise *)
let name_of names id = if id >= 0 && id < Array.length names then names.(id) else "?"

type track_state = { t_id : int; mutable t_depth : int; mutable t_open : (int * int) list }
(* t_open: (span id, begin ts) stack, for closing truncated spans *)

let chrome_json r =
  let b = Buffer.create 65536 in
  let first = ref true in
  let event fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b "    {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_char b '"';
        Buffer.add_string b k;
        Buffer.add_string b "\": ";
        Buffer.add_string b v)
      fields;
    Buffer.add_char b '}'
  in
  let str s =
    let sb = Buffer.create 16 in
    Buffer.add_char sb '"';
    escape_json sb s;
    Buffer.add_char sb '"';
    Buffer.contents sb
  in
  let num f = Printf.sprintf "%.3f" f in
  Buffer.add_string b "{\n  \"traceEvents\": [\n";
  let tracks = ref [] in
  let track id =
    match List.find_opt (fun t -> t.t_id = id) !tracks with
    | Some t -> t
    | None ->
        let t = { t_id = id; t_depth = 0; t_open = [] } in
        tracks := t :: !tracks;
        t
  in
  let last_ts = ref 0 in
  iter_buf r.r_main (fun tag name ts value track_id ->
      let t = track track_id in
      if ts > !last_ts then last_ts := ts;
      if tag = tag_begin then begin
        t.t_depth <- t.t_depth + 1;
        t.t_open <- (name, ts) :: t.t_open;
        event
          [
            ("name", str (name_of !s_names name));
            ("ph", str "B");
            ("ts", num (us_of_ns ts));
            ("pid", "1");
            ("tid", string_of_int t.t_id);
          ]
      end
      else if tag = tag_end then begin
        (* an E whose B was overwritten by the ring would corrupt
           nesting: drop it *)
        if t.t_depth > 0 then begin
          t.t_depth <- t.t_depth - 1;
          (t.t_open <- (match t.t_open with _ :: rest -> rest | [] -> []));
          event
            [
              ("name", str (name_of !s_names name));
              ("ph", str "E");
              ("ts", num (us_of_ns ts));
              ("pid", "1");
              ("tid", string_of_int t.t_id);
            ]
        end
      end
      else
        event
          [
            ("name", str (name_of (if tag = tag_sample then !g_names else !t_names) name));
            ("ph", str "C");
            ("ts", num (us_of_ns ts));
            ("pid", "1");
            ("tid", string_of_int t.t_id);
            ("args", Printf.sprintf "{\"value\": %.3f}" value);
          ]);
  (* close spans the window ended inside of *)
  List.iter
    (fun t ->
      List.iter
        (fun (name, _) ->
          event
            [
              ("name", str (name_of !s_names name));
              ("ph", str "E");
              ("ts", num (us_of_ns !last_ts));
              ("pid", "1");
              ("tid", string_of_int t.t_id);
            ])
        t.t_open)
    !tracks;
  (* final counter samples so totals are visible in the viewer *)
  List.iter
    (fun (cname, total) ->
      event
        [
          ("name", str cname);
          ("ph", str "C");
          ("ts", num (us_of_ns !last_ts));
          ("pid", "1");
          ("tid", "0");
          ("args", Printf.sprintf "{\"value\": %d}" total);
        ])
    (counter_totals ());
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"displayTimeUnit\": \"ms\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"otherData\": {\"schema\": \"dcache-trace/1\", \"eventsLost\": %d}\n"
       (events_lost r));
  Buffer.add_string b "}\n";
  Buffer.contents b

let write_chrome_trace r ~path =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (chrome_json r))

(* ------------------------------------------------- export: span tree *)

(* Aggregated call tree over the merged stream.  One logical stack —
   not per-track — because the positional merge nests every task's
   events between its job's B and E, so stream order *is* the logical
   nesting.  Children are keyed by span name in first-seen order;
   with [timings:false] the rendering is a pure function of trace
   structure, which is what the determinism tests compare. *)

type node = {
  n_name : int;
  mutable n_count : int;
  mutable n_ns : int;
  mutable n_subspans : node list;  (* reverse first-seen order *)
}

let tree_string ?(timings = true) r =
  let root = { n_name = -1; n_count = 0; n_ns = 0; n_subspans = [] } in
  let stack = ref [ (root, 0) ] in
  iter_buf r.r_main (fun tag name ts _value _track ->
      if tag = tag_begin then begin
        let parent = match !stack with (p, _) :: _ -> p | [] -> root in
        let child =
          match List.find_opt (fun c -> c.n_name = name) parent.n_subspans with
          | Some c -> c
          | None ->
              let c = { n_name = name; n_count = 0; n_ns = 0; n_subspans = [] } in
              parent.n_subspans <- c :: parent.n_subspans;
              c
        in
        child.n_count <- child.n_count + 1;
        stack := (child, ts) :: !stack
      end
      else if tag = tag_end then
        match !stack with
        | (n, t0) :: ((_ :: _) as rest) ->
            n.n_ns <- n.n_ns + (ts - t0);
            stack := rest
        | _ -> () (* unmatched end after ring truncation: skip *));
  let b = Buffer.create 4096 in
  let rec render depth n =
    let pad = String.make (2 * depth) ' ' in
    if timings then
      Buffer.add_string b
        (Printf.sprintf "%s%s x%d  %.3f ms\n" pad (name_of !s_names n.n_name) n.n_count
           (float_of_int n.n_ns /. 1e6))
    else Buffer.add_string b (Printf.sprintf "%s%s x%d\n" pad (name_of !s_names n.n_name) n.n_count);
    List.iter (render (depth + 1)) (List.rev n.n_subspans)
  in
  List.iter (render 0) (List.rev root.n_subspans);
  if timings then
    Buffer.add_string b (Printf.sprintf "(%d events lost)\n" (events_lost r));
  Buffer.contents b

(* ------------------------------------------------------------- wiring *)

(* `--trace FILE` / DCACHE_TRACE=FILE in the executables land here: a
   fresh recording sink now, one trace written at exit. *)

let trace_at_exit = ref None

let enable_file_trace ?clock ?capacity path =
  let r = recorder ?clock ?capacity () in
  set_sink (Recording r);
  (match !trace_at_exit with
  | Some _ -> ()
  | None -> at_exit (fun () ->
        match !trace_at_exit with
        | Some (r, path) -> write_chrome_trace r ~path
        | None -> ()));
  trace_at_exit := Some (r, path)

let env_var = "DCACHE_TRACE"

let install_from_env () =
  match Sys.getenv_opt env_var with
  | Some path when String.length (String.trim path) > 0 -> enable_file_trace (String.trim path)
  | Some _ | None -> ()
