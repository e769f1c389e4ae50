(* Measurement plumbing shared by the workloads: the nanosecond clock,
   order statistics, resident-set readings, and the span buffer of the
   traced runs. *)

(* clock_gettime(CLOCK_MONOTONIC) through bechamel's noalloc stub:
   nanosecond resolution, no allocation, unlike the microsecond
   gettimeofday behind Obs.Clock.monotonic. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

(* Cost of one clock read, in ns: the median over a few batches of
   back-to-back reads. *)
let clock_read_ns () =
  let reads = 200_000 in
  let batch () =
    let t0 = now () in
    let last = ref t0 in
    for _ = 1 to reads do
      last := now ()
    done;
    float_of_int (!last - t0) /. float_of_int reads
  in
  let samples = Array.init 7 (fun _ -> batch ()) in
  Array.sort compare samples;
  samples.(3)

let median_float values =
  let a = Array.of_list values in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  end

(* The host-speed yardstick.  On a shared cloud VM (measured on a 2-vCPU
   Xeon guest) the CPU speed a process gets drifts by up to 1.5x within
   seconds, so raw timings of one commit differ from run to run by more
   than any useful bound.  The benchmark therefore also times a fixed
   piece of its own code -- an m-wide float min-scan, a list sort, a hash
   table and a balanced-tree map, the kinds of work the pipeline does --
   right before and right after every timed pass (serve-items: every
   child), and reports each pass's timings scaled to a host on which the
   yardstick takes [yard_nominal_ns], by the readings around that pass.
   Scaling each pass by its own readings follows drift that a run-wide
   average would smear.  The yardstick uses only the standard library,
   so no change to the system moves it; the raw timings are printed too. *)
let yard_nominal_ns = 6_000_000.0

type yard_rec = { key : int; weight : float }

module Int_map = Map.Make (Int)

let yard_row = Array.make 64 0.0
let yard_tbl = Hashtbl.create 4096
let yard_samples = ref []

(* One reading: how much slower than nominal the host runs right now. *)
let yardstick () =
  let t0 = now () in
  let acc = ref 0.0 in
  for i = 1 to 8_000 do
    let best = ref infinity in
    for j = 0 to 63 do
      let v = yard_row.(j) +. float_of_int (((i * 31) + (j * 17)) land 255) in
      if v < !best then best := v;
      yard_row.(j) <- v *. 0.5
    done;
    acc := !acc +. !best
  done;
  for r = 1 to 20 do
    let l =
      List.init 1000 (fun i -> { key = ((i * 7919) + r) land 4095; weight = float_of_int i })
    in
    let l = List.sort (fun a b -> compare a.key b.key) l in
    acc := List.fold_left (fun s e -> s +. e.weight) !acc l
  done;
  for i = 1 to 20_000 do
    Hashtbl.replace yard_tbl (i land 4095) i;
    match Hashtbl.find_opt yard_tbl ((i * 13) land 4095) with
    | Some v -> acc := !acc +. float_of_int v
    | None -> ()
  done;
  let map = ref Int_map.empty in
  for i = 1 to 6_000 do
    map := Int_map.add ((i * 7919) land 65535) i !map
  done;
  for i = 1 to 6_000 do
    match Int_map.find_opt ((i * 13) land 65535) !map with
    | Some v -> acc := !acc +. float_of_int v
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  let slowdown = float_of_int (now () - t0) /. yard_nominal_ns in
  yard_samples := slowdown :: !yard_samples;
  slowdown

(* [paced f] runs [f] between two yardstick readings and returns its
   result with the host's slowdown around it (their geometric mean). *)
let paced f =
  let before = yardstick () in
  let v = f () in
  (v, Float.sqrt (before *. yardstick ()))

(* Nearest-rank quantile of the first [len] samples. *)
let quantile_int samples ~len q =
  if len = 0 then 0
  else begin
    let a = Array.sub samples 0 len in
    Array.sort compare a;
    a.(max 0 (min (len - 1) (int_of_float (Float.ceil (q *. float_of_int len)) - 1)))
  end

(* A field of /proc/<pid>/status in bytes (the kernel prints kB). *)
let proc_status_bytes ~pid field =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      let prefix = field ^ ":" in
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             if String.starts_with ~prefix line then
               let k = String.length prefix in
               let rest = String.sub line k (String.length line - k) in
               match String.split_on_char ' ' (String.trim rest) with
               | kb :: _ -> Option.map (fun k -> k * 1024) (int_of_string_opt kb)
               | [] -> None
             else None)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rss_bytes () = Option.value (proc_status_bytes ~pid:0 "VmRSS") ~default:0

(* Return freed Bigarray arenas and dead heap to the allocator before a
   resident-set reading. *)
let settle () =
  Gc.full_major ();
  Gc.compact ()

(* The span buffer of a traced run: preallocated parallel arrays, one
   slot per span, filled in entry order so a parent always precedes
   its children.  Self time is a span's duration minus the time its
   direct children cover. *)
module Spans = struct
  type t = {
    names : string array;
    name : int array;
    start : int array;
    stop : int array;
    parent : int array;
    req : int array;
    mutable len : int;
  }

  let create ~capacity names =
    {
      names;
      name = Array.make capacity 0;
      start = Array.make capacity 0;
      stop = Array.make capacity 0;
      parent = Array.make capacity (-1);
      req = Array.make capacity 0;
      len = 0;
    }

  let clear t = t.len <- 0

  (* The clock is read last on entry and first on exit, so a span
     carries about one clock read of overhead. *)
  let enter t ~name ~parent ~req =
    let i = t.len in
    if i >= Array.length t.name then failwith "span buffer full";
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.req.(i) <- req;
    t.len <- i + 1;
    t.start.(i) <- now ();
    i

  let leave t i = t.stop.(i) <- now ()

  (* Per-name totals: [(total ns, self ns)].  Each span is charged one
     clock read ([clock_ns]) for its own timing, and its parent one more
     for reading the clock around it. *)
  let totals t ~clock_ns =
    let k = Array.length t.names in
    let total = Array.make k 0.0 and self = Array.make k 0.0 in
    let children = Array.make t.len 0.0 in
    for i = t.len - 1 downto 0 do
      let dur = float_of_int (t.stop.(i) - t.start.(i)) -. clock_ns in
      let p = t.parent.(i) in
      if p >= 0 then children.(p) <- children.(p) +. dur +. (2.0 *. clock_ns);
      let nm = t.name.(i) in
      total.(nm) <- total.(nm) +. dur;
      self.(nm) <- self.(nm) +. (dur -. children.(i))
    done;
    Array.init k (fun i -> (total.(i), self.(i)))

  let write_csv t ~path =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc "name,start_ns,end_ns,parent,request\n";
        for i = 0 to t.len - 1 do
          Printf.fprintf oc "%s,%d,%d,%d,%d\n" t.names.(t.name.(i)) t.start.(i) t.stop.(i)
            t.parent.(i) t.req.(i)
        done)
end
