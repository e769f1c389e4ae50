(* Prometheus text-format 0.0.4 exposition + a minimal synchronous
   HTTP endpoint.  No dependencies beyond [unix]; no threads — the
   long-run driver interleaves [poll] with its batch loop, so the
   whole serving story stays on one domain and under the injected
   clock discipline (nothing here reads ambient time at all).

   Rendering pulls only the name-sorted registry readbacks, so the
   exposition is a pure function of metric state: deterministic
   metric state (tick clocks, fixed seeds) gives a byte-identical
   exposition at any pool width. *)

(* --------------------------------------------------------- rendering *)

let metric_name s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    s

let escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quantile_probes = [| 0.5; 0.9; 0.99; 0.999 |]

(* spec floats: NaN / +Inf / -Inf, plain otherwise.  [Float.is_nan]
   and a sign test keep lint R2 (no float [=]) happy. *)
let fmt_float v =
  if Float.is_nan v then "NaN"
  else if not (Float.is_finite v) then if v > 0.0 then "+Inf" else "-Inf"
  else Printf.sprintf "%.12g" v

let content_type = "text/plain; version=0.0.4"

let ns_to_s ns = ns /. 1e9

(* Counter and gauge names may be encoded labeled children,
   [base{key="value"}] (see Obs's labeled families): split at the
   brace and keep the inner label text verbatim — the value was
   Prometheus-escaped at interning time.  Only the base gets the
   [metric_name] sanitizer, and the [_total] suffix is placed before
   the label block.  Because readbacks are name-sorted and '{' cannot
   appear in plain names, a family's children arrive contiguously and
   in a deterministic order, so HELP/TYPE can be emitted once per
   family by tracking the last family name. *)
let split_labels name =
  let n = String.length name in
  match String.index_opt name '{' with
  | Some i when n > i + 1 && Char.equal name.[n - 1] '}' ->
      (String.sub name 0 i, Some (String.sub name (i + 1) (n - i - 2)))
  | Some _ | None -> (name, None)

let exposition () =
  let b = Buffer.create 4096 in
  let meta full typ orig =
    Buffer.add_string b "# HELP ";
    Buffer.add_string b full;
    Buffer.add_string b " dcache metric ";
    Buffer.add_string b (escape_help orig);
    Buffer.add_char b '\n';
    Buffer.add_string b "# TYPE ";
    Buffer.add_string b full;
    Buffer.add_char b ' ';
    Buffer.add_string b typ;
    Buffer.add_char b '\n'
  in
  (* a sample carries at most one label block: an encoded child's
     verbatim [key="value"] text, or one [le] / [quantile] pair *)
  let sample ?enc ?label name value =
    Buffer.add_string b name;
    (match (enc, label) with
    | Some inner, _ ->
        Buffer.add_char b '{';
        Buffer.add_string b inner;
        Buffer.add_char b '}'
    | None, Some (k, v) ->
        Buffer.add_char b '{';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        Buffer.add_string b (escape_label v);
        Buffer.add_string b "\"}"
    | None, None -> ());
    Buffer.add_char b ' ';
    Buffer.add_string b value;
    Buffer.add_char b '\n'
  in
  let last_family = ref "" in
  let family full typ base =
    if not (String.equal full !last_family) then begin
      meta full typ base;
      last_family := full
    end
  in
  List.iter
    (fun (name, v) ->
      let base, enc = split_labels name in
      let full = "dcache_" ^ metric_name base ^ "_total" in
      family full "counter" base;
      sample ?enc full (string_of_int v))
    (Obs.counter_totals ());
  List.iter
    (fun (name, v) ->
      let base, enc = split_labels name in
      let full = "dcache_" ^ metric_name base in
      family full "gauge" base;
      sample ?enc full (fmt_float v))
    (Obs.gauge_values ());
  List.iter
    (fun (name, (edges, counts, sum)) ->
      let full = "dcache_" ^ metric_name name in
      family full "histogram" name;
      let cumulative = ref 0 in
      Array.iteri
        (fun i e ->
          cumulative := !cumulative + counts.(i);
          sample ~label:("le", fmt_float e) (full ^ "_bucket") (string_of_int !cumulative))
        edges;
      cumulative := !cumulative + counts.(Array.length edges);
      sample ~label:("le", "+Inf") (full ^ "_bucket") (string_of_int !cumulative);
      sample (full ^ "_sum") (fmt_float sum);
      sample (full ^ "_count") (string_of_int !cumulative))
    (Obs.histogram_dump ());
  (* span-duration summaries, in seconds; a span never entered
     reports NaN quantiles (the Prometheus convention for empty
     summaries) but keeps its _count 0 line so dashboards can key on
     it from the first scrape *)
  List.iter
    (fun (name, h) ->
      let full = "dcache_" ^ metric_name name ^ "_duration_seconds" in
      meta full "summary" name;
      let n = Histo_log.count h in
      let qv = Histo_log.quantiles h quantile_probes in
      Array.iteri
        (fun i q ->
          let v = if n = 0 then Float.nan else ns_to_s qv.(i) in
          sample ~label:("quantile", fmt_float q) full (fmt_float v))
        quantile_probes;
      sample (full ^ "_sum") (fmt_float (ns_to_s (float_of_int (Histo_log.sum h))));
      sample (full ^ "_count") (string_of_int n))
    (Obs.span_durations ());
  Buffer.contents b

(* ------------------------------------------------------ golden parser *)

(* Just enough of the 0.0.4 grammar to catch a malformed exposition:
   comment lines (with HELP/TYPE shape checks), sample lines with
   optional {labels} and an optional integer timestamp. *)

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false

(* first char of a metric/label name must not be a digit: the spec
   grammar is [a-zA-Z_:] followed by [a-zA-Z0-9_:] repeated *)
let is_name_start c = match c with '0' .. '9' -> false | c -> is_name_char c

let valid_name s = String.length s > 0 && is_name_start s.[0] && String.for_all is_name_char s

let known_type t =
  match t with
  | "counter" | "gauge" | "histogram" | "summary" | "untyped" -> true
  | _ -> false

(* [parse_sample] returns the literal metric name and the label names
   it carried, so [validate] can enforce family-level consistency on
   top of the line-level grammar. *)
let parse_sample line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do
    incr i
  done;
  if !i = 0 || not (is_name_start line.[0]) then Error "missing or malformed metric name"
  else
    let name = String.sub line 0 !i in
    let labels_ok =
      if !i < n && Char.equal line.[!i] '{' then begin
        incr i;
        let rec labels acc =
          if !i >= n then Error "unterminated label set"
          else if Char.equal line.[!i] '}' then begin
            incr i;
            Ok (List.rev acc)
          end
          else begin
            let s0 = !i in
            while !i < n && is_name_char line.[!i] do
              incr i
            done;
            if !i = s0 then Error "bad label name"
            else begin
              let key = String.sub line s0 (!i - s0) in
              if List.exists (String.equal key) acc then
                Error ("duplicate label name " ^ key)
              else if !i < n && Char.equal line.[!i] '=' then begin
                incr i;
                if !i < n && Char.equal line.[!i] '"' then begin
                  incr i;
                  let rec str () =
                    if !i >= n then Error "unterminated label value"
                    else if Char.equal line.[!i] '\\' then begin
                      i := !i + 2;
                      str ()
                    end
                    else if Char.equal line.[!i] '"' then begin
                      incr i;
                      Ok ()
                    end
                    else begin
                      incr i;
                      str ()
                    end
                  in
                  match str () with
                  | Error _ as e -> e
                  | Ok () ->
                      if !i < n && Char.equal line.[!i] ',' then incr i;
                      labels (key :: acc)
                end
                else Error "label value must be double-quoted"
              end
              else Error "expected '=' after label name"
            end
          end
        in
        labels []
      end
      else Ok []
    in
    match labels_ok with
    | Error e -> Error e
    | Ok keys ->
        if !i < n && Char.equal line.[!i] ' ' then begin
          let rest = String.sub line (!i + 1) (n - !i - 1) in
          let fields =
            List.filter (fun s -> String.length s > 0) (String.split_on_char ' ' rest)
          in
          let value_ok v =
            match float_of_string_opt v with
            | Some _ -> Ok (name, keys)
            | None -> Error ("unparseable sample value " ^ v)
          in
          match fields with
          | [ v ] -> value_ok v
          | [ v; ts ] -> (
              match value_ok v with
              | Error _ as e -> e
              | Ok _ -> (
                  match int_of_string_opt ts with
                  | Some _ -> Ok (name, keys)
                  | None -> Error ("unparseable timestamp " ^ ts)))
          | _ -> Error "expected 'name[{labels}] value [timestamp]'"
        end
        else Error "missing sample value"

let parse_comment line =
  let fields = String.split_on_char ' ' line in
  match fields with
  | "#" :: "TYPE" :: name :: [ typ ] ->
      if not (valid_name name) then Error ("bad metric name in TYPE: " ^ name)
      else if not (known_type typ) then Error ("unknown metric type " ^ typ)
      else Ok ()
  | "#" :: "TYPE" :: _ -> Error "TYPE line needs 'name type'"
  | "#" :: "HELP" :: name :: _ ->
      if valid_name name then Ok () else Error ("bad metric name in HELP: " ^ name)
  | "#" :: "HELP" :: _ -> Error "HELP line needs a metric name"
  | _ -> Ok () (* free-form comment *)

let validate text =
  let lines = String.split_on_char '\n' text in
  (* literal metric name -> sorted label-name set of its first sample;
     every later sample of the same name must carry the same set *)
  let families : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let rec go ln samples remaining =
    match remaining with
    | [] -> Ok samples
    | line :: rest ->
        if String.length line = 0 then go (ln + 1) samples rest
        else if Char.equal line.[0] '#' then begin
          match parse_comment line with
          | Ok () -> go (ln + 1) samples rest
          | Error e -> Error (Printf.sprintf "line %d: %s" ln e)
        end
        else begin
          match parse_sample line with
          | Ok (name, keys) -> (
              let keys = List.sort String.compare keys in
              match Hashtbl.find_opt families name with
              | None ->
                  Hashtbl.add families name keys;
                  go (ln + 1) (samples + 1) rest
              | Some prior ->
                  if List.equal String.equal prior keys then go (ln + 1) (samples + 1) rest
                  else
                    Error
                      (Printf.sprintf "line %d: inconsistent label set for metric %s" ln name))
          | Error e -> Error (Printf.sprintf "line %d: %s" ln e)
        end
  in
  go 1 0 lines

(* ------------------------------------------------------- HTTP endpoint *)

type server = { fd : Unix.file_descr; s_port : int }

let listen ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  let s_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  { fd; s_port }

let port s = s.s_port

let close s = try Unix.close s.fd with Unix.Unix_error _ -> ()

let http_response ~status ~ctype body =
  Printf.sprintf "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status ctype (String.length body) body

(* first request line: "METHOD /path HTTP/1.x" *)
let request_target raw =
  match String.index_opt raw ' ' with
  | None -> None
  | Some sp1 -> (
      let meth = String.sub raw 0 sp1 in
      let rest = String.sub raw (sp1 + 1) (String.length raw - sp1 - 1) in
      match String.index_opt rest ' ' with
      | None -> None
      | Some sp2 -> Some (meth, String.sub rest 0 sp2))

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  (try
     while !off < n do
       off := !off + Unix.write_substring fd s !off (n - !off)
     done
   with Unix.Unix_error _ -> () (* client went away: drop the response *))

let serve_client fd =
  let buf = Bytes.create 4096 in
  let len = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
  let target = if len > 0 then request_target (Bytes.sub_string buf 0 len) else None in
  let response =
    match target with
    | Some ("GET", "/metrics") ->
        http_response ~status:"200 OK" ~ctype:content_type (exposition ())
    | Some ("GET", _) -> http_response ~status:"404 Not Found" ~ctype:"text/plain" "not found\n"
    | Some _ ->
        http_response ~status:"405 Method Not Allowed" ~ctype:"text/plain"
          "method not allowed\n"
    | None -> http_response ~status:"400 Bad Request" ~ctype:"text/plain" "bad request\n"
  in
  write_all fd response

let rec poll_from s served =
  match Unix.accept s.fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> served
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll_from s served
  | client, _addr ->
      (try Unix.clear_nonblock client with Unix.Unix_error _ -> ());
      Fun.protect
        ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
        (fun () -> serve_client client);
      poll_from s (served + 1)

let poll s = poll_from s 0
