(* Allocation-free (float time, int server) min-heap: two parallel
   arrays instead of an array of boxed tuples, and direct accessors
   instead of option-returning peek/pop.  The lexicographic
   (time, server) order is byte-identical to [compare] on
   [(float * int)] tuples for the non-NaN times its callers push. *)

type t = { mutable times : float array; mutable servers : int array; mutable size : int }

let create () = { times = [||]; servers = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let before h i j =
  h.times.(i) < h.times.(j) || (h.times.(i) = h.times.(j) && h.servers.(i) < h.servers.(j))

let grow h =
  let cap = Array.length h.times in
  if h.size = cap then begin
    let ncap = max 8 (2 * cap) in
    let nt = Array.make ncap 0.0 and ns = Array.make ncap 0 in
    Array.blit h.times 0 nt 0 h.size;
    Array.blit h.servers 0 ns 0 h.size;
    h.times <- nt;
    h.servers <- ns
  end

let swap h i j =
  let t = h.times.(i) and s = h.servers.(i) in
  h.times.(i) <- h.times.(j);
  h.servers.(i) <- h.servers.(j);
  h.times.(j) <- t;
  h.servers.(j) <- s

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

(* amortised growth, like [Streaming_dp.push] *)
let push h ~time ~server =
  grow h;
  h.times.(h.size) <- time;
  h.servers.(h.size) <- server;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)
[@@hot]

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.size && before h l i then l else i in
  let smallest = if r < h.size && before h r smallest then r else smallest in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let min_time h = if h.size = 0 then invalid_arg "Pqueue.min_time: empty heap" else h.times.(0)

let min_server h =
  if h.size = 0 then invalid_arg "Pqueue.min_server: empty heap" else h.servers.(0)

let drop_min h =
  if h.size = 0 then invalid_arg "Pqueue.drop_min: empty heap";
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.times.(0) <- h.times.(h.size);
    h.servers.(0) <- h.servers.(h.size);
    sift_down h 0
  end
