(** Allocation-free [(time, server)] binary min-heap.

    Two parallel arrays instead of boxed tuples, and direct accessors
    instead of option-returning peek/pop, so the hot loops that use it
    allocate only when the backing arrays grow.  Ordering is
    lexicographic (time, then server), identical to [compare] on
    [(float * int)] for non-NaN times.

    Used for the copy-expiration events of the online Speculative
    Caching algorithm, the timer queue of the discrete-event simulator
    (keyed on an arming stamp in place of a server) and Dijkstra's
    frontier on the space-time graph (keyed on a vertex).  [push] and
    [drop_min] are the textbook [O(log n)] sift operations; the
    accessors are [O(1)]. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> time:float -> server:int -> unit
(** Amortised O(log n); grows the backing arrays by doubling. *)

val min_time : t -> float
(** Time of the minimum entry.  @raise Invalid_argument when empty. *)

val min_server : t -> int
(** Server of the minimum entry.  @raise Invalid_argument when empty. *)

val drop_min : t -> unit
(** Removes the minimum entry.  @raise Invalid_argument when empty. *)
