(** Cost-only streaming optimum: {!Streaming_dp.cost} in constant memory.

    {!Streaming_dp} keeps its whole [O(mn)] table because schedule
    reconstruction walks it backwards.  A caller that only reads the
    optimum-so-far (the online-vs-offline auditor) needs far less: the
    pivot scan for [D(i)] on server [s] reads only the arena row of
    [q], the last request on [s], and from that row only, per server
    [j], [D] and [B] of the first request on [j] after [q].  So one
    {e live row} per server — the row of its latest request — is the
    whole state: [O(m^2)] floats, independent of the stream length,
    updated in [O(m)] per request.

    Every float is produced by the same operations in the same order
    as {!Streaming_dp.push}, so [cost] equals {!Streaming_dp.cost}
    bit for bit at every prefix. *)

type t

val create : Cost_model.t -> m:int -> t
(** Empty instance: the item sits on server [0] at time [0].
    @raise Invalid_argument if [m < 1]. *)

val push : t -> server:int -> time:float -> unit
(** Appends the next request.  [O(m)] time, no extra space.  A
    rejected push leaves the state untouched.
    @raise Invalid_argument if the server is out of range or the time
    is not finite or does not strictly exceed the previous request's. *)

val n : t -> int
(** Requests pushed so far. *)

val cost : t -> float
(** [C(n)]: optimal cost of serving everything pushed so far. *)
