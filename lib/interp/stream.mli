(** Bounded stream channels with blocking producers and consumers.

    The runtime form of a stream container under streaming execution
    ([Exec.Instance.run_streaming]): a fixed-capacity ring buffer.
    [push] blocks while the channel is full (backpressure), [pop]
    blocks while it is empty, and [close] marks end-of-stream — after
    a closed channel drains, [pop] returns [None].

    All operations are thread-safe (one mutex, two condition
    variables per channel) and may be called from any domain.  A
    channel also accumulates sustained-load metrics — push/pop
    counts, depth high-water mark, and the wall-clock time either
    side spent blocked — surfaced via {!stats} and reported in
    [Obs.Report]'s parallel section. *)

type 'a t

(** Per-channel counters, a consistent snapshot taken under the
    channel lock. *)
type stats = {
  ch_name : string;
  ch_capacity : int;
  ch_pushes : int;
  ch_pops : int;
  ch_depth_hwm : int;       (** deepest the ring ever got; never exceeds capacity *)
  ch_push_blocked_s : float;  (** total seconds producers spent waiting on full *)
  ch_pop_blocked_s : float;   (** total seconds consumers spent waiting on empty *)
}

(** Raised by {!push} on a closed channel (the payload is the channel
    name).  Pushing after close is always a caller bug — EOS must
    cascade strictly downstream. *)
exception Closed of string

(** [create ~capacity ()] makes an empty open channel.  Capacity is
    clamped to at least 1. *)
val create : ?name:string -> capacity:int -> unit -> 'a t

val capacity : 'a t -> int
val name : 'a t -> string

(** Current number of buffered elements. *)
val length : 'a t -> int

(** Blocks while full; raises {!Closed} if the channel is (or
    becomes, while waiting) closed. *)
val push : 'a t -> 'a -> unit

(** Blocks while empty and open; [None] means end-of-stream (closed
    and fully drained). *)
val pop : 'a t -> 'a option

(** Non-blocking pop; [None] when currently empty (no EOS
    distinction — use {!pop} in worker loops). *)
val try_pop : 'a t -> 'a option

(** Idempotent; wakes all blocked producers and consumers. *)
val close : 'a t -> unit

val stats : 'a t -> stats
