(* Bounded stream channels for the streaming execution mode.

   A channel is the runtime form of a stream container when a graph
   runs under [Exec.Instance.run_streaming]: a fixed-capacity ring
   buffer with mutex/condvar blocking semantics.  Producers block on a
   full channel (backpressure — this is what bounds memory when a
   producer outruns its consumer), consumers block on an empty one,
   and [close] marks end-of-stream: once a closed channel drains,
   [pop] returns [None] and consume-scope workers shut down.

   Channels carry their own sustained-load counters (pushes, pops,
   depth high-water mark, accumulated blocked time on either side) so
   [Obs.Report]'s parallel section can surface per-channel pressure
   without any extra instrumentation hooks in the workers. *)

type 'a t = {
  buf : 'a option array;          (* ring storage, [cap] slots *)
  cap : int;
  mutable head : int;             (* index of the next element to pop *)
  mutable len : int;              (* live elements in the ring *)
  mutable closed : bool;
  lock : Mutex.t;
  nonempty : Condition.t;         (* signalled on push and on close *)
  nonfull : Condition.t;          (* signalled on pop and on close *)
  name : string;
  (* metrics, guarded by [lock] *)
  mutable pushes : int;
  mutable pops : int;
  mutable depth_hwm : int;
  mutable push_blocked_s : float;
  mutable pop_blocked_s : float;
}

type stats = {
  ch_name : string;
  ch_capacity : int;
  ch_pushes : int;
  ch_pops : int;
  ch_depth_hwm : int;
  ch_push_blocked_s : float;
  ch_pop_blocked_s : float;
}

exception Closed of string

let create ?(name = "") ~capacity () =
  let cap = max 1 capacity in
  {
    buf = Array.make cap None;
    cap;
    head = 0;
    len = 0;
    closed = false;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    nonfull = Condition.create ();
    name;
    pushes = 0;
    pops = 0;
    depth_hwm = 0;
    push_blocked_s = 0.;
    pop_blocked_s = 0.;
  }

let capacity c = c.cap
let name c = c.name

let length c =
  Mutex.lock c.lock;
  let n = c.len in
  Mutex.unlock c.lock;
  n

let push c v =
  Mutex.lock c.lock;
  if c.closed then begin
    Mutex.unlock c.lock;
    raise (Closed c.name)
  end;
  if c.len >= c.cap then begin
    let t0 = Obs.Collect.now () in
    while c.len >= c.cap && not c.closed do
      Condition.wait c.nonfull c.lock
    done;
    c.push_blocked_s <- c.push_blocked_s +. (Obs.Collect.now () -. t0);
    if c.closed then begin
      Mutex.unlock c.lock;
      raise (Closed c.name)
    end
  end;
  c.buf.((c.head + c.len) mod c.cap) <- Some v;
  c.len <- c.len + 1;
  c.pushes <- c.pushes + 1;
  if c.len > c.depth_hwm then c.depth_hwm <- c.len;
  Condition.signal c.nonempty;
  Mutex.unlock c.lock

let pop c =
  Mutex.lock c.lock;
  if c.len = 0 && not c.closed then begin
    let t0 = Obs.Collect.now () in
    while c.len = 0 && not c.closed do
      Condition.wait c.nonempty c.lock
    done;
    c.pop_blocked_s <- c.pop_blocked_s +. (Obs.Collect.now () -. t0)
  end;
  if c.len = 0 then begin
    (* closed and drained: end-of-stream *)
    Mutex.unlock c.lock;
    None
  end
  else begin
    let v = c.buf.(c.head) in
    c.buf.(c.head) <- None;
    c.head <- (c.head + 1) mod c.cap;
    c.len <- c.len - 1;
    c.pops <- c.pops + 1;
    Condition.signal c.nonfull;
    Mutex.unlock c.lock;
    v
  end

let try_pop c =
  Mutex.lock c.lock;
  if c.len = 0 then begin
    Mutex.unlock c.lock;
    None
  end
  else begin
    let v = c.buf.(c.head) in
    c.buf.(c.head) <- None;
    c.head <- (c.head + 1) mod c.cap;
    c.len <- c.len - 1;
    c.pops <- c.pops + 1;
    Condition.signal c.nonfull;
    Mutex.unlock c.lock;
    v
  end

let close c =
  Mutex.lock c.lock;
  if not c.closed then begin
    c.closed <- true;
    Condition.broadcast c.nonempty;
    Condition.broadcast c.nonfull
  end;
  Mutex.unlock c.lock

let stats c =
  Mutex.lock c.lock;
  let s =
    {
      ch_name = c.name;
      ch_capacity = c.cap;
      ch_pushes = c.pushes;
      ch_pops = c.pops;
      ch_depth_hwm = c.depth_hwm;
      ch_push_blocked_s = c.push_blocked_s;
      ch_pop_blocked_s = c.pop_blocked_s;
    }
  in
  Mutex.unlock c.lock;
  s
