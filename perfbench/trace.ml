(* In-memory span recorder for the traced run.

   The benchmark wraps its own calls into each layer's public functions
   in [span]; nothing inside the program is instrumented.  A span records
   its name, start, end, the span that was open on the same thread when
   it started (its parent) and a request/program id, inherited from the
   parent when not given.  Spans stay in memory until [save] writes them
   as a Chrome trace at the end of the run.  With tracing off, [span]
   only calls its thunk. *)

type span = {
  name : string;
  id : int;
  parent : int;  (* index into the span table, -1 for a root *)
  tid : int;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let table : span option array ref = ref (Array.make 4096 None)
let count = ref 0
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      table := Array.make 4096 None;
      count := 0;
      Hashtbl.reset stacks)

let open_span ?id name =
  let tid = Thread.id (Thread.self ()) in
  locked (fun () ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      let parent = match stack with p :: _ -> p | [] -> -1 in
      let id =
        match id with
        | Some i -> i
        | None -> (
          match parent with
          | -1 -> -1
          | p -> (Option.get !table.(p)).id)
      in
      let idx = !count in
      if idx = Array.length !table then begin
        let bigger = Array.make (2 * idx) None in
        Array.blit !table 0 bigger 0 idx;
        table := bigger
      end;
      !table.(idx) <-
        Some { name; id; parent; tid; t0 = Unix.gettimeofday (); t1 = nan };
      incr count;
      Hashtbl.replace stacks tid (idx :: stack);
      idx)

let close_span idx =
  let t1 = Unix.gettimeofday () in
  locked (fun () ->
      let sp = Option.get !table.(idx) in
      sp.t1 <- t1;
      match Hashtbl.find_opt stacks sp.tid with
      | Some (_ :: rest) -> Hashtbl.replace stacks sp.tid rest
      | _ -> ())

let span ?id name f =
  if not !enabled then f ()
  else begin
    let idx = open_span ?id name in
    Fun.protect ~finally:(fun () -> close_span idx) f
  end

let spans () =
  locked (fun () -> Array.init !count (fun i -> Option.get !table.(i)))

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   child spans cover. *)
let self_times (spans : span array) =
  let children = Array.make (Array.length spans) [] in
  Array.iteri
    (fun i sp ->
      if sp.parent >= 0 then children.(sp.parent) <- i :: children.(sp.parent))
    spans;
  Array.mapi
    (fun i sp ->
      let kids = List.map (fun c -> (spans.(c).t0, spans.(c).t1)) children.(i) in
      sp.t1 -. sp.t0 -. covered ~lo:sp.t0 ~hi:sp.t1 kids)
    spans

(* Self times in milliseconds of the spans named [name], optionally
   restricted to one id. *)
let self_ms ?id spans selfs name =
  let acc = ref [] in
  Array.iteri
    (fun i sp ->
      if String.equal sp.name name
         && match id with None -> true | Some x -> sp.id = x
      then acc := (1e3 *. selfs.(i)) :: !acc)
    spans;
  List.rev !acc

(* Spans written per trace file; the metrics use every span in memory. *)
let max_saved = 50_000

let save ~stamp path spans selfs =
  let module J = Obs.Json in
  let total = Array.length spans in
  let spans = Array.sub spans 0 (min total max_saved) in
  let base = if Array.length spans = 0 then 0. else spans.(0).t0 in
  let us x = J.Float (1e6 *. x) in
  let events =
    Array.to_list
      (Array.mapi
         (fun i sp ->
           J.Obj
             [ ("name", J.Str sp.name); ("ph", J.Str "X");
               ("ts", us (sp.t0 -. base)); ("dur", us (sp.t1 -. sp.t0));
               ("pid", J.Int 0); ("tid", J.Int sp.tid);
               ("args",
                J.Obj
                  [ ("id", J.Int sp.id); ("parent", J.Int sp.parent);
                    ("self_us", us selfs.(i)) ]) ])
         spans)
  in
  J.save
    (J.Obj
       [ ("traceEvents", J.Arr events);
         ("otherData",
          J.Obj [ ("stamp", stamp); ("spans", J.Int total);
                  ("spans_saved", J.Int (Array.length spans)) ]) ])
    path
