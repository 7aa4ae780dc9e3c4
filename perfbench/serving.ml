(* serve: a closed loop of two synchronous [Serve.Client] connections
   against the daemon, which runs in its own process (this executable
   with --daemon), so the clients never share its runtime lock.

   Each connection resends a hot set of fuzz graphs by [Prog_key] (cache
   hits); every [miss_every]-th request is a never-seen graph sent as
   [Prog_sdfg] text (a miss).  Misses compile on the daemon's single
   executor thread, which the hits queue behind, so the workload reads
   the cache beside inserts.  Clients block on each reply: a closed loop
   is the traffic model.  Latency is measured at the client and split by
   the response's [rs_hit]. *)

open Common
module P = Serve.Protocol
module C = Serve.Client
module Sdfg = Sdfg_ir.Sdfg
module Serialize = Sdfg_ir.Serialize

(* The mix reproduces the specifying probe (777-805 req/s): a sweep of
   [miss_every] over 2..8 on this generator config measured 790-819
   req/s at 6 (NOTES.md).  [hot_graphs] is the largest hot set the
   daemon's default 32-entry LRU cache keeps resident at that miss rate:
   between two uses of a hot key come at most 20 other hot keys and 9
   fresh graphs.  The fresh graphs are renamed variants of
   [fresh_bases] seeded bases, so the miss cost averages over many
   shapes. *)
let clients = 2
let hot_graphs = 21
let fresh_bases = 48
let miss_every = 6

type graph = {
  graph : Sdfg.t;
  name : string;
  text : string;
  symbols : (string * int) list;
  args : (string * Tensor.t) list;
  expected : (string * Tensor.t) list;  (* reference outputs *)
}

type record = {
  index : int;
  base : graph;
  want_hit : bool;
  traced : bool;  (* sent in a traced round of an interleaved window *)
  latency : float;
  result : (P.run_result, string) result;
}

type window = {
  records : record list;
  delta : string -> int;  (* change of a daemon stats counter *)
  after : J.t;            (* daemon stats at the end of the window *)
}

type inputs = { seed : int; hot : graph array; fresh : graph array }

type state = {
  inputs : inputs;
  pid : int;
  conns : C.t array;
  hot_keys : string array;
  next : int Atomic.t;  (* request index; never reset, so misses never repeat *)
  mutable windows : window list;  (* latest first *)
}

(* --- the daemon process ---------------------------------------------------- *)

(* The daemon as [sdfg serve] ships it: default cache capacity and
   queue bound. *)
let daemon ~socket =
  let srv = Serve.Server.start ~socket () in
  Serve.Server.wait srv;
  exit 0

let spawn_daemon socket =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; socket |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  pid

let rec connect ~pid socket tries =
  match C.connect socket with
  | c -> c
  | exception Unix.Unix_error _ when tries > 0 ->
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "serve daemon exited during start-up");
    Unix.sleepf 0.01;
    connect ~pid socket (tries - 1)

(* Stop the daemon and wait for it: a shutdown request first, a kill if
   it has not gone within five seconds. *)
let stop_daemon pid conns =
  (try C.shutdown conns.(0) with _ -> ());
  Array.iter (fun c -> try C.close c with _ -> ()) conns;
  let rec wait k =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when k > 0 ->
      Unix.sleepf 0.01;
      wait (k - 1)
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait 500

(* --- graphs and the request schedule -------------------------------------- *)

let graph_of seed =
  let graph = Fuzz.Gen.generate ~config:gen_config seed in
  let symbols = Fuzz.Gen.symbols_for graph in
  let args = Interp.Profile.make_args ~symbols graph in
  let expected = copy_args args in
  ignore (Exec.run ~config:reference_config ~symbols ~args:expected graph);
  { graph; name = Sdfg.name graph; text = Serialize.to_string graph; symbols;
    args; expected }

(* A never-seen variant of a fresh base graph: the same program under a
   new name, so its cache key is new and the daemon parses, validates,
   plans and runs it from scratch. *)
let renamed g k =
  let prefix = Printf.sprintf "(sdfg %S" g.name in
  if not (String.starts_with ~prefix g.text) then
    failwith ("unexpected serialized header for " ^ g.name);
  Printf.sprintf "(sdfg %S" (Printf.sprintf "%s~%d" g.name k)
  ^ String.sub g.text (String.length prefix)
      (String.length g.text - String.length prefix)

(* Request [i]: every [miss_every]-th is the next never-seen graph; the
   rest walk the hot set in a fresh seeded order per cycle, so every hot
   key recurs within two cycles and none ages out of the cache. *)
let schedule st i =
  if i mod miss_every = miss_every - 1 then
    let m = i / miss_every in
    let base = st.inputs.fresh.(m mod fresh_bases) in
    (base, false, P.Prog_sdfg (renamed base m))
  else
    let h = i - (i / miss_every) in
    let cycle = h / hot_graphs in
    let perm =
      Fuzz.Rand.shuffle
        (Fuzz.Rand.create ((st.inputs.seed * 7919) + cycle))
        (List.init hot_graphs Fun.id)
    in
    let k = List.nth perm (h mod hot_graphs) in
    (st.inputs.hot.(k), true, P.Prog_key st.hot_keys.(k))

let send conn g program =
  C.run ~symbols:g.symbols ~config ~args:g.args conn program

let stats conn =
  match C.stats conn with
  | Ok j -> j
  | Error e -> failwith ("serve stats: " ^ e)

let counter json path =
  let rec go j = function
    | [] -> Option.get (J.to_int_opt j)
    | k :: rest -> go (Option.get (J.member k j)) rest
  in
  go json path

(* --- set-up ----------------------------------------------------------------- *)

let prepare ~seed =
  let r = Fuzz.Rand.create seed in
  let draw n = Array.init n (fun _ -> graph_of (Fuzz.Rand.int r 1_000_000_000)) in
  let hot = draw hot_graphs in
  { seed; hot; fresh = draw fresh_bases }

(* The system's set-up, all of it timed: start the daemon, connect the
   clients and prime the hot set, one miss each, whose keys the clients
   then resend. *)
let setup inputs =
  ensure_out_dir ();
  let socket =
    Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  let t0 = now () in
  let pid = spawn_daemon socket in
  let conns =
    try Array.init clients (fun _ -> connect ~pid socket 1000)
    with e ->
      (try Unix.kill pid Sys.sigkill with _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e
  in
  let prime g =
    match send conns.(0) g (P.Prog_sdfg g.text) with
    | Ok r -> r.P.rs_key
    | Error e -> failwith ("priming the hot set: " ^ e)
  in
  match Array.map prime inputs.hot with
  | hot_keys ->
    ( { inputs; pid; conns; hot_keys; next = Atomic.make 0; windows = [] },
      now () -. t0 )
  | exception e ->
    stop_daemon pid conns;
    raise e

let teardown st = stop_daemon st.pid st.conns
let rss_mb st = peak_rss_mb (string_of_int st.pid)

(* --- measurement ------------------------------------------------------------ *)

let min_hits = Stats.min_samples_for 99.
let min_misses = Stats.min_samples_for 90.

(* With [interleave], requests run traced in alternate blocks of
   [miss_every] indices, each block holding one miss: the two clients
   send concurrently, so rounds alternate by request index, not in
   time. *)
let measure st ~seconds ~interleave =
  let before = stats st.conns.(0) in
  if interleave then Trace.enabled := true;
  let need = if interleave then 2 else 1 in
  let deadline = now () +. seconds in
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let client conn () =
    let acc = ref [] in
    while
      keep_going ~deadline (fun () ->
          Atomic.get hits >= need * min_hits
          && Atomic.get misses >= need * min_misses)
    do
      let index = Atomic.fetch_and_add st.next 1 in
      let base, want_hit, program = schedule st index in
      let traced = interleave && (index / miss_every) land 1 = 1 in
      let result, latency =
        timed (fun () ->
            if traced then
              Trace.span ~id:index "client.request" (fun () ->
                  send conn base program)
            else send conn base program)
      in
      Atomic.incr (if want_hit then hits else misses);
      acc := { index; base; want_hit; traced; latency; result } :: !acc
    done;
    !acc
  in
  let t0 = now () in
  let results = Array.make clients [] in
  let threads =
    Array.mapi
      (fun i conn -> Thread.create (fun () -> results.(i) <- client conn ()) ())
      st.conns
  in
  Array.iter Thread.join threads;
  let wall = now () -. t0 in
  Trace.enabled := false;
  let after = stats st.conns.(0) in
  let delta path = counter after path - counter before path in
  let records = List.concat (Array.to_list results) in
  let delta name =
    match name with
    | "hits" | "misses" | "evictions" -> delta [ "cache"; name ]
    | _ -> delta [ name ]
  in
  st.windows <- { records; delta; after } :: st.windows;
  let split traced =
    Stats.split_hits
      (List.filter_map
         (fun r ->
           match r.result with
           | Ok res when r.traced = traced -> Some (res.P.rs_hit, 1e3 *. r.latency)
           | _ -> None)
         records)
  in
  let hit, miss = split false in
  let p99 xs = Result.get_ok (Stats.tail 99. xs) in
  let ok = List.length (List.filter (fun r -> Result.is_ok r.result) records) in
  let rps = float_of_int ok /. wall in
  [ ("p50_ms", Stats.median hit); ("tail_ms", p99 hit); ("ops_per_s", rps);
    ("rps", rps); ("hit_p50_ms", Stats.median hit); ("hit_p99_ms", p99 hit) ]
  @ (match (miss, Stats.tail 99. miss, Stats.tail 90. miss) with
    | [], _, _ -> []
    | _, Ok v, _ -> [ ("miss_p50_ms", Stats.median miss); ("miss_p99_ms", v) ]
    | _, Error _, Ok v -> [ ("miss_p50_ms", Stats.median miss); ("miss_p90_ms", v) ]
    | _ -> [ ("miss_p50_ms", Stats.median miss) ])
  @ if interleave then [ ("traced_p50_ms", Stats.median (fst (split true))) ] else []

(* --- traced-only: the server's layers, replayed in process ---------------- *)

let report_wall (r : P.run_result) =
  Option.value ~default:0.
    (Option.bind (J.member "wall_s" r.rs_report) J.to_float_opt)

(* Replay the window's requests, all of them and in index order, so the
   cache holds what the daemon's held, through the
   public calls the daemon makes for them: decode the frame, key the
   program (parse, print, digest), probe the cache, on a miss parse again,
   validate, create and run (plan), and encode the reply.  A miss also
   runs a second time, untimed by the client, to separate plan from
   execution. *)
let replay st records ~budget =
  let cache = Serve.Cache.create () in
  (* The hot set enters the cache as the daemon's priming left it. *)
  let hot_reports =
    Array.to_list
      (Array.mapi
         (fun k g ->
           let canon = Serialize.to_string (Serialize.of_string g.text) in
           let inst =
             Exec.Instance.create ~config ~symbols:g.symbols
               (Serialize.of_string canon)
           in
           let first = Exec.Instance.run ~args:(copy_args g.args) inst in
           let steady = Exec.Instance.run ~args:(copy_args g.args) inst in
           let key = P.cache_key ~sdfg_text:canon ~symbols:g.symbols ~config in
           if not (String.equal key st.hot_keys.(k)) then
             failwith "replay: hot-set key differs from the daemon's";
           ignore (Serve.Cache.add cache ~key ~text:canon inst);
           (first, steady))
         st.inputs.hot)
  in
  let sizes = ref [] in
  let deadline = now () +. budget in
  Trace.enabled := true;
  List.iter
    (fun r ->
      if now () < deadline then
        let _, _, program = schedule st r.index in
        let request =
          P.Run
            { rq_program = program; rq_symbols = r.base.symbols; rq_config = config;
              rq_args = r.base.args }
        in
        let payload = J.to_string (P.request_to_json ~id:r.index request) in
        Trace.span ~id:r.index "replay.request" (fun () ->
            let rq =
              Trace.span "protocol.decode" (fun () ->
                  match P.request_of_json (J.parse payload) with
                  | Ok (P.Run rq) -> rq
                  | _ -> failwith "replay: undecodable request")
            in
            let key, text =
              match rq.rq_program with
              | P.Prog_key k -> (k, None)
              | P.Prog_sdfg text ->
                let g = Trace.span "serialize.parse" (fun () -> Serialize.of_string text) in
                let canon = Trace.span "serialize.print" (fun () -> Serialize.to_string g) in
                ( Trace.span "protocol.key" (fun () ->
                      P.cache_key ~sdfg_text:canon ~symbols:rq.rq_symbols
                        ~config:rq.rq_config),
                  Some canon )
              | _ -> failwith "replay: unexpected program kind"
            in
            let inst, hit =
              match Trace.span "cache.find" (fun () -> Serve.Cache.find cache key) with
              | Some inst -> (inst, true)
              | None ->
                let text =
                  match text with
                  | Some t -> t
                  | None ->
                    let c = Serve.Cache.stats cache in
                    failwith
                      (Printf.sprintf
                         "replay: request %d's key left the cache (%d entries, %d evictions)"
                         r.index c.c_entries c.c_evictions)
                in
                let g = Trace.span "serialize.parse" (fun () -> Serialize.of_string text) in
                (match Trace.span "validate" (fun () -> Sdfg_ir.Validate.validate g) with
                | Ok () -> ()
                | Error _ -> failwith "replay: invalid graph");
                let inst =
                  Trace.span "instance.create" (fun () ->
                      Exec.Instance.create ~config:rq.rq_config ~symbols:rq.rq_symbols g)
                in
                (Serve.Cache.add cache ~key ~text inst, false)
            in
            let args = copy_args rq.rq_args in
            let report =
              Trace.span (if hit then "exec.run" else "exec.first_run") (fun () ->
                  Exec.Instance.run ~args inst)
            in
            if not hit then
              Trace.span "exec.run" (fun () ->
                  ignore (Exec.Instance.run ~args:(copy_args rq.rq_args) inst));
            let reply =
              Trace.span "protocol.encode" (fun () ->
                  J.to_string
                    (P.response_to_json ~id:r.index
                       (P.Resp_run
                          { rs_key = key; rs_hit = hit;
                            rs_report = Obs.Report.to_json report;
                            rs_outputs = args })))
            in
            sizes := (String.length payload, String.length reply) :: !sizes))
    (List.sort (fun a b -> compare a.index b.index) records);
  Trace.enabled := false;
  (hot_reports, !sizes)

let layers st ~spans:_ ~selfs:_ =
  let window =
    match st.windows with
    | w :: _ -> w
    | [] -> invalid_arg "serve layers: no measured window"
  in
  let traced, plain = List.partition (fun r -> r.traced) window.records in
  let split hit f =
    List.filter_map
      (fun r ->
        match r.result with
        | Ok res when res.P.rs_hit = hit -> Some (f r res)
        | _ -> None)
      traced
  in
  let med = function [] -> 0. | xs -> Stats.median xs in
  let wall hit = med (split hit (fun _ res -> 1e3 *. report_wall res)) in
  let overhead hit =
    med (split hit (fun r res -> 1e3 *. (r.latency -. report_wall res)))
  in
  let miss_latency =
    List.filter_map
      (fun r ->
        match r.result with
        | Ok res when not res.P.rs_hit -> Some (1e3 *. r.latency)
        | _ -> None)
      plain
  in
  let hits = window.delta "hits" and misses = window.delta "misses" in
  let hot_reports, sizes = replay st window.records ~budget:5. in
  let spans = Trace.spans () in
  let selfs = Trace.self_times spans in
  let med_self = median_self spans selfs in
  let miss_bytes =
    List.filter_map
      (fun r ->
        if r.want_hit then None
        else Some (float_of_int (String.length r.base.text)))
      traced
  in
  [ ("server.exec_hit_ms", wall true); ("server.exec_miss_ms", wall false);
    ("server.overhead_hit_ms", overhead true);
    ("server.overhead_miss_ms", overhead false);
    ("server.max_queue_depth",
     float_of_int (counter window.after [ "max_queue_depth" ]));
    ("server.shed", float_of_int (window.delta "shed"));
    ("cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
    ("cache.evictions", float_of_int (window.delta "evictions"));
    ("serve.miss_p50_ms", med miss_latency);
    ("serve.miss_p90_ms",
     Result.value ~default:0. (Stats.tail 90. miss_latency));
    ("protocol.decode_ms", med_self "protocol.decode");
    ("protocol.encode_ms", med_self "protocol.encode");
    ("protocol.key_ms", med_self "protocol.key");
    ("protocol.request_bytes", med (List.map (fun (q, _) -> float_of_int q) sizes));
    ("protocol.response_bytes", med (List.map (fun (_, p) -> float_of_int p) sizes));
    ("serialize.parse_ms", med_self "serialize.parse");
    ("serialize.print_ms", med_self "serialize.print");
    ("ir.text_bytes", med miss_bytes);
    ("validate_ms", med_self "validate");
    ("instance.create_ms", med_self "instance.create");
    ("plan_ms", plan_ms spans selfs);
    ("exec.run_ms", med_self "exec.run") ]
  @ report_counts hot_reports

(* --- correctness --------------------------------------------------------- *)

(* Every reply must carry the reference outputs and the hit/miss kind
   its request was scheduled as; per window, the hits the clients saw
   must equal the daemon's cache hits plus its batched followers (which
   share their leader's probe), and the misses its cache misses. *)
let verify st =
  let notes = ref [] and failed = ref 0 and attempted = ref 0 in
  let fail msg =
    incr failed;
    notes := msg :: !notes
  in
  List.iter
    (fun w ->
      let client_hits = ref 0 and client_misses = ref 0 in
      List.iter
        (fun r ->
          incr attempted;
          match r.result with
          | Error e -> fail (Printf.sprintf "request %d: %s" r.index e)
          | Ok res ->
            if res.P.rs_hit then incr client_hits else incr client_misses;
            if res.P.rs_hit <> r.want_hit then
              fail (Printf.sprintf "request %d: unexpected cache %s" r.index
                      (if res.P.rs_hit then "hit" else "miss"))
            else if
              not (outputs_match r.base.graph res.P.rs_outputs r.base.expected)
            then
              fail (Printf.sprintf "request %d (%s): outputs differ from the reference engine"
                      r.index r.base.name))
        w.records;
      let daemon_hits = w.delta "hits" + w.delta "batched" in
      if !client_hits <> daemon_hits || !client_misses <> w.delta "misses" then
        fail
          (Printf.sprintf
             "clients saw %d hits / %d misses, the daemon counted %d / %d"
             !client_hits !client_misses daemon_hits (w.delta "misses")))
    st.windows;
  { attempted = !attempted; failed = !failed; notes = List.rev !notes }
