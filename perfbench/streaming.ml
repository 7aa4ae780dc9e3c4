(* stream: [Exec.Instance.run_streaming] of the three continuous
   queries in [Workloads.Streaming.all] (window, filter, topk) over a
   seeded feed.

   The only workload that exercises bounded channels and pipeline
   workers.  Each operation pushes one whole feed through one query, in
   chunks, on an instance created during set-up; the queries take turns.
   Every run's output stream and arrays are compared with a batch run of
   the same feed on the reference engine. *)

open Common

let feed_elems = 4096
let chunk = 64

(* A query's graph, seeded feed and reference outputs: harness work,
   done once. *)
type input = {
  id : int;
  name : string;
  graph : Sdfg_ir.Sdfg.t;
  symbols : (string * int) list;
  input : string;
  output : string option;
  feed : Tasklang.Types.value array;
  pristine : (string * Tensor.t) list;
  expected_args : (string * Tensor.t) list;
  expected_out : Tasklang.Types.value array;
}

type query = {
  q : input;
  inst : Exec.Instance.t;
  work : (string * Tensor.t) list;
  mutable samples : float list;  (* untraced runs of the window *)
  mutable traced : float list;   (* traced runs of an interleaved window *)
  mutable pars : Obs.Report.parallel list;  (* this window's reports *)
  mutable runs : int;
  mutable wrong : int;
}

type inputs = input list
type state = { queries : query list }

(* The batch baseline on the reference engine: the whole feed preloaded
   on the input stream, one run. *)
let reference graph symbols ~input ~output feed pristine =
  let inst = Exec.Instance.create ~config:reference_config ~symbols graph in
  let args = copy_args pristine in
  ignore (Exec.Instance.run ~args ~stream_args:[ (input, feed) ] inst);
  let out =
    match output with
    | Some o -> Exec.Instance.stream_contents inst o
    | None -> [||]
  in
  (args, out)

let prepare ~seed =
  List.mapi
    (fun id (name, build, input, output, symbols) ->
      let graph = build () in
      let feed =
        Array.init feed_elems
          (let st = Random.State.make [| seed; id |] in
           fun _ -> Tasklang.Types.F (Random.State.float st 2. -. 1.))
      in
      let pristine = Interp.Profile.make_args ~symbols graph in
      let expected_args, expected_out =
        reference graph symbols ~input ~output feed pristine
      in
      { id; name; graph; symbols; input; output; feed; pristine;
        expected_args; expected_out })
    Workloads.Streaming.all

let teardown _ = ()
let rss_mb _ = peak_rss_mb "self"

(* One streamed feed through [q], checked against the reference batch
   run; returns the seconds [run_streaming] took. *)
let run_once q =
  blit_args ~src:q.q.pristine ~dst:q.work;
  let source = Workloads.Streaming.chunked_source q.q.feed chunk in
  let out = ref [] in
  let sink = Option.map (fun _ -> fun vs -> out := vs :: !out) q.q.output in
  let report, dt =
    timed (fun () ->
        Trace.span ~id:q.q.id "stream.run" (fun () ->
            Exec.Instance.run_streaming ~args:q.work ~input:q.q.input
              ?output:q.q.output ?sink ~source q.inst))
  in
  q.runs <- q.runs + 1;
  Option.iter (fun p -> q.pars <- p :: q.pars) report.Obs.Report.r_parallel;
  let streamed = Array.concat (List.rev !out) in
  if not
       (streamed = q.q.expected_out
       && outputs_match q.q.graph q.work q.q.expected_args)
  then q.wrong <- q.wrong + 1;
  dt

(* The system's set-up: each query's instance is created and runs its
   first feed, which plans it. *)
let setup inputs =
  let spent = ref 0. in
  let queries =
    List.map
      (fun (q : input) ->
        let inst, dt =
          timed (fun () ->
              Trace.span ~id:q.id "instance.create" (fun () ->
                  Exec.Instance.create
                    ~config:Exec.Config.(with_stream_chunk chunk config)
                    ~symbols:q.symbols q.graph))
        in
        let query =
          { q; inst; work = copy_args q.pristine; samples = []; traced = [];
            pars = []; runs = 0; wrong = 0 }
        in
        spent := !spent +. dt +. run_once query;
        query)
      inputs
  in
  ({ queries }, !spent)

let min_samples = Stats.min_samples_for 90.

(* Elements per second of one query over its untraced runs. *)
let elems_per_s q =
  float_of_int (feed_elems * List.length q.samples)
  /. List.fold_left ( +. ) 0. q.samples

let measure st ~seconds ~interleave =
  List.iter (fun q -> q.samples <- []; q.traced <- []; q.pars <- []) st.queries;
  let deadline = now () +. seconds in
  let rounds = ref 0 and plain = ref 0 in
  while keep_going ~deadline (fun () -> !plain >= min_samples) do
    if traced_round ~interleave !rounds then
      List.iter (fun q -> q.traced <- run_once q :: q.traced) st.queries
    else begin
      List.iter (fun q -> q.samples <- run_once q :: q.samples) st.queries;
      incr plain
    end;
    incr rounds
  done;
  let per_query f = Stats.geomean (List.map f st.queries) in
  [ ("p50_ms", per_query (fun q -> 1e3 *. Stats.median q.samples));
    ("tail_ms",
     per_query (fun q -> 1e3 *. Result.get_ok (Stats.tail 90. q.samples)));
    ("ops_per_s", per_query elems_per_s); ("elems_per_s", per_query elems_per_s) ]
  @ List.map (fun q -> (q.q.name ^ "_elems_per_s", elems_per_s q)) st.queries
  @
  if interleave then
    [ ("traced_p50_ms", per_query (fun q -> 1e3 *. Stats.median q.traced)) ]
  else []

let layers st ~spans:_ ~selfs:_ =
  let module R = Obs.Report in
  let pars = List.concat_map (fun q -> q.pars) st.queries in
  let per_run f = match pars with [] -> 0. | _ -> Stats.median (List.map f pars) in
  let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs in
  List.map (fun q -> ("stream." ^ q.q.name ^ "_elems_per_s", elems_per_s q)) st.queries
  @ [ ("stream.push_blocked_ms",
       per_run (fun p -> 1e3 *. sum (fun c -> c.R.pc_push_blocked_s) p.R.par_channels));
      ("stream.pop_blocked_ms",
       per_run (fun p -> 1e3 *. sum (fun c -> c.R.pc_pop_blocked_s) p.R.par_channels));
      ("stream.worker_busy_ratio",
       per_run (fun p ->
           sum (fun w -> w.R.pw_busy_s) p.R.par_workers
           /. Float.max 1e-9 (sum (fun w -> w.R.pw_wall_s) p.R.par_workers)));
      ("stream.channel_hwm",
       float_of_int
         (List.fold_left
            (fun m p ->
              List.fold_left (fun m c -> max m c.R.pc_depth_hwm) m p.R.par_channels)
            0 pars)) ]

let verify st =
  let runs = List.fold_left (fun a q -> a + q.runs) 0 st.queries in
  { attempted = runs;
    failed = List.fold_left (fun a q -> a + q.wrong) 0 st.queries;
    notes =
      List.filter_map
        (fun q ->
          if q.wrong = 0 then None
          else
            Some
              (Printf.sprintf "%s: %d of %d streamed runs differ from the reference batch run"
                 q.q.name q.wrong q.runs))
        st.queries }
