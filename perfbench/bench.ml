(* Entry point of the repository benchmark.

     bench.exe --workload <compute|compile|serve|stream> --seed <n>
               --seconds <s> --trace <0|1>

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it measures one window whose rounds alternate between
   traced and untraced, prints the per-layer metrics from the traced
   rounds and the tracing overhead, and writes the spans to
   .perfbench_out/.  Every run checks the program's outputs and prints
   its result as the last line of standard output.  See NOTES.md. *)

open Common

module type WORKLOAD = sig
  type inputs
  type state

  val prepare : seed:int -> inputs
  (** Seeded inputs and reference outputs: harness work, never timed. *)

  val setup : inputs -> state * float
  (** The system's set-up on those inputs, and the seconds the system
      itself spent in it. *)

  val teardown : state -> unit

  val measure : state -> seconds:float -> interleave:bool -> (string * float) list
  (** [p50_ms], [tail_ms] and [ops_per_s] of one measured window, from
      its untraced rounds.  With [interleave], every other round runs
      traced and the result also holds [traced_p50_ms], the same median
      over the traced rounds. *)

  val layers :
    state -> spans:Trace.span array -> selfs:float array ->
    (string * float) list
  (** Per-layer figures from the traced rounds' spans, plus counts and
      any traced-only measurement. *)

  val rss_mb : state -> float
  val verify : state -> verdict
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("compute", (module Compute)); ("compile", (module Compile));
    ("serve", (module Serving)); ("stream", (module Streaming)) ]

(* The gated end-to-end metrics.  The timing figures every workload
   also measures ([p50_ms], [tail_ms], [ops_per_s] and the workload's
   own names for them) are printed but not gated: on a shared host their
   run-to-run spread exceeds any bound the gate allows (NOTES.md, Host
   noise). *)
let end_to_end = [ ("setup_s", "s"); ("peak_rss_mb", "MB") ]

(* Every traced run prints all of these; a layer the workload does not
   exercise reads 0. *)
let per_layer =
  [ ("ndlang.parse_ms", "ms"); ("serialize.parse_ms", "ms");
    ("serialize.print_ms", "ms"); ("ir.text_bytes", "B");
    ("validate_ms", "ms"); ("instance.create_ms", "ms"); ("plan_ms", "ms");
    ("kernels.lowered_maps", "count"); ("kernels.closure_maps", "count");
    ("exec.run_ms", "ms") ]
  @ List.map (fun (p : Compute.program) -> ("exec." ^ p.name ^ "_ms", "ms"))
      Compute.programs
  @ [ ("exec.elements_moved", "count"); ("exec.map_iterations", "count");
      ("parallel.maps", "count"); ("parallel.chunks", "count");
      ("parallel.forced_seq", "count");
      ("parallel.multi_domain_decisions", "count");
      ("policy.regret", "ratio");
      ("protocol.decode_ms", "ms"); ("protocol.encode_ms", "ms");
      ("protocol.key_ms", "ms"); ("protocol.request_bytes", "B");
      ("protocol.response_bytes", "B");
      ("cache.hit_ratio", "ratio"); ("cache.evictions", "count");
      ("server.exec_hit_ms", "ms"); ("server.exec_miss_ms", "ms");
      ("server.overhead_hit_ms", "ms"); ("server.overhead_miss_ms", "ms");
      ("server.max_queue_depth", "count"); ("server.shed", "count");
      ("serve.miss_p50_ms", "ms"); ("serve.miss_p90_ms", "ms") ]
  @ List.map
      (fun (q, _, _, _, _) -> ("stream." ^ q ^ "_elems_per_s", "1/s"))
      Workloads.Streaming.all
  @ [ ("stream.push_blocked_ms", "ms"); ("stream.pop_blocked_ms", "ms");
      ("stream.worker_busy_ratio", "ratio"); ("stream.channel_hwm", "count");
      ("trace.overhead_pct", "%") ]

(* Set-up runs this many times and reports the median; the last state
   is the one measured. *)
let setup_reps = 11

let run ~workload ~seed ~seconds ~trace =
  let (module W : WORKLOAD) = List.assoc workload workloads in
  ensure_out_dir ();
  let inputs = W.prepare ~seed in
  if trace then Trace.enabled := true;
  let rec setups k times =
    let st, dt = W.setup inputs in
    if k = 1 then (st, Stats.median (dt :: times))
    else begin
      W.teardown st;
      setups (k - 1) (dt :: times)
    end
  in
  let st, setup_s = setups (if trace then 1 else setup_reps) [] in
  Fun.protect
    ~finally:(fun () -> W.teardown st)
    (fun () ->
      let before = cpu_ticks () in
      let e2e = W.measure st ~seconds ~interleave:trace in
      Trace.enabled := false;
      let steal = steal_share ~before ~after:(cpu_ticks ()) in
      let stamp = stamp ~workload ~seed ~trace ~steal in
      let details = ref [] in
      let metrics =
        if not trace then begin
          details :=
            List.filter (fun (n, _) -> not (List.mem_assoc n end_to_end)) e2e;
          let rss = W.rss_mb st in
          let value name =
            match name with
            | "setup_s" -> setup_s
            | "peak_rss_mb" -> rss
            | n -> List.assoc n e2e
          in
          List.map (fun (n, u) -> (n, value n, u)) end_to_end
        end
        else begin
          let spans = Trace.spans () in
          let selfs = Trace.self_times spans in
          let overhead =
            100. *. ((List.assoc "traced_p50_ms" e2e /. List.assoc "p50_ms" e2e) -. 1.)
          in
          let values =
            ("trace.overhead_pct", overhead) :: W.layers st ~spans ~selfs
          in
          (* after [layers]: a workload may trace further work there *)
          let spans = Trace.spans () in
          Trace.save ~stamp
            (Filename.concat out_dir
               (Printf.sprintf "trace-%s-seed%d.json" workload seed))
            spans (Trace.self_times spans);
          List.iter
            (fun (n, _) ->
              if not (List.mem_assoc n per_layer) then
                failwith ("unlisted per-layer metric " ^ n))
            values;
          List.map
            (fun (n, u) ->
              (n, Option.value ~default:0. (List.assoc_opt n values), u))
            per_layer
        end
      in
      List.iter
        (fun (n, x, _) ->
          if not (Float.is_finite x) then failwith ("metric " ^ n ^ " is not finite"))
        metrics;
      let v = W.verify st in
      print_result ~stamp ~details:!details ~correct:(v.failed = 0) v metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.
  and trace = ref (-1) and daemon = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " compute | compile | serve | stream");
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--daemon", Arg.Set_string daemon,
       " (internal) serve the daemon on this socket") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !daemon <> "" then Serving.daemon ~socket:!daemon
  else begin
    if not (List.mem_assoc !workload workloads) then begin
      prerr_endline
        ("unknown workload; choose one of: "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
    end;
    if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "--seed >= 0, --seconds > 0 and --trace 0|1 are required";
      exit 2
    end;
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  end
