(* Streaming execution (ISSUE: stream channels + consume-scope
   workers).

   Three layers under test: the bounded channel primitive
   ({!Interp.Stream}), the pipeline verdict
   ({!Analysis.Races.analyze_pipeline}), and the end-to-end contract of
   {!Interp.Exec.Instance.run_streaming} — chunked feeding must
   reproduce the batch baseline ([run ~stream_args] + [stream_contents])
   bit-for-bit on both engines, whether the graph pipelines or degrades
   to a single batch run, and no channel may ever hold more elements
   than its capacity. *)

module T = Tasklang.Types
module R = Obs.Report
module Races = Analysis.Races
module Stream = Interp.Stream
module I = Interp.Exec.Instance
open Sdfg_ir
open Interp

let domains =
  match Sys.getenv_opt "SDFG_DOMAINS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 2)
  | None -> 2

(* --- the channel primitive --------------------------------------------- *)

let test_channel_fifo () =
  let c = Stream.create ~name:"c" ~capacity:8 () in
  for i = 0 to 5 do
    Stream.push c i
  done;
  Alcotest.(check int) "length" 6 (Stream.length c);
  Stream.close c;
  let rec drain acc =
    match Stream.pop c with Some v -> drain (v :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3; 4; 5 ] (drain []);
  Alcotest.(check (option int)) "EOS is sticky" None (Stream.pop c)

let test_channel_zero_trip () =
  let c = Stream.create ~capacity:4 () in
  Alcotest.(check (option int)) "try_pop empty" None (Stream.try_pop c);
  Stream.close c;
  Alcotest.(check (option int)) "pop on closed empty" None (Stream.pop c);
  let s = Stream.stats c in
  Alcotest.(check int) "no pushes" 0 s.Stream.ch_pushes;
  Alcotest.(check int) "no pops" 0 s.Stream.ch_pops;
  Alcotest.(check int) "hwm zero" 0 s.Stream.ch_depth_hwm

let test_channel_capacity_clamp () =
  let c = Stream.create ~capacity:(-3) () in
  Alcotest.(check int) "clamped to 1" 1 (Stream.capacity c)

let test_channel_closed_push () =
  let c = Stream.create ~name:"dead" ~capacity:2 () in
  Stream.close c;
  Stream.close c (* idempotent *);
  Alcotest.check_raises "push after close" (Stream.Closed "dead") (fun () ->
      Stream.push c 1)

(* A producer on another domain blocks on the full channel until the
   consumer drains; everything pushed arrives in order and the depth
   high-water mark respects the capacity. *)
let test_channel_backpressure () =
  let c = Stream.create ~capacity:2 () in
  let n = 100 in
  let prod =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Stream.push c i
        done;
        Stream.close c)
  in
  let rec drain acc =
    match Stream.pop c with Some v -> drain (v :: acc) | None -> List.rev acc
  in
  let got = drain [] in
  Domain.join prod;
  Alcotest.(check int) "all elements" n (List.length got);
  Alcotest.(check (list int)) "in order" (List.init n Fun.id) got;
  let s = Stream.stats c in
  Alcotest.(check bool) "hwm within capacity" true (s.Stream.ch_depth_hwm <= 2);
  Alcotest.(check int) "pushes" n s.Stream.ch_pushes;
  Alcotest.(check int) "pops" n s.Stream.ch_pops

(* A consumer blocked on an empty channel wakes on close and reports
   EOS rather than hanging. *)
let test_channel_close_wakes_consumer () =
  let c = Stream.create ~capacity:4 () in
  let cons = Domain.spawn (fun () -> Stream.pop c) in
  Unix.sleepf 0.01;
  Stream.close c;
  Alcotest.(check (option int)) "woken with EOS" None (Domain.join cons)

(* --- the pipeline verdict ---------------------------------------------- *)

let verdict g =
  Races.pipeline_code (Races.analyze_pipeline g (Sdfg.start_state g))

let stage_streams g =
  match Races.analyze_pipeline g (Sdfg.start_state g) with
  | Races.Pipeline stages ->
    List.map (fun (s : Races.pipeline_stage) -> s.pl_stream) stages
  | Races.No_pipeline _ -> []

let test_verdict_workloads () =
  Alcotest.(check string) "window" "pipeline"
    (verdict (Workloads.Streaming.query_window ()));
  Alcotest.(check (list string)) "window stages" [ "in_q"; "mid" ]
    (stage_streams (Workloads.Streaming.query_window ()));
  Alcotest.(check string) "filter" "pipeline"
    (verdict (Workloads.Streaming.query_filter ()));
  Alcotest.(check (list string)) "topk stages (batch order)"
    [ "in_q"; "c1"; "c2"; "c3" ]
    (stage_streams (Workloads.Streaming.query_topk ()))

let test_verdict_rejections () =
  (* fibonacci keeps non-access work (its seed tasklet) outside the
     consume scope, which already denies the stage decomposition *)
  Alcotest.(check string) "fibonacci" "non-stream-compute"
    (verdict (Fixtures.fibonacci ()));
  (* a plain map graph has no consume scope at all *)
  Alcotest.(check string) "matmul has no stages" "no-consume"
    (verdict (Workloads.Kernels.matmul ()))

(* --- chunked streaming vs the batch baseline --------------------------- *)

let config ?(engine = Plan.reference) ?(chunk = 5) ?capacity () =
  let c =
    Exec.Config.(
      default |> with_engine engine |> with_domains domains
      |> with_stream_chunk chunk)
  in
  match capacity with
  | None -> c
  | Some n -> Exec.Config.with_stream_capacity n c

let feed n = Workloads.Streaming.sample_values n 7

let value_bits (v : T.value) =
  match v with
  | T.F f -> Int64.to_string (Int64.bits_of_float f)
  | T.I n -> string_of_int n
  | T.B b -> string_of_bool b

let check_values tag want got =
  Alcotest.(check (list string))
    tag
    (List.map value_bits (Array.to_list want))
    (List.map value_bits (Array.to_list got))

let check_tensors tag want got =
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) (tag ^ ": arg order") n1 n2;
      Alcotest.(check (list int64))
        (Fmt.str "%s: %S byte-identical" tag n1)
        (Test_crossval.tensor_bits t1) (Test_crossval.tensor_bits t2))
    want got

(* Run one workload chunked and batch under [config]; check the output
   stream and every output tensor agree bitwise, and return the chunked
   run's report for metric assertions. *)
let crossval cfg (name, mk, input, output, syms) =
  let g = mk () in
  let values = feed 83 in
  let batch_args = Interp.Profile.make_args ~symbols:syms g in
  let batch = I.create ~config:cfg ~symbols:syms g in
  ignore (I.run ~args:batch_args ~stream_args:[ (input, values) ] batch);
  let batch_out =
    match output with None -> [||] | Some o -> I.stream_contents batch o
  in
  let args = Interp.Profile.make_args ~symbols:syms g in
  let inst = I.create ~config:cfg ~symbols:syms g in
  let got = ref [] in
  let rep =
    I.run_streaming ~args ~input ?output
      ~sink:(fun c -> got := c :: !got)
      ~source:(Workloads.Streaming.chunked_source values 5)
      inst
  in
  check_values (name ^ ": output stream") batch_out
    (Array.concat (List.rev !got));
  check_tensors (name ^ ": tensors") batch_args args;
  rep

let each_workload f = List.iter f Workloads.Streaming.all

let test_crossval_reference () =
  each_workload (fun w -> ignore (crossval (config ()) w))

let test_crossval_compiled () =
  each_workload (fun w ->
      ignore (crossval (config ~engine:Plan.compiled ()) w))

let test_crossval_chunk_one () =
  each_workload (fun w -> ignore (crossval (config ~chunk:1 ()) w))

(* The pipelined run surfaces per-channel and per-worker metrics, and
   backpressure keeps every channel within its capacity — including
   under a pathological capacity override of a single slot. *)
let test_metrics_and_backpressure () =
  each_workload (fun ((name, _, _, _, _) as w) ->
      List.iter
        (fun capacity ->
          let cfg = config ?capacity ~engine:Plan.compiled () in
          let rep = crossval cfg w in
          match rep.R.r_parallel with
          | None -> Alcotest.failf "%s: no parallel section" name
          | Some p ->
            Alcotest.(check bool)
              (name ^ ": has workers") true
              (p.R.par_workers <> []);
            Alcotest.(check bool)
              (name ^ ": has channels") true
              (p.R.par_channels <> []);
            List.iter
              (fun (c : R.channel_stat) ->
                if c.pc_depth_hwm > c.pc_capacity then
                  Alcotest.failf "%s: channel %s hwm %d > capacity %d" name
                    c.pc_name c.pc_depth_hwm c.pc_capacity;
                match capacity with
                | Some n ->
                  Alcotest.(check int)
                    (name ^ ": capacity override") n c.pc_capacity
                | None -> ())
              p.R.par_channels)
        [ None; Some 1 ])

(* Appending an unrelated empty state denies the single-state pipeline
   precondition, so run_streaming degrades to one batch run — with
   identical results and no channel metrics. *)
let test_degrade_path () =
  let g = Workloads.Streaming.query_filter () in
  let main = List.hd (Sdfg.states g) in
  let tail = Sdfg.add_state g ~label:"tail" () in
  ignore
    (Sdfg.add_transition g ~src:(State.id main) ~dst:(State.id tail) ());
  Alcotest.(check int) "two states" 2 (List.length (Sdfg.states g));
  let values = feed 40 in
  let batch = I.create ~config:(config ()) ~symbols:[ ("P", 4) ] g in
  ignore (I.run ~stream_args:[ ("in_q", values) ] batch);
  let inst = I.create ~config:(config ()) ~symbols:[ ("P", 4) ] g in
  let got = ref [] in
  let rep =
    I.run_streaming ~input:"in_q" ~output:"out_q"
      ~sink:(fun c -> got := c :: !got)
      ~source:(Workloads.Streaming.chunked_source values 5)
      inst
  in
  check_values "degraded output = batch"
    (I.stream_contents batch "out_q")
    (Array.concat (List.rev !got));
  match rep.R.r_parallel with
  | Some p when p.R.par_channels <> [] ->
    Alcotest.fail "degraded run reported channels"
  | _ -> ()

(* Counters: the chunked pipelined run must report the same stream and
   iteration totals as the batch baseline (drain pops are uncounted on
   both paths). *)
let test_counter_parity () =
  each_workload (fun (name, mk, input, output, syms) ->
      let g = mk () in
      let values = feed 60 in
      let batch = I.create ~config:(config ()) ~symbols:syms g in
      let rb = I.run ~stream_args:[ (input, values) ] batch in
      let inst = I.create ~config:(config ()) ~symbols:syms g in
      let rs =
        I.run_streaming ~input ?output
          ~source:(Workloads.Streaming.chunked_source values 5)
          inst
      in
      Alcotest.(check (list int))
        (name ^ ": counters match batch")
        (Test_crossval.counter_list rb.R.r_counters)
        (Test_crossval.counter_list rs.R.r_counters))

(* Every streaming entry point rejects an input that is not a stream
   container — an array, or a name the graph lacks — with a runtime
   error, and run_streaming does so before it polls the source: a
   serving session's source blocks on its client. *)
let test_bad_input_rejected () =
  let raises tag f =
    match f () with
    | exception Exec.Runtime_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Runtime_error" tag
  in
  each_workload (fun (name, mk, _, output, syms) ->
      let g = mk () in
      let array =
        match
          List.find_map
            (fun (n, d) -> match d with Defs.Array _ -> Some n | _ -> None)
            (Sdfg.descs g)
        with
        | Some n -> n
        | None -> Alcotest.failf "%s: no array container" name
      in
      List.iter
        (fun (ename, engine) ->
          let cfg =
            Exec.Config.(default |> with_engine engine |> with_domains 2)
          in
          let inst = I.create ~config:cfg ~symbols:syms g in
          let tag = Fmt.str "%s/%s" name ename in
          List.iter
            (fun bad ->
              let polled = ref 0 in
              let source () =
                incr polled;
                None
              in
              raises (Fmt.str "%s: run_streaming ~input:%S" tag bad)
                (fun () -> I.run_streaming ~input:bad ?output ~source inst);
              Alcotest.(check int)
                (Fmt.str "%s: source of %S never polled" tag bad) 0 !polled)
            [ array; "no_such_container" ];
          raises (tag ^ ": run ~stream_args on an array") (fun () ->
              I.run ~stream_args:[ (array, feed 3) ] inst);
          raises (tag ^ ": stream_contents of an unknown name") (fun () ->
              I.stream_contents inst "no_such_container"))
        [ ("reference", Plan.reference); ("compiled", Plan.compiled) ])

let suite =
  [ Alcotest.test_case "channel fifo" `Quick test_channel_fifo;
    Alcotest.test_case "channel zero trip" `Quick test_channel_zero_trip;
    Alcotest.test_case "channel capacity clamp" `Quick
      test_channel_capacity_clamp;
    Alcotest.test_case "channel closed push" `Quick test_channel_closed_push;
    Alcotest.test_case "channel backpressure" `Quick
      test_channel_backpressure;
    Alcotest.test_case "channel close wakes consumer" `Quick
      test_channel_close_wakes_consumer;
    Alcotest.test_case "pipeline verdict workloads" `Quick
      test_verdict_workloads;
    Alcotest.test_case "pipeline verdict rejections" `Quick
      test_verdict_rejections;
    Alcotest.test_case "chunked = batch (reference)" `Quick
      test_crossval_reference;
    Alcotest.test_case "chunked = batch (compiled)" `Quick
      test_crossval_compiled;
    Alcotest.test_case "chunked = batch (chunk 1)" `Quick
      test_crossval_chunk_one;
    Alcotest.test_case "metrics and backpressure" `Quick
      test_metrics_and_backpressure;
    Alcotest.test_case "degrade path" `Quick test_degrade_path;
    Alcotest.test_case "counter parity" `Quick test_counter_parity;
    Alcotest.test_case "bad input rejected before the source" `Quick
      test_bad_input_rejected ]
