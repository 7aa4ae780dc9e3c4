(* compile: cold start from program text to first result, one program
   after another on one thread.

   Each program goes text -> [Serialize.of_string] or [Ndlang.parse] ->
   [Validate.validate] -> [Instance.create] -> first [Instance.run].  The
   mix is every Polybench kernel at its mini size, the attention and
   conv Ndlang sources, and a seeded draw of fuzz graphs; every pass
   re-parses everything, nothing is reused.  Execution stays small, so
   this is the parse/validate/plan-heavy workload and the bypass case
   for every compute optimisation. *)

open Common
module W = Workloads

type source = Sdfg_text | Ndlang_text

type program = {
  id : int;
  name : string;
  source : source;
  text : string;
  graph : Sdfg_ir.Sdfg.t;  (* for the reference run, never measured *)
  symbols : (string * int) list;
  pristine : (string * Tensor.t) list;
  expected : (string * Tensor.t) list;  (* reference outputs *)
  mutable first : (Obs.Report.t * Obs.Report.t) option;
      (* first-run report, twice: a first run is also a full run *)
}

(* Fuzz graphs drawn per seed; with the 32 fixed programs this keeps the
   mix's percentiles steady from one seed to the next. *)
let fuzz_graphs = 160

let parse p =
  match p.source with
  | Sdfg_text ->
    Trace.span "serialize.parse" (fun () -> Sdfg_ir.Serialize.of_string p.text)
  | Ndlang_text ->
    Trace.span "ndlang.parse" (fun () -> Builder.Ndlang.parse ~name:p.name p.text)

let mix ~seed =
  let polybench =
    List.map
      (fun (k : W.Polybench.kernel) ->
        let g = k.k_build () in
        ( k.k_name, Sdfg_text, Sdfg_ir.Serialize.to_string g, g, k.k_mini,
          solver_args ~seed ~symbols:k.k_mini g ))
      W.Polybench.all
  in
  let ndlang =
    [ ( "attention", Ndlang_text, W.Attention.attention_src,
        W.Attention.base (), W.Attention.attention_mini,
        W.Attention.attention_args W.Attention.attention_mini );
      ( "conv_im2col", Ndlang_text, W.Attention.conv_src,
        W.Attention.conv_im2col (), W.Attention.conv_mini,
        W.Attention.conv_args W.Attention.conv_mini ) ]
  in
  let r = Fuzz.Rand.create seed in
  let fuzz =
    List.init fuzz_graphs (fun _ ->
        let g = Fuzz.Gen.generate ~config:gen_config (Fuzz.Rand.int r 1_000_000_000) in
        let symbols = Fuzz.Gen.symbols_for g in
        ( Sdfg_ir.Sdfg.name g, Sdfg_text, Sdfg_ir.Serialize.to_string g, g,
          symbols, Interp.Profile.make_args ~symbols g ))
  in
  List.mapi
    (fun id (name, source, text, graph, symbols, pristine) ->
      let expected = copy_args pristine in
      ignore
        (Exec.run ~config:reference_config ~symbols ~args:expected graph);
      { id; name; source; text; graph; symbols; pristine; expected;
        first = None })
    (polybench @ ndlang @ fuzz)

type inputs = { seed : int; mix : program array }

type state = {
  programs : program array;
  order : Fuzz.Rand.t;  (* draws each pass's program order *)
  mutable samples : float list;  (* untraced cold runs of the window *)
  mutable traced : float list;   (* traced ones, in an interleaved window *)
  mutable runs : int;
  mutable failures : string list;  (* one line per failed run *)
}

let prepare ~seed = { seed; mix = Array.of_list (mix ~seed) }

let check st p outputs =
  if not (outputs_match p.graph outputs p.expected) then
    st.failures <-
      (p.name ^ ": outputs differ from the reference engine") :: st.failures

(* One program, text to first result; [Some] seconds when it ran.  In a
   traced round a second run on the same inputs follows, untimed, so the
   plan share of the first run can be told apart from execution. *)
let cold st p =
  let work = copy_args p.pristine in
  let outcome, dt =
    timed (fun () ->
        Trace.span ~id:p.id "cold" (fun () ->
            match
              let g = parse p in
              match
                Trace.span "validate" (fun () -> Sdfg_ir.Validate.validate g)
              with
              | Error errs ->
                Error
                  (String.concat "; "
                     (List.map
                        (fun (e : Sdfg_ir.Validate.error) -> e.e_msg)
                        errs))
              | Ok () ->
                let inst =
                  Trace.span "instance.create" (fun () ->
                      Exec.Instance.create ~config ~symbols:p.symbols g)
                in
                let report =
                  Trace.span "exec.first_run" (fun () ->
                      Exec.Instance.run ~args:work inst)
                in
                if p.first = None then p.first <- Some (report, report);
                Ok inst
            with
            | r -> r
            | exception e -> Error (Printexc.to_string e)))
  in
  st.runs <- st.runs + 1;
  match outcome with
  | Error why ->
    st.failures <- (p.name ^ ": " ^ why) :: st.failures;
    None
  | Ok inst ->
    check st p work;
    if !Trace.enabled then begin
      let again = copy_args p.pristine in
      Trace.span ~id:p.id "exec.run" (fun () ->
          ignore (Exec.Instance.run ~args:again inst));
      check st p again
    end;
    Some dt

let pass st f =
  List.iter f (Fuzz.Rand.shuffle st.order (Array.to_list st.programs))

(* Set-up is one warm-up pass over the mix, text to first result for
   every program, as a user pays it before steady use: [setup_s] is the
   system's time in that pass, without the output checks.  The workload
   has no other set-up of the system's. *)
let setup inputs =
  let st =
    { programs = inputs.mix; order = Fuzz.Rand.create (inputs.seed + 1);
      samples = []; traced = []; runs = 0; failures = [] }
  in
  let spent = ref 0. in
  pass st (fun p -> Option.iter (fun dt -> spent := !spent +. dt) (cold st p));
  (st, !spent)

let teardown _ = ()
let rss_mb _ = peak_rss_mb "self"

let min_samples = Stats.min_samples_for 99.

(* Whole passes over the mix, each in a fresh seeded order, until the
   time is up and p99 has its untraced samples.  Throughput is programs
   over the summed cold latencies, so the harness's own checks do not
   count. *)
let measure st ~seconds ~interleave =
  st.samples <- [];
  st.traced <- [];
  let deadline = now () +. seconds in
  let ops = ref 0 in
  while keep_going ~deadline (fun () -> List.length st.samples >= min_samples) do
    pass st (fun p ->
        let traced = traced_round ~interleave !ops in
        incr ops;
        Option.iter
          (fun dt ->
            if traced then st.traced <- dt :: st.traced
            else st.samples <- dt :: st.samples)
          (cold st p))
  done;
  let ms q = 1e3 *. Result.get_ok (Stats.tail q st.samples) in
  [ ("p50_ms", 1e3 *. Stats.median st.samples); ("tail_ms", ms 99.);
    ("ops_per_s",
     float_of_int (List.length st.samples)
     /. List.fold_left ( +. ) 0. st.samples);
    ("cold_p50_ms", 1e3 *. Stats.median st.samples); ("cold_p99_ms", ms 99.) ]
  @ if interleave then [ ("traced_p50_ms", 1e3 *. Stats.median st.traced) ] else []

let layers st ~spans ~selfs =
  let med = median_self spans selfs in
  let programs = Array.to_list st.programs in
  let bytes =
    List.fold_left (fun a p -> a + String.length p.text) 0 programs
    / List.length programs
  in
  [ ("ndlang.parse_ms", med "ndlang.parse");
    ("serialize.parse_ms", med "serialize.parse");
    ("ir.text_bytes", float_of_int bytes); ("validate_ms", med "validate");
    ("instance.create_ms", med "instance.create");
    ("plan_ms", plan_ms spans selfs); ("exec.run_ms", med "exec.run") ]
  @ report_counts (List.filter_map (fun p -> p.first) programs)

let verify st =
  let failures = List.sort_uniq compare st.failures in
  { attempted = st.runs; failed = List.length st.failures; notes = failures }
