(* compute: steady-state [Exec.Instance.run] of six programs, each
   instance created once during set-up.

   Execution-heavy: parse, validate and plan happen only in set-up, so
   this workload isolates the execution layers — bulk-kernel lowering
   (matmul, jacobi), the closure fallback and WCR merge (histogram), the
   multi-state loop (jacobi), fork/chunk over two domains, and the
   variants fusion work targets (cfd batched, attention tiled, conv
   im2col).  Sizes are large enough that the predictive policy gives at
   least one map of every program more than one domain on a 2-core
   host, and small enough that a round of all six takes under 100 ms. *)

open Common
module W = Workloads

type program = {
  name : string;
  build : unit -> Sdfg_ir.Sdfg.t;
  symbols : (string * int) list;
  reduced : (string * int) list;  (* for the reference comparison *)
  args : seed:int -> Sdfg_ir.Sdfg.t -> (string * int) list ->
    (string * Tensor.t) list;
}

let made ?lo ?hi names ~seed g symbols =
  reseed ~seed ?lo ?hi names (Interp.Profile.make_args ~symbols g)

let programs =
  [ { name = "matmul"; build = W.Kernels.matmul;
      symbols = [ ("M", 192); ("N", 192); ("K", 192) ];
      reduced = [ ("M", 9); ("N", 7); ("K", 5) ];
      args = made [ "A"; "B" ] };
    { name = "jacobi"; build = W.Kernels.jacobi;
      symbols = [ ("N", 256); ("T", 8) ];
      reduced = [ ("N", 10); ("T", 3) ];
      args = made [ "A"; "B" ] };
    { name = "histogram"; build = W.Kernels.histogram;
      symbols = [ ("H", 256); ("W", 256) ];
      reduced = [ ("H", 12); ("W", 10) ];
      args = made ~lo:0. ~hi:1. [ "image" ] };
    { name = "cfd"; build = W.Cfd.batched; symbols = W.Cfd.paper;
      reduced = W.Cfd.mini;
      args = (fun ~seed _ s -> reseed ~seed [ "u"; "D" ] (W.Cfd.args s)) };
    { name = "attention"; build = W.Attention.tiled;
      symbols = [ ("M", 128); ("N", 128); ("D", 64) ];
      reduced = W.Attention.attention_mini;
      args =
        (fun ~seed _ s ->
          reseed ~seed [ "Q"; "K"; "V" ] (W.Attention.attention_args s)) };
    { name = "conv"; build = W.Attention.conv_im2col;
      symbols = W.Attention.conv_paper;
      reduced = W.Attention.conv_mini;
      args =
        (fun ~seed _ s -> reseed ~seed [ "ImF"; "Wf" ] (W.Attention.conv_args s))
    } ]

(* A program's graph and seeded inputs: harness work, done once. *)
type input = {
  id : int;
  prog : program;
  graph : Sdfg_ir.Sdfg.t;
  pristine : (string * Tensor.t) list;
}

type live = {
  input : input;
  inst : Exec.Instance.t;
  work : (string * Tensor.t) list;
  expected : (string * Tensor.t) list;  (* outputs of the first run *)
  first : Obs.Report.t;
  mutable last : Obs.Report.t;
  mutable samples : float list;  (* untraced runs of the window *)
  mutable traced : float list;   (* traced runs of an interleaved window *)
  mutable runs : int;
  mutable wrong : int;
}

let prepare_one ~seed id prog =
  let graph = prog.build () in
  { id; prog; graph; pristine = prog.args ~seed graph prog.symbols }

(* Instance creation and first run, the system's set-up, and the
   seconds they took. *)
let instantiate ({ id; prog; graph; pristine } as input) =
  let work = copy_args pristine in
  let (inst, first), dt =
    timed (fun () ->
        let inst =
          Trace.span ~id "instance.create" (fun () ->
              Exec.Instance.create ~config ~symbols:prog.symbols graph)
        in
        ( inst,
          Trace.span ~id "exec.first_run" (fun () ->
              Exec.Instance.run ~args:work inst) ))
  in
  (* traced set-up only: a second run on the same inputs, right away, so
     [plan_ms] compares two runs under the same host conditions *)
  if !Trace.enabled then
    Trace.span ~id "exec.run" (fun () ->
        ignore (Exec.Instance.run ~args:(copy_args pristine) inst));
  ( { input; inst; work; expected = copy_args work; first; last = first;
      samples = []; traced = []; runs = 0; wrong = 0 },
    dt )

let min_samples = Stats.min_samples_for 90.

let run_once l =
  blit_args ~src:l.input.pristine ~dst:l.work;
  let report, dt =
    timed (fun () ->
        Trace.span ~id:l.input.id "exec.run" (fun () ->
            Exec.Instance.run ~args:l.work l.inst))
  in
  l.last <- report;
  l.runs <- l.runs + 1;
  if not (outputs_match l.input.graph l.work l.expected) then
    l.wrong <- l.wrong + 1;
  dt

(* Round-robin over the programs until the time is up and every
   program has the untraced samples its p90 needs. *)
let measure lives ~seconds ~interleave =
  List.iter (fun l -> l.samples <- []; l.traced <- []) lives;
  let deadline = now () +. seconds in
  let rounds = ref 0 and plain = ref 0 in
  while keep_going ~deadline (fun () -> !plain >= min_samples) do
    if traced_round ~interleave !rounds then
      List.iter (fun l -> l.traced <- run_once l :: l.traced) lives
    else begin
      List.iter (fun l -> l.samples <- run_once l :: l.samples) lives;
      incr plain
    end;
    incr rounds
  done

let e2e ~interleave lives =
  let ms q l = 1e3 *. Result.get_ok (Stats.tail q l.samples) in
  let all = List.concat_map (fun l -> l.samples) lives in
  let p50 f = Stats.geomean (List.map (fun l -> 1e3 *. Stats.median (f l)) lives) in
  let p90 = Stats.geomean (List.map (ms 90.) lives) in
  [ ("p50_ms", p50 (fun l -> l.samples)); ("tail_ms", p90);
    ("ops_per_s", float_of_int (List.length all) /. List.fold_left ( +. ) 0. all);
    ("exec_p50_ms", p50 (fun l -> l.samples)); ("exec_p90_ms", p90) ]
  @ List.map
      (fun l -> ("exec." ^ l.input.prog.name ^ "_p50_ms", 1e3 *. Stats.median l.samples))
      lives
  @ if interleave then [ ("traced_p50_ms", p50 (fun l -> l.traced)) ] else []

(* Compare against the reference engine on the same graph at a reduced
   size: the reference interpreter takes minutes at the measured sizes. *)
let reference_check ~seed prog =
  let g = prog.build () in
  let args = prog.args ~seed g prog.reduced in
  let got = copy_args args and want = copy_args args in
  let inst = Exec.Instance.create ~config ~symbols:prog.reduced g in
  ignore (Exec.Instance.run ~args:got inst);
  ignore (Exec.run ~config:reference_config ~symbols:prog.reduced ~args:want g);
  outputs_match g got want

(* The measured size compared with the same graph forced to one
   domain on the same inputs, so a fork/chunk or merge fault that the
   reduced sizes (all below the policy's threshold) cannot reach still
   shows. *)
let one_domain_check l =
  let config = Exec.Config.with_domains 1 config in
  let inst =
    Exec.Instance.create ~config ~symbols:l.input.prog.symbols l.input.graph
  in
  let got = copy_args l.input.pristine in
  ignore (Exec.Instance.run ~args:got inst);
  outputs_match l.input.graph got l.expected

(* Predictive exec time over the best forced domain count, per program:
   all configurations run interleaved on the same inputs so drift hits
   them alike. *)
let policy_regret lives =
  let reps = 15 in
  let ratio l =
    let forced =
      List.init nproc (fun d ->
          let config = Exec.Config.with_domains (d + 1) config in
          let inst =
            Exec.Instance.create ~config ~symbols:l.input.prog.symbols
              l.input.graph
          in
          let work = copy_args l.input.pristine in
          ignore (Exec.Instance.run ~args:work inst);
          (inst, work, ref []))
    in
    let predictive = ref [] in
    for _ = 1 to reps do
      predictive := run_once l :: !predictive;
      List.iter
        (fun (inst, work, acc) ->
          blit_args ~src:l.input.pristine ~dst:work;
          let _, dt = timed (fun () -> Exec.Instance.run ~args:work inst) in
          acc := dt :: !acc)
        forced
    done;
    let best =
      List.fold_left
        (fun b (_, _, acc) -> Float.min b (Stats.median !acc))
        infinity forced
    in
    Stats.median !predictive /. best
  in
  Stats.geomean (List.map ratio lives)

let layers lives ~spans ~selfs =
  [ ("instance.create_ms", median_self spans selfs "instance.create");
    ("plan_ms", plan_ms spans selfs);
    ("exec.run_ms", median_self spans selfs "exec.run") ]
  @ List.map
      (fun l ->
        ( "exec." ^ l.input.prog.name ^ "_ms",
          median_self ~id:l.input.id spans selfs "exec.run" ))
      lives
  @ report_counts (List.map (fun l -> (l.first, l.last)) lives)

type inputs = { seed : int; programs : input list }
type state = { inputs : inputs; lives : live list }

let prepare ~seed = { seed; programs = List.mapi (prepare_one ~seed) programs }

let setup inputs =
  let made = List.map instantiate inputs.programs in
  ( { inputs; lives = List.map fst made },
    List.fold_left (fun a (_, dt) -> a +. dt) 0. made )

(* The instances of a torn-down set-up hold megabytes of tensors; a
   full collection returns them before the next set-up, so the process's
   peak resident set is that of the measured instances, not of eleven
   set-ups' garbage. *)
let teardown _ = Gc.full_major ()
let rss_mb _ = peak_rss_mb "self"

let measure st ~seconds ~interleave =
  measure st.lives ~seconds ~interleave;
  e2e ~interleave st.lives

let layers st ~spans ~selfs =
  ("policy.regret", policy_regret st.lives) :: layers st.lives ~spans ~selfs

let verify st =
  let bad_refs =
    List.filter_map
      (fun p ->
        if reference_check ~seed:st.inputs.seed p then None
        else Some (p.name ^ ": outputs differ from the reference engine"))
      programs
  in
  let bad_one_domain =
    List.filter_map
      (fun l ->
        if one_domain_check l then None
        else
          Some (l.input.prog.name ^ ": outputs differ from a run forced to 1 domain"))
      st.lives
  in
  let runs = List.fold_left (fun a l -> a + l.runs) 0 st.lives in
  let wrong =
    List.filter_map
      (fun l ->
        if l.wrong = 0 then None
        else
          Some
            (Printf.sprintf "%s: %d of %d runs differ from its first run"
               l.input.prog.name l.wrong l.runs))
      st.lives
  in
  { attempted = runs + (2 * List.length programs);
    failed =
      List.length bad_refs + List.length bad_one_domain
      + List.fold_left (fun a l -> a + l.wrong) 0 st.lives;
    notes = bad_refs @ bad_one_domain @ wrong }
