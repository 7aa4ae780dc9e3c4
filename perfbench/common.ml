(* What every workload shares: the pinned execution config, seeded
   inputs, the output-comparison rule, peak-RSS probes, the host and run
   stamp, and the result printer. *)

module Exec = Interp.Exec
module Tensor = Interp.Tensor
module T = Tasklang.Types
module J = Obs.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Host-speed probe: nanoseconds per element of a fixed floating-point
   loop (20 passes over 4096 elements, about 0.2 ms).  Measured windows
   call [probe_tick] between operations, outside their timed regions;
   it samples the probe at most every 100 ms, and the stamp records the
   window's median, so runs can be compared for the speed of the host
   they ran on. *)
let probe_buf = Array.make 4096 1.0
let probe_samples = ref []
let probe_due = ref 0.

let probe_lock = Mutex.create ()

(* Thread-safe: when two client threads poll at once, one samples. *)
let probe_tick () =
  let t0 = now () in
  if t0 >= !probe_due && Mutex.try_lock probe_lock then begin
    for _ = 1 to 20 do
      for i = 0 to 4095 do
        probe_buf.(i) <- (probe_buf.(i) *. 1.0000001) +. 0.1
      done
    done;
    let t1 = now () in
    probe_samples := (1e9 *. (t1 -. t0) /. (20. *. 4096.)) :: !probe_samples;
    probe_due := t1 +. 0.1;
    Mutex.unlock probe_lock
  end

(* Steal time: the share of CPU time the hypervisor gave to other guests,
   from the aggregate line of /proc/stat, as (steal, total) ticks.  On a
   shared virtual host its phases slow multi-process workloads most, so
   the stamp records its share over the measured window.  [None] where
   /proc/stat has no steal column. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match
          String.split_on_char ' ' (input_line ic)
          |> List.filter (( <> ) "")
        with
        | "cpu" :: fields when List.length fields >= 8 ->
          (* user nice system idle iowait irq softirq steal; guest time
             is already inside user *)
          let t = List.filteri (fun i _ -> i < 8) (List.map int_of_string fields) in
          Some (List.nth t 7, List.fold_left ( + ) 0 t)
        | _ -> None
        | exception _ -> None)

let steal_share ~before ~after =
  match (before, after) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
    Some (float_of_int (s1 - s0) /. float_of_int (t1 - t0))
  | _ -> None

(* A measured loop runs until its time is up and it has the samples its
   percentiles need; a run that cannot collect them within a minute more
   stops, and the missing percentile fails it. *)
let keep_going ~deadline enough =
  probe_tick ();
  let t = now () in
  t < deadline || ((not (enough ())) && t < deadline +. 60.)

(* Interleaved traced windows: odd rounds run traced, even rounds
   untraced, so host drift over the window hits both sets alike.  Sets
   [Trace.enabled] for the round and returns it. *)
let traced_round ~interleave round =
  let on = interleave && round land 1 = 1 in
  Trace.enabled := on;
  on

let nproc = max 1 (min (Interp.Pool.available ()) Interp.Pool.max_domains)

(* Every workload runs this config: compiled engine, bulk kernels on and
   the predictive per-map domain policy capped at the host's cores.
   [with_auto_domains] beats an ambient SDFG_DOMAINS, so the
   environment cannot move a number. *)
let config =
  Exec.Config.(
    default |> with_engine Interp.Plan.compiled |> with_kernels true
    |> with_auto_domains ~cap:nproc)

(* Fuzz graphs for [compile] and [serve] come from the generator config
   of the repo's serve bench (bench/main.ml), which weights the cold path
   toward parse, validate and plan.  With it, both workloads reproduce
   the proportions the benchmark's specifying probe measured (see
   NOTES.md); with [Fuzz.Gen.default] they do not. *)
let gen_config =
  { Fuzz.Gen.default with c_max_states = 10; c_max_ops = 10; c_max_rank = 1 }

let reference_config = Exec.Config.(default |> with_engine Interp.Plan.reference)

(* The repo's output rule (the serve load generator's and the parallel
   oracle's): [Tensor.equal], except [Tensor.approx_equal] for graphs
   with a float accumulation run at more than one domain, where
   reduction order may legally change.  NaN equals NaN, as in the
   Polybench tests.  Both tolerances are applied here directly to the
   flat buffers of the contiguous tensors the benchmark allocates,
   because the list-based originals cost more than the runs they
   check. *)
let outputs_match g outputs expected =
  let approx =
    Fuzz.Oracle.float_accumulation g
    && Exec.Config.resolved_domains config > 1
  in
  let close x y =
    if approx then
      (Float.is_nan x && Float.is_nan y)
      || Float.abs (x -. y) <= 1e-12 +. (1e-9 *. Float.abs y)
    else
      Float.abs (x -. y) <= 1e-9 *. (1. +. Float.abs y)
      || (Float.is_nan x && Float.is_nan y)
  in
  let flat (t : Tensor.t) = t.offset = 0 && Tensor.is_contiguous t in
  let same (got : Tensor.t) (want : Tensor.t) =
    got.shape = want.shape
    &&
    if not (flat got && flat want) then
      if approx then Tensor.approx_equal got want else Tensor.equal got want
    else
      let n = Tensor.num_elements got in
      let rec all p i = i >= n || (p i && all p (i + 1)) in
      match (got.buf, want.buf) with
      | Fbuf a, Fbuf b -> all (fun i -> close a.(i) b.(i)) 0
      | Ibuf a, Ibuf b -> all (fun i -> a.(i) = b.(i)) 0
      | _ -> false
  in
  List.for_all
    (fun (name, want) ->
      match List.assoc_opt name outputs with
      | None -> false
      | Some got -> same got want)
    expected

let copy_tensor t =
  let c = Tensor.create (Tensor.dtype t) (Tensor.shape t) in
  Tensor.copy_into ~src:t ~dst:c;
  c

let copy_args args = List.map (fun (n, t) -> (n, copy_tensor t)) args

let blit_args ~src ~dst =
  List.iter2 (fun (_, s) (_, d) -> Tensor.copy_into ~src:s ~dst:d) src dst

(* Uniform floats in [lo, hi) drawn from the workload seed; [salt] keeps
   the streams of different tensors apart. *)
let rand_tensor ~seed ~salt ?(lo = -1.) ?(hi = 1.) shape =
  let st = Random.State.make [| seed; Hashtbl.hash salt |] in
  Tensor.init T.F64 shape (fun _ -> T.F (lo +. Random.State.float st (hi -. lo)))

(* Seeded inputs for the Polybench kernels: every float array gets
   diagonally dominant values (4 + u on the diagonal, 0.1 + u/2 off it,
   u uniform in [0, 1)), which keeps the solvers among them free of NaNs;
   other arrays keep [Profile.make_args]' values. *)
let solver_args ~seed ~symbols g =
  List.map
    (fun (n, t) ->
      if Tensor.dtype t <> T.F64 then (n, t)
      else
        let st = Random.State.make [| seed; Hashtbl.hash n |] in
        ( n,
          Tensor.init T.F64 (Tensor.shape t) (fun idx ->
              let u = Random.State.float st 1. in
              match idx with
              | [ a; b ] when a = b -> T.F (4. +. u)
              | _ -> T.F (0.1 +. (u /. 2.))) ))
    (Interp.Profile.make_args ~symbols g)

(* Replace the named float inputs with seeded draws of the same shape. *)
let reseed ~seed ?lo ?hi names args =
  List.map
    (fun (n, t) ->
      if List.mem n names then
        (n, rand_tensor ~seed ~salt:n ?lo ?hi (Tensor.shape t))
      else (n, t))
    args

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> loop ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      loop ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The commit id, when the benchmark runs inside a git work tree. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.index_opt head ' ' with
    | Some i when String.starts_with ~prefix:"ref:" head ->
      let ref_ = String.sub head (i + 1) (String.length head - i - 1) in
      (try String.trim (read_file (Filename.concat ".git" ref_))
       with Sys_error _ ->
         read_file ".git/packed-refs" |> String.split_on_char '\n'
         |> List.find_map (fun l ->
                match String.split_on_char ' ' l with
                | [ sha; r ] when String.equal r ref_ -> Some sha
                | _ -> None)
         |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

let stamp ~workload ~seed ~trace ~steal =
  J.Obj
    [ ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("trace", J.Bool trace);
      ("nproc", J.Int nproc);
      ("ocaml", J.Str Sys.ocaml_version);
      ("policy", J.Str (Exec.policy_name (Exec.Config.resolved_policy config)));
      ("domain_cap", J.Int (Exec.Config.resolved_domains config));
      ("sdfg_domains_env",
       match Sys.getenv_opt "SDFG_DOMAINS" with
       | Some v -> J.Str v
       | None -> J.Null);
      ("commit", J.Str (commit ()));
      ("host_probe_ns",
       match !probe_samples with [] -> J.Null | xs -> J.Float (Stats.median xs));
      ("host_probe_samples", J.Int (List.length !probe_samples));
      ("host_steal_pct",
       match steal with Some x -> J.Float (100. *. x) | None -> J.Null) ]

(* Counts from run reports, summed over programs: kernel coverage from
   each program's first run (when it is planned), execution counters and
   the parallel section from a steady run.  Fixed for fixed inputs. *)
let report_counts (pairs : (Obs.Report.t * Obs.Report.t) list) =
  let module R = Obs.Report in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 pairs in
  let cov f ((first : R.t), _) =
    match first.r_coverage with
    | Some c -> List.fold_left (fun acc (_, n) -> acc + n) 0 (f c)
    | None -> 0
  in
  let par f (_, (steady : R.t)) =
    match steady.r_parallel with Some p -> f p | None -> 0
  in
  let counter f (_, (steady : R.t)) = f steady.r_counters in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [ ("kernels.lowered_maps", sum (cov (fun c -> c.R.cov_kernels)));
      ("kernels.closure_maps", sum (cov (fun c -> c.R.cov_kernel_fallbacks)));
      ("exec.elements_moved", sum (counter (fun c -> c.R.elements_moved)));
      ("exec.map_iterations", sum (counter (fun c -> c.R.map_iterations)));
      ("parallel.maps", sum (par (fun p -> p.R.par_maps)));
      ("parallel.chunks", sum (par (fun p -> p.R.par_chunks)));
      ("parallel.forced_seq", sum (par (fun p -> p.R.par_forced_seq)));
      ("parallel.multi_domain_decisions",
       sum
         (par (fun p ->
              List.length
                (List.filter (fun d -> d.R.pm_domains > 1) p.R.par_decisions))))
    ]

(* Median of (first run - the next run of the same id) over the spans: a
   program's first run plans it, the next one on the same inputs does
   not, so the difference is the plan cost. *)
let plan_ms (spans : Trace.span array) selfs =
  let pending = Hashtbl.create 64 in
  let diffs = ref [] in
  Array.iteri
    (fun i (sp : Trace.span) ->
      match sp.name with
      | "exec.first_run" -> Hashtbl.replace pending sp.id selfs.(i)
      | "exec.run" -> (
        match Hashtbl.find_opt pending sp.id with
        | Some first ->
          Hashtbl.remove pending sp.id;
          diffs := (1e3 *. (first -. selfs.(i))) :: !diffs
        | None -> ())
      | _ -> ())
    spans;
  match !diffs with [] -> 0. | d -> Stats.median d

(* Median self time of the spans named [name]; 0 when there are none. *)
let median_self ?id spans selfs name =
  match Trace.self_ms ?id spans selfs name with
  | [] -> 0.
  | xs -> Stats.median xs

(* Scratch directory for sockets and trace files, inside the checkout. *)
let out_dir = ".perfbench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* Operations attempted and failed over a whole run; [notes] says why
   each failure counted, one line each. *)
type verdict = { attempted : int; failed : int; notes : string list }

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let unit_of name =
  if String.ends_with ~suffix:"_ms" name then "ms"
  else if String.ends_with ~suffix:"_per_s" name || name = "rps" then "1/s"
  else ""

(* Human-readable lines first, then the result object as the last line
   of standard output.  [metrics] are (name, value, unit); [details] are
   the workload's own names for its figures, printed only. *)
let print_result ~stamp ~details ~correct v metrics =
  let one_line s =
    String.concat " " (List.map String.trim (String.split_on_char '\n' s))
  in
  Printf.printf "stamp %s\n" (one_line (J.to_string stamp));
  List.iteri
    (fun i n -> if i < 20 then Printf.printf "check failed: %s\n" n)
    v.notes;
  if List.length v.notes > 20 then
    Printf.printf "check failed: ... and %d more\n" (List.length v.notes - 20);
  Printf.printf "failed_ratio %.6f (%d of %d)\n"
    (float_of_int v.failed /. float_of_int (max 1 v.attempted))
    v.failed v.attempted;
  let line (name, value, unit) =
    Printf.printf "%-34s %18.6f %s\n" name value unit
  in
  List.iter (fun (n, v) -> line (n, v, unit_of n)) details;
  List.iter line metrics;
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
          (json_number value) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct v.attempted v.failed (String.concat ", " fields)
