(* Optimization-session API tests (§4.2): the result-returning [apply],
   chain save/load/replay round-trips, and mid-chain branching. *)

open Transform

let symbols = [ ("M", 8); ("N", 8); ("K", 8) ]

(* Run [g] on deterministic inputs and return the output matrix. *)
let run_c g =
  let args = Interp.Profile.make_args ~symbols g in
  ignore (Interp.Exec.run ~symbols ~args g);
  List.assoc "C" args

let check_c msg expected got =
  Alcotest.(check bool) msg true (Interp.Tensor.equal ~eps:1e-9 expected got)

let apply_ok s name =
  match Session.apply s name with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "apply %s unexpectedly failed: %s" name msg

let t_apply_result () =
  let s = Session.create Workloads.Kernels.matmul_mapreduce in
  (* unknown transformation: Error, not an exception *)
  (match Session.apply s "NoSuchTransformation" with
  | Ok () -> Alcotest.fail "unknown transformation applied"
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "message names the transformation" true
      (contains msg "NoSuchTransformation"));
  (* out-of-range candidate index: Error *)
  (match Session.apply ~index:99 s "MapReduceFusion" with
  | Ok () -> Alcotest.fail "candidate 99 applied"
  | Error _ -> ());
  (* failed applications leave the session untouched *)
  Alcotest.(check int) "no steps recorded" 0 (List.length (Session.history s));
  (* the exception-raising variant still raises *)
  (match Session.apply_exn s "NoSuchTransformation" with
  | () -> Alcotest.fail "unknown transformation applied"
  | exception Xform.Not_applicable _ -> ());
  (* ... and Not_applicable is the same exception as Sdfg_ir.Errors' *)
  (match Session.apply_exn s "NoSuchTransformation" with
  | () -> Alcotest.fail "unknown transformation applied"
  | exception Sdfg_ir.Errors.Not_applicable _ -> ());
  apply_ok s "MapReduceFusion";
  Alcotest.(check int) "one step recorded" 1 (List.length (Session.history s))

let t_chain_roundtrip () =
  let expected = run_c (Workloads.Kernels.matmul_mapreduce ()) in
  let s = Session.create Workloads.Kernels.matmul_mapreduce in
  apply_ok s "MapReduceFusion";
  apply_ok s "MapTiling";
  let path = Filename.temp_file "session" ".chain" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Session.save_chain s path;
      let loaded = Session.load_chain Workloads.Kernels.matmul_mapreduce path in
      Alcotest.(check int) "same number of steps" 2
        (List.length (Session.history loaded));
      let step_names t =
        List.map (fun (st : Xform.chain_step) -> st.cs_xform)
          (Session.to_chain t)
      in
      Alcotest.(check (list string)) "same chain" (step_names s)
        (step_names loaded);
      check_c "loaded chain preserves semantics" expected
        (run_c (Session.current loaded));
      (* replaying the in-memory chain matches the file round-trip *)
      let replayed =
        Session.replay_chain Workloads.Kernels.matmul_mapreduce
          (Session.to_chain s)
      in
      check_c "replayed chain preserves semantics" expected
        (run_c (Session.current replayed)))

let t_branch_at () =
  let expected = run_c (Workloads.Kernels.matmul_mapreduce ()) in
  let s = Session.create Workloads.Kernels.matmul_mapreduce in
  apply_ok s "MapReduceFusion";
  apply_ok s "MapTiling";
  let branch = Session.branch_at s ~steps:1 in
  Alcotest.(check int) "branch keeps the prefix" 1
    (List.length (Session.history branch));
  (* diverge: the branch takes a different second step *)
  apply_ok branch "GPUTransform";
  Alcotest.(check int) "branch diverged" 2
    (List.length (Session.history branch));
  Alcotest.(check int) "original untouched" 2
    (List.length (Session.history s));
  let step_names t =
    List.map (fun (st : Xform.chain_step) -> st.cs_xform) (Session.to_chain t)
  in
  Alcotest.(check (list string)) "branch chain"
    [ "MapReduceFusion"; "GPUTransform" ]
    (step_names branch);
  Alcotest.(check (list string)) "original chain"
    [ "MapReduceFusion"; "MapTiling" ]
    (step_names s);
  check_c "branch preserves semantics" expected
    (run_c (Session.current branch));
  check_c "original preserves semantics" expected (run_c (Session.current s))

let t_profiled_measure () =
  let s =
    Session.create_profiled ~warmup:0 ~repeat:1 ~symbols
      Workloads.Kernels.matmul_mapreduce
  in
  apply_ok s "MapReduceFusion";
  match Session.history s with
  | [ e ] ->
    (match e.Session.e_metric with
    | Some m ->
      Alcotest.(check bool) "positive wall-clock metric" true (m > 0.)
    | None -> Alcotest.fail "profiled session recorded no metric")
  | h -> Alcotest.failf "expected 1 history entry, got %d" (List.length h)

let suite =
  [ ("apply returns result", `Quick, t_apply_result);
    ("chain save/load/replay round-trip", `Quick, t_chain_roundtrip);
    ("branch_at diverges from a mid-point", `Quick, t_branch_at);
    ("create_profiled records wall-clock metrics", `Quick, t_profiled_measure) ]
