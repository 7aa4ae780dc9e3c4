(* Transformation tests (Appendix B / Table 4): every transformation must
   leave the SDFG valid and preserve the interpreter's results — the
   "verifiable manner (without breaking semantics)" requirement of §2. *)

module E = Symbolic.Expr
module S = Symbolic.Subset
module T = Tasklang.Types
open Sdfg_ir
open Interp

let f64 = T.F64

let farr shape f = Tensor.init f64 shape (fun idx -> T.F (f idx))

(* Run the matmul fixture and return C as a float list. *)
let run_matmul g =
  let m, n, k = (6, 5, 4) in
  let a =
    farr [| m; k |] (fun idx ->
        match idx with [ i; j ] -> sin (float_of_int ((i * 11) + j)) | _ -> 0.)
  in
  let b =
    farr [| k; n |] (fun idx ->
        match idx with [ i; j ] -> cos (float_of_int ((i * 3) + j)) | _ -> 0.)
  in
  let c = Tensor.create f64 [| m; n |] in
  ignore
    (Exec.run g
       ~symbols:[ ("M", m); ("N", n); ("K", k) ]
       ~args:[ ("A", a); ("B", b); ("C", c) ]);
  Tensor.to_float_list c

let run_vadd g =
  let n = 17 in
  let a = farr [| n |] (fun i -> float_of_int (List.hd i * 3)) in
  let b = farr [| n |] (fun i -> exp (float_of_int (List.hd i) /. 10.)) in
  let c = Tensor.create f64 [| n |] in
  ignore
    (Exec.run g ~symbols:[ ("N", n) ] ~args:[ ("A", a); ("B", b); ("C", c) ]);
  Tensor.to_float_list c

let check_same msg reference got =
  Alcotest.(check (list (float 1e-9))) msg reference got

(* Generic harness: [runner] executes an SDFG produced by [build]; apply
   [xform] (candidate [idx]) and compare against the untransformed run. *)
let preserves ?(idx = 0) ~build ~runner xform () =
  let reference = runner (build ()) in
  let g = build () in
  let cands = xform.Transform.Xform.x_find g in
  (match List.nth_opt cands idx with
  | None ->
    Alcotest.failf "%s: no candidate %d (%d found)"
      xform.Transform.Xform.x_name idx (List.length cands)
  | Some c -> Transform.Xform.apply g xform c);
  check_same (xform.Transform.Xform.x_name ^ " preserves semantics")
    reference (runner g)

(* --- WCR matmul as the canonical multi-dimensional map ---------------------- *)

let t_map_expansion =
  preserves ~build:Fixtures.matmul_wcr ~runner:run_matmul
    Transform.Map_xforms.map_expansion

let t_map_tiling =
  preserves ~build:Fixtures.matmul_wcr ~runner:run_matmul
    (Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 3 ])

let t_map_tiling_uneven =
  (* tile size that does not divide the range exercises the min-clipping *)
  preserves ~build:Fixtures.matmul_wcr ~runner:run_matmul
    (Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 4; 3; 5 ])

let t_map_collapse () =
  (* expand then collapse round-trips *)
  let reference = run_matmul (Fixtures.matmul_wcr ()) in
  let g = Fixtures.matmul_wcr () in
  Transform.Xform.apply_first_exn g Transform.Map_xforms.map_expansion;
  Transform.Xform.apply_first_exn g Transform.Map_xforms.map_collapse;
  check_same "expand/collapse roundtrip" reference (run_matmul g)

let t_map_interchange () =
  let reference = run_matmul (Fixtures.matmul_wcr ()) in
  let g = Fixtures.matmul_wcr () in
  Transform.Xform.apply_first_exn g Transform.Map_xforms.map_expansion;
  Transform.Xform.apply_first_exn g Transform.Map_xforms.map_interchange;
  check_same "interchange" reference (run_matmul g);
  (* the maps actually swapped: outer now iterates j,k *)
  ()

let t_vectorization =
  preserves ~build:Fixtures.vector_add ~runner:run_vadd
    (Transform.Map_xforms.vectorization_width ~width:4)

let t_reduce_peeling =
  preserves ~build:Fixtures.matmul_wcr ~runner:run_matmul
    Transform.Control_xforms.reduce_peeling

let t_map_reduce_fusion =
  preserves ~build:Fixtures.matmul_mapreduce ~runner:run_matmul
    Transform.Fusion_xforms.map_reduce_fusion

let t_local_storage () =
  (* tile first so LocalStorage has a scope-entry edge with a block *)
  let reference = run_matmul (Fixtures.matmul_wcr ()) in
  let g = Fixtures.matmul_wcr () in
  let tiling = Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 2 ] in
  let tile_cand =
    tiling.Transform.Xform.x_find g
    |> List.find (fun c ->
           State.label (Sdfg.state g c.Transform.Xform.c_state) = "main")
  in
  Transform.Xform.apply g tiling tile_cand;
  let x = Transform.Data_xforms.local_storage in
  let cands = x.Transform.Xform.x_find g in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  (* cache the A block *)
  let cand =
    List.find
      (fun c -> Fmt.str "%s" c.Transform.Xform.c_note |> fun s ->
        String.length s >= 1 && s.[0] = 'A')
      cands
  in
  Transform.Xform.apply g x cand;
  check_same "LocalStorage" reference (run_matmul g);
  (* a transient tmp_A now exists *)
  Alcotest.(check bool) "transient added" true (Sdfg.has_desc g "tmp_A")

let t_accumulate_transient () =
  let reference = run_matmul (Fixtures.matmul_wcr ()) in
  let g = Fixtures.matmul_wcr () in
  Transform.Xform.apply_first_exn g Transform.Data_xforms.accumulate_transient;
  check_same "AccumulateTransient" reference (run_matmul g)

let t_map_to_for_loop =
  preserves ~build:Fixtures.vector_add ~runner:run_vadd
    Transform.Control_xforms.map_to_for_loop

let t_state_fusion () =
  let reference = run_matmul (Fixtures.matmul_wcr ()) in
  let g = Fixtures.matmul_wcr () in
  Alcotest.(check int) "two states" 2 (Sdfg.num_states g);
  Transform.Xform.apply_first_exn g Transform.Fusion_xforms.state_fusion;
  Alcotest.(check int) "one state" 1 (Sdfg.num_states g);
  check_same "StateFusion" reference (run_matmul g)

let t_map_fusion () =
  (* build: tmp[i] = A[i] * 2; C[i] = tmp[i] + B[i] *)
  let build () =
    let g, st = Builder.Build.single_state ~symbols:[ "N" ] "two_maps" in
    let n = E.sym "N" in
    Sdfg.add_array g "A" ~shape:[ n ] ~dtype:f64;
    Sdfg.add_array g "B" ~shape:[ n ] ~dtype:f64;
    Sdfg.add_array g "C" ~shape:[ n ] ~dtype:f64;
    Sdfg.add_array g "tmp" ~transient:true ~shape:[ n ] ~dtype:f64;
    let i = E.sym "i" and j = E.sym "j" in
    let r = [ S.range E.zero (E.sub n E.one) ] in
    ignore
      (Builder.Build.mapped_tasklet g st ~name:"scale" ~params:[ "i" ]
         ~ranges:r
         ~ins:[ Builder.Build.in_elem "a" "A" [ i ] ]
         ~outs:[ Builder.Build.out_elem "t" "tmp" [ i ] ]
         ~code:(`Src "t = a * 2.0") ());
    (* connect through the single tmp access node: reuse the write access *)
    let tmp_acc =
      State.access_nodes_of st "tmp"
      |> List.find (fun (nid, _) -> State.in_degree st nid > 0)
      |> fst
    in
    let entry, exit_ =
      Builder.Build.map_scope st ~params:[ "j" ] ~ranges:r ()
    in
    let tk =
      Builder.Build.tasklet st ~name:"combine"
        ~inputs:
          [ { Defs.k_name = "t"; k_dtype = f64; k_rank = 0 };
            { Defs.k_name = "b"; k_dtype = f64; k_rank = 0 } ]
        ~outputs:[ { Defs.k_name = "c"; k_dtype = f64; k_rank = 0 } ]
        ~code:(`Src "c = t + b") ()
    in
    let b_acc = Builder.Build.access st "B" in
    let c_acc = Builder.Build.access st "C" in
    Builder.Build.edge st ~dst_conn:"IN_tmp" ~memlet:(Memlet.full "tmp" [ n ])
      ~src:tmp_acc ~dst:entry ();
    Builder.Build.edge st ~dst_conn:"IN_B" ~memlet:(Memlet.full "B" [ n ])
      ~src:b_acc ~dst:entry ();
    Builder.Build.edge st ~src_conn:"OUT_tmp" ~dst_conn:"t"
      ~memlet:(Memlet.element "tmp" [ j ]) ~src:entry ~dst:tk ();
    Builder.Build.edge st ~src_conn:"OUT_B" ~dst_conn:"b"
      ~memlet:(Memlet.element "B" [ j ]) ~src:entry ~dst:tk ();
    Builder.Build.edge st ~src_conn:"c" ~dst_conn:"IN_C"
      ~memlet:(Memlet.element "C" [ j ]) ~src:tk ~dst:exit_ ();
    Builder.Build.edge st ~src_conn:"OUT_C" ~memlet:(Memlet.full "C" [ n ])
      ~src:exit_ ~dst:c_acc ();
    Builder.Build.finalize g
  in
  let reference = run_vadd (build ()) in
  let g = build () in
  Transform.Xform.apply_first_exn g Transform.Fusion_xforms.map_fusion;
  Alcotest.(check bool) "tmp eliminated" false (Sdfg.has_desc g "tmp");
  check_same "MapFusion" reference (run_vadd g)

let t_redundant_array () =
  (* A -> transient copy -> B; the transient is redundant *)
  let build () =
    let g, st = Builder.Build.single_state ~symbols:[ "N" ] "redundant" in
    let n = E.sym "N" in
    Sdfg.add_array g "A" ~shape:[ n ] ~dtype:f64;
    Sdfg.add_array g "middle" ~transient:true ~shape:[ n ] ~dtype:f64;
    Sdfg.add_array g "C" ~shape:[ n ] ~dtype:f64;
    let i = E.sym "i" in
    ignore
      (Builder.Build.mapped_tasklet g st ~name:"scale" ~params:[ "i" ]
         ~ranges:[ S.range E.zero (E.sub n E.one) ]
         ~ins:[ Builder.Build.in_elem "a" "A" [ i ] ]
         ~outs:[ Builder.Build.out_elem "m" "middle" [ i ] ]
         ~code:(`Src "m = a * 3.0") ());
    let mid_acc =
      State.access_nodes_of st "middle"
      |> List.find (fun (nid, _) -> State.in_degree st nid > 0)
      |> fst
    in
    let c_acc = Builder.Build.access st "C" in
    Builder.Build.edge st
      ~memlet:
        { (Memlet.full "middle" [ n ]) with
          m_other = Some [ S.full n ] }
      ~src:mid_acc ~dst:c_acc ();
    Builder.Build.finalize g
  in
  let runner g =
    let n = 9 in
    let a = farr [| n |] (fun i -> float_of_int (List.hd i)) in
    let c = Tensor.create f64 [| n |] in
    ignore (Exec.run g ~symbols:[ ("N", n) ] ~args:[ ("A", a); ("C", c) ]);
    Tensor.to_float_list c
  in
  let reference = runner (build ()) in
  let g = build () in
  Transform.Xform.apply_first_exn g Transform.Data_xforms.redundant_array;
  Alcotest.(check bool) "middle removed" false (Sdfg.has_desc g "middle");
  check_same "RedundantArray" reference (runner g)

let t_gpu_transform () =
  let reference = run_matmul (Fixtures.matmul_wcr ()) in
  let g = Fixtures.matmul_wcr () in
  Transform.Xform.apply_first_exn g Transform.Device_xforms.gpu_transform;
  Alcotest.(check bool) "device twin exists" true (Sdfg.has_desc g "gpu_A");
  check_same "GPUTransform" reference (run_matmul g);
  (* top-level maps now carry the GPU schedule *)
  let has_gpu_map =
    Sdfg.states g
    |> List.exists (fun st ->
           State.map_entries st
           |> List.exists (fun (_, m) -> m.Defs.mp_schedule = Defs.Gpu_device))
  in
  Alcotest.(check bool) "GPU schedule set" true has_gpu_map

let t_fpga_transform () =
  let reference = run_matmul (Fixtures.matmul_wcr ()) in
  let g = Fixtures.matmul_wcr () in
  Transform.Xform.apply_first_exn g Transform.Device_xforms.fpga_transform;
  Alcotest.(check bool) "device twin exists" true (Sdfg.has_desc g "fpga_A");
  check_same "FPGATransform" reference (run_matmul g)

let t_gpu_transform_with_loop () =
  (* the Laplace time loop: copy-in must happen once, not per iteration *)
  let g0 = Fixtures.laplace () in
  let n = 12 and t = 7 in
  let run g =
    let a =
      farr [| 2; n |] (fun idx ->
          match idx with [ 0; i ] -> float_of_int i | _ -> 0.)
    in
    ignore (Exec.run g ~symbols:[ ("N", n); ("T", t) ] ~args:[ ("A", a) ]);
    Tensor.to_float_list a
  in
  let reference = run g0 in
  let g = Fixtures.laplace () in
  Transform.Xform.apply_first_exn g Transform.Device_xforms.gpu_transform;
  check_same "GPUTransform on loop" reference (run g)

let t_mpi_transform () =
  let reference = run_vadd (Fixtures.vector_add ()) in
  let g = Fixtures.vector_add () in
  Transform.Xform.apply_first_exn g Transform.Device_xforms.mpi_transform;
  check_same "MPITransform" reference (run_vadd g)

let t_double_buffering () =
  (* Laplace with double-buffered transient is exercised via the GPU copy
     pattern: here we only check semantics preservation on a simple case *)
  let build () =
    let g = Fixtures.laplace () in
    Transform.Xform.apply_first_exn g Transform.Device_xforms.gpu_transform;
    g
  in
  let n = 10 and t = 4 in
  let run g =
    let a =
      farr [| 2; n |] (fun idx ->
          match idx with [ 0; i ] -> float_of_int (i mod 5) | _ -> 0.)
    in
    ignore (Exec.run g ~symbols:[ ("N", n); ("T", t) ] ~args:[ ("A", a) ]);
    Tensor.to_float_list a
  in
  let reference = run (build ()) in
  let g = build () in
  let x = Transform.Data_xforms.double_buffering_on ~iter_symbol:"t" in
  match x.Transform.Xform.x_find g with
  | [] -> Alcotest.skip ()
  | c :: _ ->
    Transform.Xform.apply g x c;
    check_same "DoubleBuffering" reference (run g)

let t_inline_sdfg () =
  let g = Fixtures.nested_loop () in
  (* the inner SDFG has two states, so InlineSDFG must not match *)
  Alcotest.(check int) "no candidates for multi-state nested" 0
    (List.length (Transform.Control_xforms.inline_sdfg.Transform.Xform.x_find g))

let t_chain_format () =
  let steps =
    Transform.Xform.chain_of_string "MapExpansion 0\n# comment\nMapCollapse 0\n"
  in
  Alcotest.(check int) "two steps" 2 (List.length steps);
  let reference = run_matmul (Fixtures.matmul_wcr ()) in
  let g = Fixtures.matmul_wcr () in
  Transform.Std.apply_chain_exn g steps;
  check_same "chain application" reference (run_matmul g)

let t_registry () =
  Alcotest.(check bool) "16+ transformations registered" true
    (List.length Transform.Std.all >= 16);
  List.iter
    (fun name -> ignore (Transform.Std.lookup name))
    [ "MapCollapse"; "MapExpansion"; "MapFusion"; "MapInterchange";
      "MapReduceFusion"; "MapTiling"; "DoubleBuffering"; "LocalStorage";
      "LocalStream"; "Vectorization"; "MapToForLoop"; "StateFusion";
      "InlineSDFG"; "FPGATransform"; "GPUTransform"; "MPITransform";
      "RedundantArray" ]

let suite =
  [ ("registry completeness (Table 4)", `Quick, t_registry);
    ("MapExpansion", `Quick, t_map_expansion);
    ("MapCollapse roundtrip", `Quick, t_map_collapse);
    ("MapInterchange", `Quick, t_map_interchange);
    ("MapTiling (divisible)", `Quick, t_map_tiling);
    ("MapTiling (uneven)", `Quick, t_map_tiling_uneven);
    ("Vectorization", `Quick, t_vectorization);
    ("ReducePeeling", `Quick, t_reduce_peeling);
    ("MapReduceFusion (Fig. 11a)", `Quick, t_map_reduce_fusion);
    ("MapFusion", `Quick, t_map_fusion);
    ("LocalStorage (Fig. 11b)", `Quick, t_local_storage);
    ("AccumulateTransient", `Quick, t_accumulate_transient);
    ("MapToForLoop", `Quick, t_map_to_for_loop);
    ("StateFusion", `Quick, t_state_fusion);
    ("RedundantArray (Appendix D)", `Quick, t_redundant_array);
    ("GPUTransform", `Quick, t_gpu_transform);
    ("GPUTransform with time loop", `Quick, t_gpu_transform_with_loop);
    ("FPGATransform", `Quick, t_fpga_transform);
    ("MPITransform", `Quick, t_mpi_transform);
    ("DoubleBuffering", `Quick, t_double_buffering);
    ("InlineSDFG conditions", `Quick, t_inline_sdfg);
    ("optimization chains (§4.2)", `Quick, t_chain_format) ]

(* --- cleanup transformations ------------------------------------------------- *)

let t_trivial_map_elimination () =
  (* a 1-iteration map collapses to direct edges with substituted memlets *)
  let build () =
    let g, st = Builder.Build.single_state "trivial" in
    Sdfg.add_array g "A" ~shape:[ E.int 8 ] ~dtype:f64;
    Sdfg.add_array g "B" ~shape:[ E.int 8 ] ~dtype:f64;
    ignore
      (Builder.Build.mapped_tasklet g st ~name:"one" ~params:[ "i" ]
         ~ranges:[ S.range (E.int 3) (E.int 3) ]
         ~ins:[ Builder.Build.in_elem "a" "A" [ E.sym "i" ] ]
         ~outs:[ Builder.Build.out_elem "b" "B" [ E.sym "i" ] ]
         ~code:(`Src "b = 2.0 * a") ());
    Builder.Build.finalize g
  in
  let runner g =
    let a = farr [| 8 |] (fun i -> float_of_int (List.hd i)) in
    let b = Tensor.create f64 [| 8 |] in
    ignore (Exec.run g ~args:[ ("A", a); ("B", b) ]);
    Tensor.to_float_list b
  in
  let reference = runner (build ()) in
  let g = build () in
  Transform.Xform.apply_first_exn g Transform.Cleanup_xforms.trivial_map_elimination;
  Alcotest.(check int) "map removed" 0
    (List.length (State.map_entries (Sdfg.start_state g)));
  check_same "TrivialMapElimination" reference (runner g)

let t_state_elimination () =
  let g = Fixtures.matmul_wcr () in
  (* insert an empty pass-through state between init and main *)
  let init = Sdfg.start_state g in
  let empty = Sdfg.add_state g ~label:"empty" () in
  let old =
    List.find
      (fun (t : Defs.istate_edge) -> t.is_src = State.id init)
      (Sdfg.transitions g)
  in
  let main_id = old.Defs.is_dst in
  Sdfg.replace_transition g old { old with Defs.is_dst = State.id empty };
  ignore (Sdfg.add_transition g ~src:(State.id empty) ~dst:main_id ());
  let reference = run_matmul (Fixtures.matmul_wcr ()) in
  Alcotest.(check int) "three states" 3 (Sdfg.num_states g);
  Transform.Xform.apply_first_exn g Transform.Cleanup_xforms.state_elimination;
  Alcotest.(check int) "back to two states" 2 (Sdfg.num_states g);
  check_same "StateElimination" reference (run_matmul g)

let t_map_unroll () =
  let g = Fixtures.vector_add () in
  (* symbolic range: not a candidate *)
  Alcotest.(check int) "symbolic map not unrollable" 0
    (List.length (Transform.Cleanup_xforms.map_unroll.Transform.Xform.x_find g));
  let g2, st = Builder.Build.single_state "const_map" in
  Sdfg.add_array g2 "A" ~shape:[ E.int 4 ] ~dtype:f64;
  ignore
    (Builder.Build.mapped_tasklet g2 st ~name:"w" ~params:[ "i" ]
       ~ranges:[ S.range E.zero (E.int 3) ]
       ~ins:[]
       ~outs:[ Builder.Build.out_elem "o" "A" [ E.sym "i" ] ]
       ~code:(`Src "o = 1.0") ());
  ignore (Builder.Build.finalize g2);
  Transform.Xform.apply_first_exn g2 Transform.Cleanup_xforms.map_unroll;
  let _, m = List.hd (State.map_entries (Sdfg.start_state g2)) in
  Alcotest.(check bool) "marked unrolled" true m.Defs.mp_unroll

let cleanup_suite =
  [ ("TrivialMapElimination", `Quick, t_trivial_map_elimination);
    ("StateElimination", `Quick, t_state_elimination);
    ("MapUnroll", `Quick, t_map_unroll) ]

(* merge the cleanup suite into the exported suite *)
let suite = suite @ cleanup_suite

(* --- DIODE-style optimization sessions (§4.2) --------------------------------- *)

let t_session () =
  let measure g =
    let r =
      Machine.Cost.estimate ~spec:Machine.Spec.paper_testbed
        ~target:Machine.Cost.Tcpu
        ~symbols:[ ("M", 256); ("N", 256); ("K", 256) ]
        g
    in
    r.Machine.Cost.r_time_s
  in
  let apply_ok s name =
    match Transform.Session.apply s name with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "apply %s unexpectedly failed: %s" name msg
  in
  let s = Transform.Session.create ~measure Workloads.Kernels.matmul_mapreduce in
  apply_ok s "MapReduceFusion";
  apply_ok s "MapTiling";
  Alcotest.(check int) "two steps recorded" 2
    (List.length (Transform.Session.history s));
  (* every step carries a measured figure of merit *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "metric recorded" true
        (e.Transform.Session.e_metric <> None))
    (Transform.Session.history s);
  (* results still correct after the session's chain *)
  check_same "session preserves semantics"
    (run_matmul (Fixtures.matmul_mapreduce ()))
    (run_matmul (Transform.Session.current s));
  (* undo replays the prefix *)
  Transform.Session.undo s;
  Alcotest.(check int) "one step after undo" 1
    (List.length (Transform.Session.history s));
  check_same "undo preserves semantics"
    (run_matmul (Fixtures.matmul_mapreduce ()))
    (run_matmul (Transform.Session.current s));
  (* branch from the mid-point and diverge (§4.2) *)
  apply_ok s "MapTiling";
  let branch = Transform.Session.branch_at s ~steps:1 in
  apply_ok branch "GPUTransform";
  Alcotest.(check int) "branch has its own history" 2
    (List.length (Transform.Session.history branch));
  check_same "branch preserves semantics"
    (run_matmul (Fixtures.matmul_mapreduce ()))
    (run_matmul (Transform.Session.current branch));
  (* chains round-trip through the file format *)
  let steps = Transform.Session.to_chain s in
  let replayed =
    Transform.Session.replay_chain Workloads.Kernels.matmul_mapreduce steps
  in
  check_same "replayed chain matches"
    (run_matmul (Transform.Session.current s))
    (run_matmul (Transform.Session.current replayed))

let suite = suite @ [ ("DIODE session (§4.2)", `Quick, t_session) ]
