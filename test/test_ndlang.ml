(* Tests for the numpy-like Ndlang frontend (§2.1: "the code A @ B
   generates the dataflow of a matrix multiplication"). *)

module T = Tasklang.Types
module Nd = Builder.Ndlang
open Interp

let farr shape f = Tensor.init T.F64 shape (fun idx -> T.F (f idx))

let run p args =
  let g = Nd.finalize p in
  ignore (Exec.run g ~args);
  g

let test_axpy () =
  let p = Nd.program "axpy_nd" in
  let a = Nd.input p "A" ~shape:[ Symbolic.Expr.int 6 ] in
  let b = Nd.input p "B" ~shape:[ Symbolic.Expr.int 6 ] in
  Nd.output p "C" ~shape:[ Symbolic.Expr.int 6 ];
  Nd.assign p "C" Nd.(const 2.0 * a + b);
  let at = farr [| 6 |] (fun i -> float_of_int (List.hd i)) in
  let bt = farr [| 6 |] (fun _ -> 10.) in
  let ct = Tensor.create T.F64 [| 6 |] in
  ignore (run p [ ("A", at); ("B", bt); ("C", ct) ]);
  Alcotest.(check (list (float 1e-9)))
    "C = 2A + B"
    [ 10.; 12.; 14.; 16.; 18.; 20. ]
    (Tensor.to_float_list ct)

let test_matmul_operator () =
  let p = Nd.program "mm_nd" in
  let i n = Symbolic.Expr.int n in
  let a = Nd.input p "A" ~shape:[ i 3; i 4 ] in
  let b = Nd.input p "B" ~shape:[ i 4; i 2 ] in
  Nd.output p "C" ~shape:[ i 3; i 2 ];
  Nd.assign p "C" Nd.(a @@@ b);
  let at =
    farr [| 3; 4 |] (fun idx ->
        match idx with [ r; c ] -> float_of_int ((r * 4) + c) | _ -> 0.)
  in
  let bt =
    farr [| 4; 2 |] (fun idx ->
        match idx with [ r; c ] -> float_of_int (r - c) | _ -> 0.)
  in
  let ct = Tensor.create T.F64 [| 3; 2 |] in
  ignore (run p [ ("A", at); ("B", bt); ("C", ct) ]);
  (* reference *)
  for r = 0 to 2 do
    for c = 0 to 1 do
      let acc = ref 0. in
      for k = 0 to 3 do
        acc := !acc +. (float_of_int ((r * 4) + k) *. float_of_int (k - c))
      done;
      Alcotest.(check (float 1e-9))
        (Fmt.str "C[%d,%d]" r c)
        !acc
        (T.to_float (Tensor.get ct [ r; c ]))
    done
  done

let test_chained_expression () =
  (* D = (A @ B) + transpose(C) — exercises transient chaining *)
  let p = Nd.program "chain_nd" in
  let i n = Symbolic.Expr.int n in
  let a = Nd.input p "A" ~shape:[ i 2; i 3 ] in
  let b = Nd.input p "B" ~shape:[ i 3; i 2 ] in
  let c = Nd.input p "C" ~shape:[ i 2; i 2 ] in
  Nd.output p "D" ~shape:[ i 2; i 2 ];
  Nd.assign p "D" Nd.((a @@@ b) + transpose c);
  let at = farr [| 2; 3 |] (fun idx -> float_of_int (List.fold_left ( + ) 1 idx)) in
  let bt = farr [| 3; 2 |] (fun idx -> float_of_int (List.fold_left ( + ) 2 idx)) in
  let ct =
    farr [| 2; 2 |] (fun idx ->
        match idx with [ r; q ] -> float_of_int ((10 * r) + q) | _ -> 0.)
  in
  let dt = Tensor.create T.F64 [| 2; 2 |] in
  ignore (run p [ ("A", at); ("B", bt); ("C", ct); ("D", dt) ]);
  let aref r k = float_of_int (1 + r + k) in
  let bref k q = float_of_int (2 + k + q) in
  for r = 0 to 1 do
    for q = 0 to 1 do
      let acc = ref 0. in
      for k = 0 to 2 do
        acc := !acc +. (aref r k *. bref k q)
      done;
      let expect = !acc +. float_of_int ((10 * q) + r) in
      Alcotest.(check (float 1e-9))
        (Fmt.str "D[%d,%d]" r q)
        expect
        (T.to_float (Tensor.get dt [ r; q ]))
    done
  done

let test_reduction () =
  let p = Nd.program "red_nd" in
  let i n = Symbolic.Expr.int n in
  let a = Nd.input p "A" ~shape:[ i 3; i 4 ] in
  Nd.output p "rowsum" ~shape:[ i 3 ];
  Nd.assign p "rowsum" Nd.(sum ~axis:1 a);
  let at =
    farr [| 3; 4 |] (fun idx ->
        match idx with [ r; c ] -> float_of_int ((r * 10) + c) | _ -> 0.)
  in
  let rt = Tensor.create T.F64 [| 3 |] in
  ignore (run p [ ("A", at); ("rowsum", rt) ]);
  Alcotest.(check (list (float 1e-9)))
    "row sums"
    [ 6.; 46.; 86. ]
    (Tensor.to_float_list rt)

let test_sqrt_and_scalar () =
  let p = Nd.program "norm_nd" in
  let i n = Symbolic.Expr.int n in
  let a = Nd.input p "A" ~shape:[ i 4 ] in
  Nd.output p "nrm" ~shape:[];
  Nd.assign p "nrm" Nd.(sqrt_ (sum ~axis:0 (a * a)));
  let at = farr [| 4 |] (fun i -> float_of_int (1 + List.hd i)) in
  let nt = Tensor.create T.F64 [||] in
  ignore (run p [ ("A", at); ("nrm", nt) ]);
  Alcotest.(check (float 1e-9)) "2-norm"
    (sqrt (1. +. 4. +. 9. +. 16.))
    (T.to_float (Tensor.get_scalar nt))

let test_shape_errors () =
  let fails f =
    match f () with
    | exception Nd.Frontend_error _ -> ()
    | _ -> Alcotest.fail "expected Frontend_error"
  in
  fails (fun () ->
      let p = Nd.program "bad1" in
      let i n = Symbolic.Expr.int n in
      let a = Nd.input p "A" ~shape:[ i 2; i 3 ] in
      let b = Nd.input p "B" ~shape:[ i 4; i 2 ] in
      Nd.output p "C" ~shape:[ i 2; i 2 ];
      (* inner dimensions agree only structurally at lowering; rank errors
         are caught eagerly *)
      Nd.assign p "C" Nd.(transpose (a + b)))

let test_gpu_portability () =
  (* a frontend program ports to the GPU like any other SDFG *)
  let p = Nd.program "port_nd" in
  let i n = Symbolic.Expr.int n in
  let a = Nd.input p "A" ~shape:[ i 4; i 4 ] in
  Nd.output p "C" ~shape:[ i 4; i 4 ];
  Nd.assign p "C" Nd.((a @@@ a) - a);
  let g = Nd.finalize p in
  let run g =
    let at =
      farr [| 4; 4 |] (fun idx ->
          match idx with [ r; c ] -> sin (float_of_int ((3 * r) + c)) | _ -> 0.)
    in
    let ct = Tensor.create T.F64 [| 4; 4 |] in
    ignore (Exec.run g ~args:[ ("A", at); ("C", ct) ]);
    Tensor.to_float_list ct
  in
  let reference = run g in
  Fixtures.apply_first g Transform.Device_xforms.gpu_transform;
  Alcotest.(check (list (float 1e-9))) "GPU port identical" reference (run g)

(* --- text frontend ------------------------------------------------------- *)

(* The text surface must elaborate to the same graph as the combinators:
   identical canonical serialization, hence identical execution. *)
let test_parse_matches_combinators () =
  let src = "# axpy\ninput A[6]\ninput B[6]\noutput C[6]\nC = 2.0 * A + B\n" in
  let g = Nd.parse src ~name:"axpy_nd" in
  let p = Nd.program "axpy_nd" in
  let a = Nd.input p "A" ~shape:[ Symbolic.Expr.int 6 ] in
  let b = Nd.input p "B" ~shape:[ Symbolic.Expr.int 6 ] in
  Nd.output p "C" ~shape:[ Symbolic.Expr.int 6 ];
  Nd.assign p "C" Nd.(const 2.0 * a + b);
  Alcotest.(check string) "text = combinators (canonical form)"
    (Sdfg_ir.Serialize.to_string (Nd.finalize p))
    (Sdfg_ir.Serialize.to_string g)

let test_parse_and_run () =
  let src =
    "input A[N, K]\ninput B[K, N]\noutput C[N, N]\n\
     C = A @ B - transpose(A @ B)\n"
  in
  let g = Nd.parse src in
  let symbols = [ ("K", 4); ("N", 3) ] in
  let at =
    farr [| 3; 4 |] (fun idx ->
        match idx with [ r; c ] -> float_of_int ((r * 4) + c) | _ -> 0.)
  in
  let bt =
    farr [| 4; 3 |] (fun idx ->
        match idx with [ r; c ] -> float_of_int (r - c) | _ -> 0.)
  in
  let ct = Tensor.create T.F64 [| 3; 3 |] in
  ignore (Exec.run g ~symbols ~args:[ ("A", at); ("B", bt); ("C", ct) ]);
  (* M = A@B - (A@B)^T is antisymmetric: zero diagonal, C[r,c] = -C[c,r]. *)
  for r = 0 to 2 do
    Alcotest.(check (float 1e-9))
      (Fmt.str "C[%d,%d] = 0" r r)
      0.
      (T.to_float (Tensor.get ct [ r; r ]));
    for c = 0 to 2 do
      Alcotest.(check (float 1e-9))
        (Fmt.str "C antisymmetric at [%d,%d]" r c)
        (-.T.to_float (Tensor.get ct [ c; r ]))
        (T.to_float (Tensor.get ct [ r; c ]))
    done
  done

let test_parse_sum_and_calls () =
  let src =
    "input A[4, 3]\noutput s[3]\noutput r[3]\n\
     s = sum(A, 0)\nr = sqrt(s * s) + (s - s)\n"
  in
  let g = Nd.parse src in
  let at =
    farr [| 4; 3 |] (fun idx ->
        match idx with [ r; c ] -> float_of_int (r + 1) *. float_of_int (c - 1) | _ -> 0.)
  in
  let st = Tensor.create T.F64 [| 3 |] in
  let rt = Tensor.create T.F64 [| 3 |] in
  ignore (Exec.run g ~args:[ ("A", at); ("s", st); ("r", rt) ]);
  Alcotest.(check (list (float 1e-9)))
    "column sums" [ -10.; 0.; 10. ] (Tensor.to_float_list st);
  Alcotest.(check (list (float 1e-9)))
    "r = |s|" [ 10.; 0.; 10. ] (Tensor.to_float_list rt)

let test_softmax_combinators () =
  (* row softmax via amax/exp/sum-keep/division with extent-1 broadcast *)
  let p = Nd.program "softmax_nd" in
  let i n = Symbolic.Expr.int n in
  let s = Nd.input p "S" ~shape:[ i 3; i 4 ] in
  Nd.output p "O" ~shape:[ i 3; i 4 ];
  let e = Nd.(exp_ (s - amax ~keep:true ~axis:1 s)) in
  Nd.assign p "O" Nd.(e / sum ~keep:true ~axis:1 e);
  let at =
    farr [| 3; 4 |] (fun idx ->
        match idx with
        | [ r; c ] -> float_of_int ((r * 3) + (c * c)) /. 7.
        | _ -> 0.)
  in
  let ot = Tensor.create T.F64 [| 3; 4 |] in
  ignore (run p [ ("S", at); ("O", ot) ]);
  for r = 0 to 2 do
    let row = List.init 4 (fun c -> T.to_float (Tensor.get at [ r; c ])) in
    let m = List.fold_left max neg_infinity row in
    let es = List.map (fun v -> exp (v -. m)) row in
    let z = List.fold_left ( +. ) 0. es in
    List.iteri
      (fun c ev ->
        Alcotest.(check (float 1e-12))
          (Fmt.str "softmax[%d,%d]" r c)
          (ev /. z)
          (T.to_float (Tensor.get ot [ r; c ])))
      es
  done

let test_max_and_exp_elementwise () =
  let p = Nd.program "maxexp_nd" in
  let i n = Symbolic.Expr.int n in
  let a = Nd.input p "A" ~shape:[ i 5 ] in
  Nd.output p "B" ~shape:[ i 5 ];
  Nd.assign p "B" Nd.(max_ a (const 0.) + exp_ (const 0. - a));
  let at = farr [| 5 |] (fun i -> float_of_int (List.hd i - 2)) in
  let bt = Tensor.create T.F64 [| 5 |] in
  ignore (run p [ ("A", at); ("B", bt) ]);
  Alcotest.(check (list (float 1e-12)))
    "relu(a) + exp(-a)"
    (List.init 5 (fun i ->
         let v = float_of_int (i - 2) in
         Stdlib.max v 0. +. exp (-.v)))
    (Tensor.to_float_list bt)

let test_gather_combinators () =
  let p = Nd.program "gather_nd" in
  let i n = Symbolic.Expr.int n in
  let a = Nd.input p "A" ~shape:[ i 5; i 3 ] in
  let idx = Nd.input p "idx" ~shape:[ i 4 ] in
  Nd.output p "G" ~shape:[ i 4; i 3 ];
  Nd.assign p "G" Nd.(gather a [ Ix (idx, [ "i" ]); Ax "j" ]);
  let at =
    farr [| 5; 3 |] (fun idx ->
        match idx with [ r; c ] -> float_of_int ((10 * r) + c) | _ -> 0.)
  in
  let rows = [| 3; 0; 2; 2 |] in
  let it = farr [| 4 |] (fun i -> float_of_int rows.(List.hd i)) in
  let gt = Tensor.create T.F64 [| 4; 3 |] in
  ignore (run p [ ("A", at); ("idx", it); ("G", gt) ]);
  for i = 0 to 3 do
    for j = 0 to 2 do
      Alcotest.(check (float 1e-12))
        (Fmt.str "G[%d,%d]" i j)
        (float_of_int ((10 * rows.(i)) + j))
        (T.to_float (Tensor.get gt [ i; j ]))
    done
  done

let test_parse_softmax_matches_combinators () =
  (* the softmax constructs must elaborate identically from text and
     combinators: amax-keep, exp, sum-keep, division, broadcasting *)
  let src =
    "input S[3, 4]\noutput O[3, 4]\ntemp m[3, 1]\ntemp E[3, 4]\n\
     temp Z[3, 1]\nm = amax(S, 1, keep)\nE = exp(S - m)\n\
     Z = sum(E, 1, keep)\nO = E / Z\n"
  in
  let g = Nd.parse src ~name:"softmax_txt" in
  let p = Nd.program "softmax_txt" in
  let i n = Symbolic.Expr.int n in
  let s = Nd.input p "S" ~shape:[ i 3; i 4 ] in
  Nd.output p "O" ~shape:[ i 3; i 4 ];
  Nd.temp p "m" ~shape:[ i 3; i 1 ];
  Nd.temp p "E" ~shape:[ i 3; i 4 ];
  Nd.temp p "Z" ~shape:[ i 3; i 1 ];
  Nd.assign p "m" Nd.(amax ~keep:true ~axis:1 s);
  Nd.assign p "E" Nd.(exp_ (s - leaf p "m"));
  Nd.assign p "Z" Nd.(sum ~keep:true ~axis:1 (leaf p "E"));
  Nd.assign p "O" Nd.(leaf p "E" / leaf p "Z");
  Alcotest.(check string) "text = combinators (canonical form)"
    (Sdfg_ir.Serialize.to_string (Nd.finalize p))
    (Sdfg_ir.Serialize.to_string g)

let test_parse_gather_and_roundtrip () =
  let src =
    "input A[5, 3]\ninput idx[4]\noutput G[4, 3]\nG = A[idx[i], j]\n"
  in
  let g = Nd.parse src in
  (* the graph (dynamic memlets, floor-indexed tasklet) must survive the
     canonical printer/parser fixpoint *)
  let txt = Sdfg_ir.Serialize.to_string g in
  let g2 = Sdfg_ir.Serialize.of_string txt in
  Alcotest.(check string) "serialize fixpoint" txt
    (Sdfg_ir.Serialize.to_string g2);
  let at =
    farr [| 5; 3 |] (fun idx ->
        match idx with [ r; c ] -> float_of_int ((10 * r) + c) | _ -> 0.)
  in
  let rows = [| 1; 4; 0; 2 |] in
  let it = farr [| 4 |] (fun i -> float_of_int rows.(List.hd i)) in
  let gt = Tensor.create T.F64 [| 4; 3 |] in
  ignore (Exec.run g ~args:[ ("A", at); ("idx", it); ("G", gt) ]);
  for i = 0 to 3 do
    for j = 0 to 2 do
      Alcotest.(check (float 1e-12))
        (Fmt.str "G[%d,%d]" i j)
        (float_of_int ((10 * rows.(i)) + j))
        (T.to_float (Tensor.get gt [ i; j ]))
    done
  done

let test_parse_max_amax_roundtrip () =
  (* amax without keep drops the axis; max is elementwise; the built
     graph survives the canonical fixpoint (WCR-max maps included) *)
  let src =
    "input A[3, 4]\ninput B[3]\noutput M[3]\nM = max(amax(A, 1), B)\n"
  in
  let g = Nd.parse src in
  let txt = Sdfg_ir.Serialize.to_string g in
  Alcotest.(check string) "serialize fixpoint" txt
    (Sdfg_ir.Serialize.to_string (Sdfg_ir.Serialize.of_string txt));
  let at =
    farr [| 3; 4 |] (fun idx ->
        match idx with
        | [ r; c ] -> float_of_int ((r * 2) - (c * c)) /. 3.
        | _ -> 0.)
  in
  let bt = farr [| 3 |] (fun i -> float_of_int (List.hd i) -. 0.5) in
  let mt = Tensor.create T.F64 [| 3 |] in
  ignore (Exec.run g ~args:[ ("A", at); ("B", bt); ("M", mt) ]);
  Alcotest.(check (list (float 1e-12)))
    "max(rowmax, B)"
    (List.init 3 (fun r ->
         let rm =
           List.fold_left Stdlib.max neg_infinity
             (List.init 4 (fun c -> float_of_int ((r * 2) - (c * c)) /. 3.))
         in
         Stdlib.max rm (float_of_int r -. 0.5)))
    (Tensor.to_float_list mt)

let test_parse_errors () =
  let expect_line n src =
    match Nd.parse src with
    | exception Nd.Frontend_error msg ->
      let contains s sub =
        let ln = String.length s and m = String.length sub in
        let rec go i = i + m <= ln && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Fmt.str "error %S names line %d" msg n)
        true
        (contains msg (Fmt.str "line %d" n))
    | _ -> Alcotest.fail "malformed program must raise Frontend_error"
  in
  expect_line 2 "input A[4]\nB = A + 1.0\n";           (* undeclared target *)
  expect_line 3 "input A[4]\noutput B[4]\nB = A @ A\n" (* rank-1 matmul *);
  expect_line 1 "input A[4\n";                         (* unclosed bracket *)
  expect_line 3 "input A[4]\noutput B[4]\nB = A + + A\n";  (* syntax *)
  (* shape mismatch surfaces on the assignment line *)
  expect_line 4 "input A[4]\ninput C[5]\noutput B[4]\nB = A + C\n";
  (* shape-mismatched softmax: amax-keep gives [3, 1], m declares [3] *)
  expect_line 3 "input S[3, 4]\ntemp m[3]\nm = amax(S, 1, keep)\n";
  (* broadcast needs extent 1, not just any mismatch *)
  expect_line 4 "input S[3, 4]\ninput m[3, 2]\noutput E[3, 4]\nE = S - m\n";
  (* reduction axis out of range *)
  expect_line 3 "input S[3, 4]\ntemp m[3, 1]\nm = amax(S, 2, keep)\n";
  (* gather: wrong subscript count for the operand rank *)
  expect_line 4 "input A[4, 3]\ninput idx[2]\noutput G[2, 3]\nG = A[idx[i]]\n";
  (* gather: index must be a declared container *)
  expect_line 4 "input A[4, 3]\ninput idx[2]\noutput G[2, 3]\nG = A[foo[i], j]\n";
  (* gather: bare subscript colliding with a container name *)
  expect_line 4
    "input A[4, 3]\ninput idx[2]\noutput G[2, 3]\nG = A[idx[i], idx]\n";
  (* gather: repeated axis with disagreeing extents *)
  expect_line 4
    "input A[4, 3]\ninput idx[2]\noutput G[2, 3]\nG = A[idx[j], j]\n";
  (* gather: at least one subscript must be an index expression *)
  expect_line 4 "input A[4, 3]\ninput idx[2]\noutput G[4, 3]\nG = A[i, j]\n"

let suite =
  [ ("axpy with constants", `Quick, test_axpy);
    ("A @ B lowers to matmul dataflow", `Quick, test_matmul_operator);
    ("chained expression with transients", `Quick, test_chained_expression);
    ("axis reduction via Reduce node", `Quick, test_reduction);
    ("sqrt of a scalar reduction", `Quick, test_sqrt_and_scalar);
    ("shape errors rejected", `Quick, test_shape_errors);
    ("frontend programs are portable", `Quick, test_gpu_portability);
    ("text parse = combinators", `Quick, test_parse_matches_combinators);
    ("text program with matmul and transpose", `Quick, test_parse_and_run);
    ("text program with sum and calls", `Quick, test_parse_sum_and_calls);
    ("softmax chain via amax/exp/sum-keep", `Quick, test_softmax_combinators);
    ("elementwise max and exp", `Quick, test_max_and_exp_elementwise);
    ("gather via index array", `Quick, test_gather_combinators);
    ("text softmax = combinators", `Quick, test_parse_softmax_matches_combinators);
    ("text gather parses, runs, round-trips", `Quick,
     test_parse_gather_and_roundtrip);
    ("text amax/max round-trips", `Quick, test_parse_max_amax_roundtrip);
    ("parse errors carry line numbers", `Quick, test_parse_errors) ]
