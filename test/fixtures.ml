(* Canonical SDFGs from the paper's figures, used across the test suites. *)

module E = Symbolic.Expr
module S = Symbolic.Subset
module T = Tasklang.Types
open Sdfg_ir
open Builder

let f64 = T.F64
let i64 = T.I64

(* Fig. 6a: C[i] = A[i] + B[i] *)
let vector_add () =
  let g, st = Build.single_state ~symbols:[ "N" ] "vadd" in
  let n = E.sym "N" in
  Sdfg.add_array g "A" ~shape:[ n ] ~dtype:f64;
  Sdfg.add_array g "B" ~shape:[ n ] ~dtype:f64;
  Sdfg.add_array g "C" ~shape:[ n ] ~dtype:f64;
  let i = E.sym "i" in
  ignore
    (Build.mapped_tasklet g st ~name:"add" ~params:[ "i" ]
       ~ranges:[ S.range E.zero (E.sub n E.one) ]
       ~ins:[ Build.in_elem "a" "A" [ i ]; Build.in_elem "b" "B" [ i ] ]
       ~outs:[ Build.out_elem "c" "C" [ i ] ]
       ~code:(`Src "c = a + b") ());
  Build.finalize g

(* Fig. 9b: map-reduce matrix multiplication C = A @ B through a transient
   3D tensor reduced over axis 2. *)
let matmul_mapreduce () =
  let g, st = Build.single_state ~symbols:[ "M"; "N"; "K" ] "mm" in
  let m = E.sym "M" and n = E.sym "N" and k = E.sym "K" in
  Sdfg.add_array g "A" ~shape:[ m; k ] ~dtype:f64;
  Sdfg.add_array g "B" ~shape:[ k; n ] ~dtype:f64;
  Sdfg.add_array g "C" ~shape:[ m; n ] ~dtype:f64;
  Sdfg.add_array g "tmp" ~transient:true ~shape:[ m; n; k ] ~dtype:f64;
  let i = E.sym "i" and j = E.sym "j" and kk = E.sym "k" in
  ignore
    (Build.map_reduce g st ~name:"mult" ~params:[ "i"; "j"; "k" ]
       ~ranges:
         [ S.range E.zero (E.sub m E.one);
           S.range E.zero (E.sub n E.one);
           S.range E.zero (E.sub k E.one) ]
       ~ins:
         [ Build.in_elem "a" "A" [ i; kk ]; Build.in_elem "b" "B" [ kk; j ] ]
       ~out_conn:"t" ~tmp_data:"tmp"
       ~tmp_subset:(S.of_indices [ i; j; kk ])
       ~out_data:"C"
       ~out_subset:(S.of_shape [ m; n ])
       ~wcr:Wcr.sum ~code:(`Src "t = a * b") ());
  (* the reduce node reduces over axis 2 with identity 0 *)
  let rnode =
    State.nodes st
    |> List.find_map (fun (nid, nd) ->
           match nd with Defs.Reduce _ -> Some nid | _ -> None)
    |> Option.get
  in
  State.replace_node st rnode
    (Defs.Reduce
       { r_wcr = Defs.Wcr_sum; r_axes = Some [ 2 ]; r_identity = Some (T.F 0.) });
  Build.finalize g

(* WCR matrix multiplication, the result of MapReduceFusion: the tasklet
   writes C[i,j] directly with a Sum conflict resolution.  [init] fills C
   with zero in a preceding state. *)
let matmul_wcr () =
  let g = Sdfg.create ~symbols:[ "M"; "N"; "K" ] "mm_wcr" in
  let m = E.sym "M" and n = E.sym "N" and k = E.sym "K" in
  Sdfg.add_array g "A" ~shape:[ m; k ] ~dtype:f64;
  Sdfg.add_array g "B" ~shape:[ k; n ] ~dtype:f64;
  Sdfg.add_array g "C" ~shape:[ m; n ] ~dtype:f64;
  let init = Sdfg.add_state g ~label:"init" () in
  let i = E.sym "i" and j = E.sym "j" and kk = E.sym "k" in
  ignore
    (Build.mapped_tasklet g init ~name:"zero" ~params:[ "i"; "j" ]
       ~ranges:[ S.range E.zero (E.sub m E.one); S.range E.zero (E.sub n E.one) ]
       ~ins:[]
       ~outs:[ Build.out_elem "c" "C" [ i; j ] ]
       ~code:(`Src "c = 0.0") ());
  let main = Sdfg.add_state g ~label:"main" () in
  ignore (Sdfg.add_transition g ~src:(State.id init) ~dst:(State.id main) ());
  ignore
    (Build.mapped_tasklet g main ~name:"mult" ~params:[ "i"; "j"; "k" ]
       ~ranges:
         [ S.range E.zero (E.sub m E.one);
           S.range E.zero (E.sub n E.one);
           S.range E.zero (E.sub k E.one) ]
       ~ins:[ Build.in_elem "a" "A" [ i; kk ]; Build.in_elem "b" "B" [ kk; j ] ]
       ~outs:[ Build.out_elem ~wcr:Wcr.sum "c" "C" [ i; j ] ]
       ~code:(`Src "c = a * b") ());
  Build.finalize g

(* Fig. 2b: 1-D Laplace operator with a time loop in the state machine.
   A is [2, N]; each step reads row t%2 and writes row (t+1)%2. *)
let laplace () =
  let g = Sdfg.create ~symbols:[ "N"; "T" ] "laplace" in
  let n = E.sym "N" in
  Sdfg.add_array g "A" ~shape:[ E.int 2; n ] ~dtype:f64;
  let body = Sdfg.add_state g ~label:"body" () in
  let t = E.sym "t" in
  let i = E.sym "i" in
  let cur = E.modulo t (E.int 2) and nxt = E.modulo (E.add t E.one) (E.int 2) in
  ignore
    (Build.mapped_tasklet g body ~name:"laplace_op" ~params:[ "i" ]
       ~ranges:[ S.range E.one (E.sub n (E.int 2)) ]
       ~ins:[ Build.in_ "a" "A" [ S.index cur; S.range (E.sub i E.one) (E.add i E.one) ] ]
       ~outs:[ Build.out_ "o" "A" [ S.index nxt; S.index i ] ]
       ~code:(`Src "o = a[0] - 2.0 * a[1] + a[2]") ());
  (* t = 0 on entry; loop while t < T *)
  let init = Sdfg.add_state g ~label:"init" () in
  Sdfg.set_start g (State.id init);
  ignore
    (Sdfg.add_transition g ~src:(State.id init) ~dst:(State.id body)
       ~assign:[ ("t", E.zero) ] ());
  ignore
    (Sdfg.add_transition g ~src:(State.id body) ~dst:(State.id body)
       ~cond:(Bexp.lt (E.add t E.one) (E.sym "T"))
       ~assign:[ ("t", E.add t E.one) ]
       ());
  Build.finalize g

(* Fig. 4 / Appendix F: sparse matrix-vector multiplication with an
   indirect access subgraph. *)
let spmv () =
  let g, st = Build.single_state ~symbols:[ "H"; "W"; "nnz" ] "spmv" in
  let h = E.sym "H" and w = E.sym "W" and nnz = E.sym "nnz" in
  Sdfg.add_array g "A_row" ~shape:[ E.add h E.one ] ~dtype:i64;
  Sdfg.add_array g "A_col" ~shape:[ nnz ] ~dtype:i64;
  Sdfg.add_array g "A_val" ~shape:[ nnz ] ~dtype:f64;
  Sdfg.add_array g "x" ~shape:[ w ] ~dtype:f64;
  Sdfg.add_array g "b" ~shape:[ h ] ~dtype:f64;
  let i = E.sym "i" and j = E.sym "j" in
  (* outer map over rows; inner map over the row's nonzeros with a
     data-dependent range A_row[i] : A_row[i+1] *)
  ignore
    (Build.mapped_tasklet g st ~name:"row_gather" ~params:[ "i"; "j" ]
       ~ranges:
         [ S.range E.zero (E.sub h E.one);
           (* data-dependent ranges are expressed through symbols bound by
              indirection tasklets in full DaCe; here the inner range uses
              the dynamic-access idiom: iterate all nnz and mask *)
           S.range E.zero (E.sub nnz E.one) ]
       ~ins:
         [ Build.in_ "rows" "A_row" [ S.range i (E.add i E.one) ];
           Build.in_elem "a" "A_val" [ j ];
           Build.in_elem "col" "A_col" [ j ];
           Build.in_ ~dynamic:true "x_in" "x" [ S.full w ] ]
       ~outs:[ Build.out_elem ~wcr:Wcr.sum "out" "b" [ i ] ]
       ~code:
         (`Src
           "if j >= rows[0] and j < rows[1] { out = a * x_in[col] }")
       ());
  Build.finalize g

(* Fig. 8: asynchronous Fibonacci with a consume scope. *)
let fibonacci () =
  let g = Sdfg.create ~symbols:[ "P" ] "fibonacci" in
  Sdfg.add_scalar g "N" ~dtype:i64;
  Sdfg.add_scalar g "out" ~dtype:i64;
  Sdfg.add_stream g "S" ~dtype:i64;
  let st = Sdfg.add_state g ~label:"main" () in
  (* feeder: push N into S *)
  let feeder =
    Build.tasklet st ~name:"feed"
      ~inputs:[ { Defs.k_name = "n"; k_dtype = i64; k_rank = 0 } ]
      ~outputs:[ { Defs.k_name = "s"; k_dtype = i64; k_rank = 0 } ]
      ~code:(`Src "s = n") ()
  in
  let n_acc = Build.access st "N" in
  let s_acc = Build.access st "S" in
  Build.edge st ~dst_conn:"n"
    ~memlet:(Memlet.element "N" [ E.zero ])
    ~src:n_acc ~dst:feeder ();
  Build.edge st ~src_conn:"s"
    ~memlet:(Memlet.element "S" [ E.zero ])
    ~src:feeder ~dst:s_acc ();
  (* consume scope: pop v; out += 1 if v<=2 else push v-1, v-2 *)
  let entry, exit_ =
    Build.consume_scope st ~pe:"p" ~num_pes:(E.sym "P") ~stream:"S" ()
  in
  let body =
    Build.tasklet st ~name:"fib_step"
      ~inputs:[ { Defs.k_name = "v"; k_dtype = i64; k_rank = 0 } ]
      ~outputs:
        [ { Defs.k_name = "o"; k_dtype = i64; k_rank = 0 };
          { Defs.k_name = "sout"; k_dtype = i64; k_rank = 0 } ]
      ~code:
        (`Src
          "if v <= 2 { o = 1 } else { sout = v - 1\nsout = v - 2 }")
      ()
  in
  Build.edge st ~memlet:(Memlet.dyn "S" [ S.index E.zero ]) ~src:s_acc
    ~dst:entry ~dst_conn:"IN_S" ();
  Build.edge st ~src_conn:"OUT_S" ~dst_conn:"v"
    ~memlet:(Memlet.element "S" [ E.zero ])
    ~src:entry ~dst:body ();
  Build.edge st ~src_conn:"o" ~dst_conn:"IN_out"
    ~memlet:(Memlet.element ~wcr:Wcr.sum "out" [ E.zero ])
    ~src:body ~dst:exit_ ();
  (* pushes back into S close the cycle through a post-scope access *)
  let s_out = Build.access st "S" in
  Build.edge st ~src_conn:"sout" ~dst_conn:"IN_S2"
    ~memlet:(Memlet.dyn "S" [ S.index E.zero ])
    ~src:body ~dst:exit_ ();
  Build.edge st ~src_conn:"OUT_S2"
    ~memlet:(Memlet.dyn "S" [ S.index E.zero ])
    ~src:exit_ ~dst:s_out ();
  let out_acc = Build.access st "out" in
  Build.edge st ~src_conn:"OUT_out"
    ~memlet:(Memlet.element ~wcr:Wcr.sum "out" [ E.zero ])
    ~src:exit_ ~dst:out_acc ();
  Propagate.propagate g;
  g

(* Fig. 10a: branching on a data value.  C = A + B; then C *= 2 if
   C <= 5 else C /= 2 (scalars). *)
let branching () =
  let g = Sdfg.create "branch" in
  Sdfg.add_scalar g "A" ~dtype:f64;
  Sdfg.add_scalar g "B" ~dtype:f64;
  Sdfg.add_scalar g "C" ~dtype:f64;
  Sdfg.add_scalar g "Ci" ~dtype:i64;
  let s0 = Sdfg.add_state g ~label:"sum" () in
  ignore
    (Build.simple_tasklet g s0 ~name:"add"
       ~ins:
         [ Build.in_elem "a" "A" [ E.zero ]; Build.in_elem "b" "B" [ E.zero ] ]
       ~outs:
         [ Build.out_elem "c" "C" [ E.zero ];
           Build.out_elem "ci" "Ci" [ E.zero ] ]
       ~code:(`Src "c = a + b\nci = floor(a + b)") ());
  let s_double = Sdfg.add_state g ~label:"double" () in
  ignore
    (Build.simple_tasklet g s_double ~name:"double"
       ~ins:[ Build.in_elem "ci" "C" [ E.zero ] ]
       ~outs:[ Build.out_elem "co" "C" [ E.zero ] ]
       ~code:(`Src "co = 2.0 * ci") ());
  let s_half = Sdfg.add_state g ~label:"halve" () in
  ignore
    (Build.simple_tasklet g s_half ~name:"halve"
       ~ins:[ Build.in_elem "ci" "C" [ E.zero ] ]
       ~outs:[ Build.out_elem "co" "C" [ E.zero ] ]
       ~code:(`Src "co = ci / 2.0") ());
  ignore
    (Sdfg.add_transition g ~src:(State.id s0) ~dst:(State.id s_double)
       ~cond:(Bexp.le (E.sym "Ci") (E.int 5))
       ());
  ignore
    (Sdfg.add_transition g ~src:(State.id s0) ~dst:(State.id s_half)
       ~cond:(Bexp.gt (E.sym "Ci") (E.int 5))
       ());
  Build.finalize g

(* Histogram with write-conflict resolution (§6.1): bins values of a 2-D
   image into B buckets with a Sum WCR. *)
let histogram () =
  let g = Sdfg.create ~symbols:[ "H"; "W"; "B" ] "histogram" in
  let h = E.sym "H" and w = E.sym "W" and b = E.sym "B" in
  Sdfg.add_array g "image" ~shape:[ h; w ] ~dtype:f64;
  Sdfg.add_array g "hist" ~shape:[ b ] ~dtype:i64;
  let init = Sdfg.add_state g ~label:"init" () in
  let ii = E.sym "ii" in
  ignore
    (Build.mapped_tasklet g init ~name:"zero" ~params:[ "ii" ]
       ~ranges:[ S.range E.zero (E.sub b E.one) ]
       ~ins:[]
       ~outs:[ Build.out_elem "o" "hist" [ ii ] ]
       ~code:(`Src "o = 0") ());
  let main = Sdfg.add_state g ~label:"main" () in
  ignore (Sdfg.add_transition g ~src:(State.id init) ~dst:(State.id main) ());
  let i = E.sym "i" and j = E.sym "j" in
  ignore
    (Build.mapped_tasklet g main ~name:"bin" ~params:[ "i"; "j" ]
       ~ranges:[ S.range E.zero (E.sub h E.one); S.range E.zero (E.sub w E.one) ]
       ~ins:
         [ Build.in_elem "px" "image" [ i; j ];
           Build.in_ "nb" "hist" [ S.full b ] ]
       ~outs:[ Build.out_ ~wcr:Wcr.sum ~dynamic:true "out" "hist" [ S.full b ] ]
       ~code:(`Src "bin = floor(px * 8.0)\nout[min(max(bin, 0), 7)] = 1")
       ());
  Build.finalize g

(* Fig. 10b-style nested SDFG: per-element inner state machine (here, an
   iterative halving loop counting steps until the value drops below 1). *)
let nested_loop () =
  (* inner SDFG: given scalar v, compute number of halvings to reach < 1 *)
  let inner = Sdfg.create "halve_count" in
  Sdfg.add_scalar inner "v" ~dtype:f64;
  Sdfg.add_scalar inner "steps" ~dtype:i64;
  let init = Sdfg.add_state inner ~label:"init" () in
  ignore
    (Build.simple_tasklet inner init ~name:"zero"
       ~ins:[]
       ~outs:[ Build.out_elem "s" "steps" [ E.zero ] ]
       ~code:(`Src "s = 0") ());
  let body = Sdfg.add_state inner ~label:"halve" () in
  ignore
    (Build.simple_tasklet inner body ~name:"halve"
       ~ins:
         [ Build.in_elem "x" "v" [ E.zero ];
           Build.in_elem "s0" "steps" [ E.zero ] ]
       ~outs:
         [ Build.out_elem "xo" "v" [ E.zero ];
           Build.out_elem "so" "steps" [ E.zero ] ]
       ~code:(`Src "xo = x / 2.0\nso = s0 + 1") ());
  ignore
    (Sdfg.add_transition inner ~src:(State.id init) ~dst:(State.id body)
       ~cond:(Bexp.ge (E.sym "v") E.one) ());
  ignore
    (Sdfg.add_transition inner ~src:(State.id body) ~dst:(State.id body)
       ~cond:(Bexp.ge (E.sym "v") E.one) ());
  (* outer SDFG: map over array, invoke inner per element *)
  let g, st = Build.single_state ~symbols:[ "N" ] "halvings" in
  let n = E.sym "N" in
  Sdfg.add_array g "data" ~shape:[ n ] ~dtype:f64;
  Sdfg.add_array g "counts" ~shape:[ n ] ~dtype:i64;
  let entry, exit_ = Build.map_scope st ~params:[ "i" ]
      ~ranges:[ S.range E.zero (E.sub n E.one) ] () in
  let i = E.sym "i" in
  let nnode =
    Build.nested st ~sdfg:inner ~inputs:[ "v" ] ~outputs:[ "v"; "steps" ] ()
  in
  let d_acc = Build.access st "data" in
  let c_acc = Build.access st "counts" in
  Build.edge st ~dst_conn:"IN_data" ~memlet:(Memlet.full "data" [ n ])
    ~src:d_acc ~dst:entry ();
  Build.edge st ~src_conn:"OUT_data" ~dst_conn:"v"
    ~memlet:(Memlet.element "data" [ i ]) ~src:entry ~dst:nnode ();
  Build.edge st ~src_conn:"steps" ~dst_conn:"IN_counts"
    ~memlet:(Memlet.element "counts" [ i ]) ~src:nnode ~dst:exit_ ();
  Build.edge st ~src_conn:"OUT_counts" ~memlet:(Memlet.full "counts" [ n ])
    ~src:exit_ ~dst:c_acc ();
  Build.finalize g

(* Apply a transformation to its first candidate, failing the test with
   the transformation's [Error] message when it does not apply. *)
let apply_first g (x : Transform.Xform.t) =
  match Transform.Xform.apply_first g x with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" x.Transform.Xform.x_name m
