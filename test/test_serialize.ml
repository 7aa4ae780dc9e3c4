(* Serialization round-trip tests: save/load must preserve structure AND
   behaviour (interpreter results identical). *)

module T = Tasklang.Types
open Sdfg_ir
open Interp

let roundtrip g = Serialize.of_string (Serialize.to_string g)

let test_structural_roundtrip () =
  List.iter
    (fun (name, build) ->
      let g = build () in
      let g' = roundtrip g in
      Validate.check g';
      Alcotest.(check int) (name ^ ": states") (Sdfg.num_states g)
        (Sdfg.num_states g');
      Alcotest.(check int)
        (name ^ ": containers")
        (List.length (Sdfg.descs g))
        (List.length (Sdfg.descs g'));
      Alcotest.(check int)
        (name ^ ": transitions")
        (List.length (Sdfg.transitions g))
        (List.length (Sdfg.transitions g'));
      List.iter2
        (fun st st' ->
          Alcotest.(check int)
            (name ^ ": nodes of " ^ State.label st)
            (State.num_nodes st) (State.num_nodes st');
          Alcotest.(check int)
            (name ^ ": edges of " ^ State.label st)
            (State.num_edges st) (State.num_edges st'))
        (Sdfg.states g) (Sdfg.states g');
      (* second roundtrip is a fixpoint *)
      Alcotest.(check string)
        (name ^ ": serialization fixpoint")
        (Serialize.to_string g')
        (Serialize.to_string (roundtrip g')))
    [ ("vadd", Fixtures.vector_add);
      ("mapreduce mm", Fixtures.matmul_mapreduce);
      ("laplace", Fixtures.laplace);
      ("fibonacci (streams+consume)", Fixtures.fibonacci);
      ("nested sdfg", Fixtures.nested_loop);
      ("spmv", Fixtures.spmv);
      ("bfs", Workloads.Graphs.bfs) ]

let test_behavioural_roundtrip () =
  let run g =
    let a =
      Tensor.init T.F64 [| 7 |] (fun i -> T.F (cos (float_of_int (List.hd i))))
    in
    let b =
      Tensor.init T.F64 [| 7 |] (fun i -> T.F (float_of_int (List.hd i * 2)))
    in
    let c = Tensor.create T.F64 [| 7 |] in
    ignore
      (Exec.run g ~symbols:[ ("N", 7) ]
         ~args:[ ("A", a); ("B", b); ("C", c) ]);
    Tensor.to_float_list c
  in
  Alcotest.(check (list (float 1e-12)))
    "loaded SDFG computes identically"
    (run (Fixtures.vector_add ()))
    (run (roundtrip (Fixtures.vector_add ())))

let test_transformed_roundtrip () =
  (* transformations survive a save/load cycle (optimization version
     control, §4.2) *)
  let g = Fixtures.matmul_wcr () in
  Fixtures.apply_first g
    (Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 3 ]);
  Fixtures.apply_first g Transform.Device_xforms.gpu_transform;
  let g' = roundtrip g in
  Validate.check g';
  let run g =
    let m, n, k = (5, 4, 6) in
    let a = Tensor.init T.F64 [| m; k |] (fun idx -> T.F (float_of_int (List.fold_left ( + ) 1 idx))) in
    let b = Tensor.init T.F64 [| k; n |] (fun idx -> T.F (float_of_int (List.fold_left ( + ) 2 idx))) in
    let c = Tensor.create T.F64 [| m; n |] in
    ignore
      (Exec.run g
         ~symbols:[ ("M", m); ("N", n); ("K", k) ]
         ~args:[ ("A", a); ("B", b); ("C", c) ]);
    Tensor.to_float_list c
  in
  Alcotest.(check (list (float 1e-9))) "transformed+loaded identical" (run g)
    (run g')

let test_parse_errors () =
  let fails s =
    match Serialize.of_string s with
    | exception Serialize.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error for %S" s
  in
  fails "";
  fails "(sdfg)";
  fails "(sdfg \"x\" (symbols) (containers) (states) (transitions";
  fails "(not-an-sdfg)"

(* --- string escapes --------------------------------------------------- *)

(* One graph carrying four arbitrary strings in every quoted field: the
   SDFG and state labels, the tasklet name, both edge connectors, and
   the external tasklet's language and code. *)
let quoted_graph (label, name, conn, code) =
  let g = Sdfg.create label in
  Sdfg.add_array g "A" ~shape:[ Symbolic.Expr.int 4 ] ~dtype:T.F64;
  let st = Sdfg.add_state g ~label () in
  let a = State.add_node st (Defs.Access "A") in
  let t =
    State.add_node st
      (Defs.Tasklet
         { t_name = name; t_inputs = [];
           t_outputs = [ { k_name = "o"; k_dtype = T.F64; k_rank = 0 } ];
           t_code = External { language = code; code };
           t_instrument = false })
  in
  ignore (State.add_edge st ~src_conn:conn ~dst_conn:conn ~src:t ~dst:a ());
  g

let quoted_fields g =
  let st = List.hd (Sdfg.states g) in
  let tasklet =
    List.concat_map
      (fun (_, n) ->
        match n with
        | Defs.Tasklet { t_name; t_code = External { language; code }; _ } ->
          [ t_name; language; code ]
        | _ -> [])
      (State.nodes st)
  in
  let e = List.hd (State.edges st) in
  [ Sdfg.name g; State.label st ]
  @ tasklet
  @ List.filter_map Fun.id [ e.e_src_conn; e.e_dst_conn ]

let check_quoted strings =
  let g = quoted_graph strings in
  let text = Serialize.to_string g in
  let g' = Serialize.of_string text in
  quoted_fields g' = quoted_fields g
  && String.equal text (Serialize.to_string g')

let test_escape_examples () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Fmt.str "%S round-trips" s) true
        (check_quoted (s, s, s, s)))
    [ "café\b\001x"; "\\001"; "\\"; "\""; "\\\""; "a\n\t\r\b"; "\000\255";
      "\\999"; "" ]

(* arbitrary bytes, plus strings dense in the bytes escapes are made of *)
let gen_bytes =
  QCheck2.Gen.(
    oneof
      [ string;
        string_of
          (oneofl [ '\\'; '"'; '0'; '1'; '9'; 'b'; 'n'; '\n'; '\b'; '\255' ])
      ])

let prop_escapes =
  QCheck2.Test.make ~count:300
    ~name:"quoted fields round-trip arbitrary bytes"
    ~print:(fun (a, b, c, d) -> Fmt.str "%S %S %S %S" a b c d)
    QCheck2.Gen.(quad gen_bytes gen_bytes gen_bytes gen_bytes)
    check_quoted

(* --- typed parse errors ---------------------------------------------- *)

let valid_text =
  {|(sdfg "t" (symbols)
  (containers (array A (4) float64 false Default))
  (states
    (state 0 "s"
      (nodes (0 (access A))
        (1 (tasklet "w" () ((x float64 0)) (code "x = 1.0"))))
      (edges (1 "x" 0 _ (memlet A ((0 0 1 1)) 1 false _)))
      (scopes))
    (state 1 "t" (nodes) (edges) (scopes)))
  (transitions (0 1 true ()))
  (start 0))|}

(* Each row rewrites one piece of [valid_text]; every result must raise
   [Parse_error] and nothing else. *)
let malformed =
  [ ("non-integer node id", "(0 (access A))", "(zero (access A))");
    ("edge to an unknown node", {|(1 "x" 0 _|}, {|(1 "x" 7 _|});
    ("bad bool", "1 false _)", "1 maybe _)");
    ("bad tasklet code", "x = 1.0", "x = = 1.0");
    ("tasklet lexer failure", "x = 1.0", "x = 1e");
    ("duplicate node id", "(0 (access A))", "(0 (access A)) (0 (access A))");
    ( "duplicate state id",
      {|(state 1 "t" (nodes) (edges) (scopes))|},
      {|(state 1 "t" (nodes) (edges) (scopes))
    (state 1 "u" (nodes) (edges) (scopes))|} );
    ("non-integer state id", {|(state 1 "t"|}, {|(state one "t"|});
    ("transition to an unknown state", "(0 1 true ())", "(0 5 true ())");
    ("unknown start state", "(start 0)", "(start 9)");
    ("non-integer connector rank", "(x float64 0)", "(x float64 zero)");
    ("scope over an unknown node", "(scopes))", "(scopes (0 4)))");
    ( "duplicate container",
      "(containers (array A (4) float64 false Default))",
      "(containers (array A (4) float64 false Default) (array A (2) \
       float64 false Default))" );
    ("decimal escape out of range", {|"s"|}, {|"\999"|});
    ("short decimal escape", {|"s"|}, {|"\01"|});
    ("unterminated string", {|"t" (symbols)|}, {|"t (symbols)|});
    ("bad dtype", "(array A (4) float64", "(array A (4) float65");
    ("bad node form", "(access A)", "(acces A)");
    ("trailing input", "(start 0))", "(start 0)))") ]

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not in the text" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_typed_errors () =
  ignore (Serialize.of_string valid_text);
  List.iter
    (fun (what, sub, by) ->
      match Serialize.of_string (replace_first ~sub ~by valid_text) with
      | exception Serialize.Parse_error _ -> ()
      | exception e ->
        Alcotest.failf "%s: raised %s, not Parse_error" what
          (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: accepted" what)
    malformed

(* Truncations and byte flips of every corpus file: the reader returns a
   graph or raises [Parse_error], never anything else. *)
let test_mutations () =
  let texts =
    List.map
      (fun path -> In_channel.with_open_bin path In_channel.input_all)
      (Test_fuzz.corpus_files ())
    |> Array.of_list
  in
  let rng = Random.State.make [| 13 |] in
  for case = 1 to 2000 do
    let src = texts.(Random.State.int rng (Array.length texts)) in
    let n = String.length src in
    let mutated =
      if case mod 2 = 0 then String.sub src 0 (Random.State.int rng n)
      else begin
        let b = Bytes.of_string src in
        for _ = 1 to 1 + Random.State.int rng 3 do
          Bytes.set b (Random.State.int rng n)
            (Char.chr (Random.State.int rng 256))
        done;
        Bytes.to_string b
      end
    in
    match Serialize.of_string mutated with
    | _ -> ()
    | exception Serialize.Parse_error _ -> ()
    | exception e ->
      Alcotest.failf "case %d raised %s on %S" case (Printexc.to_string e)
        mutated
  done

(* --- canonical text -------------------------------------------------- *)

(* [to_string] is a fixed point of print-after-parse over generated
   graphs, every Polybench kernel and every corpus file (written in an
   older layout). *)
let test_fixed_point () =
  let check what g =
    let s = Serialize.to_string g in
    Alcotest.(check string) (what ^ ": fixed point") s
      (Serialize.to_string (Serialize.of_string s))
  in
  for seed = 1 to 100 do
    check (Fmt.str "fuzz seed %d" seed) (Fuzz.Gen.generate seed)
  done;
  List.iter
    (fun (k : Workloads.Polybench.kernel) -> check k.k_name (k.k_build ()))
    Workloads.Polybench.all;
  List.iter (fun path -> check path (Serialize.load path))
    (Test_fuzz.corpus_files ())

(* Scope pairs print sorted by entry id, whatever order they were
   recorded in. *)
let test_scope_order () =
  let n = 40 in
  let build order =
    let g = Sdfg.create "scopes" in
    let st = Sdfg.add_state g () in
    let map =
      Defs.Map_entry
        { mp_params = [ "i" ];
          mp_ranges =
            [ Symbolic.Subset.range Symbolic.Expr.zero (Symbolic.Expr.int 3) ];
          mp_schedule = Defs.Sequential; mp_unroll = false;
          mp_instrument = false }
    in
    let pairs =
      Array.init n (fun _ ->
          let en = State.add_node st map in
          (en, State.add_node st Defs.Map_exit))
    in
    List.iter
      (fun k ->
        let en, ex = pairs.(k) in
        State.set_scope st ~entry:en ~exit_:ex)
      order;
    Serialize.to_string g
  in
  let ascending = List.init n Fun.id in
  let expected = build ascending in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 5 do
    let shuffled =
      List.map (fun k -> (Random.State.bits rng, k)) ascending
      |> List.sort compare |> List.map snd
    in
    Alcotest.(check string) "same text for any insertion order" expected
      (build shuffled)
  done;
  Alcotest.(check string) "reverse insertion order" expected
    (build (List.rev ascending))

let suite =
  [ ("structural roundtrip", `Quick, test_structural_roundtrip);
    ("behavioural roundtrip", `Quick, test_behavioural_roundtrip);
    ("transformed SDFGs roundtrip", `Quick, test_transformed_roundtrip);
    ("parse errors", `Quick, test_parse_errors);
    ("string escapes", `Quick, test_escape_examples);
    ("typed parse errors", `Quick, test_typed_errors);
    ("mutated corpus raises only Parse_error", `Quick, test_mutations);
    ("canonical text fixed point", `Quick, test_fixed_point);
    ("scope pairs sorted", `Quick, test_scope_order) ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_escapes ]
