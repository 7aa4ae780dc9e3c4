(* SDFG (de)serialization — the equivalent of DaCe's .sdfg files.

   The format is s-expressions: human-diffable, and everything the IR
   carries round-trips — containers, states, nodes, connectors, memlets
   (with WCR and dynamic flags), scope pairings, inter-state transitions,
   symbols, and nested SDFGs.  Symbolic expressions print in prefix form;
   tasklet code embeds as source text and re-parses through the tasklet
   parser. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Defs

exception Parse_error of string

let parse_error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* --- s-expressions ------------------------------------------------------- *)

type sexp = Atom of string | Str of string | List of sexp list

let rec pp_sexp ppf = function
  | Atom a -> Fmt.string ppf a
  | Str s -> Fmt.pf ppf "%S" s
  | List xs -> Fmt.pf ppf "(@[<hov 1>%a@])" Fmt.(list ~sep:sp pp_sexp) xs

let sexp_to_string s = Fmt.str "%a" pp_sexp s

let parse_sexp (src : string) : sexp =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (src.[!pos] = ' ' || src.[!pos] = '\n' || src.[!pos] = '\t'
         || src.[!pos] = '\r')
    do
      incr pos
    done
  in
  let rec parse () =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input"
    | Some '(' ->
      incr pos;
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | Some ')' ->
          incr pos;
          List (List.rev !items)
        | None -> parse_error "unclosed parenthesis"
        | Some _ ->
          items := parse () :: !items;
          loop ()
      in
      loop ()
    | Some '"' ->
      (* OCaml-style quoted string *)
      let buf = Buffer.create 16 in
      incr pos;
      let rec scan () =
        if !pos >= n then parse_error "unterminated string"
        else
          match src.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            if !pos + 1 >= n then parse_error "bad escape";
            (match src.[!pos + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | '\\' -> Buffer.add_char buf '\\'
            | '"' -> Buffer.add_char buf '"'
            | 'r' -> Buffer.add_char buf '\r'
            | c -> Buffer.add_char buf c);
            pos := !pos + 2;
            scan ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            scan ()
      in
      scan ();
      Str (Buffer.contents buf)
    | Some ')' -> parse_error "unexpected ')'"
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        && not
             (List.mem src.[!pos] [ ' '; '\n'; '\t'; '\r'; '('; ')'; '"' ])
      do
        incr pos
      done;
      Atom (String.sub src start (!pos - start))
  in
  let result = parse () in
  skip_ws ();
  if !pos <> n then parse_error "trailing input after s-expression";
  result

(* --- symbolic expressions -------------------------------------------------- *)

let rec expr_to_sexp (e : Expr.t) : sexp =
  match e with
  | Expr.Int n -> Atom (string_of_int n)
  | Expr.Sym s -> Atom s
  | Expr.Add xs -> List (Atom "+" :: List.map expr_to_sexp xs)
  | Expr.Mul xs -> List (Atom "*" :: List.map expr_to_sexp xs)
  | Expr.Div (a, b) -> List [ Atom "/"; expr_to_sexp a; expr_to_sexp b ]
  | Expr.Mod (a, b) -> List [ Atom "%"; expr_to_sexp a; expr_to_sexp b ]
  | Expr.Min (a, b) -> List [ Atom "min"; expr_to_sexp a; expr_to_sexp b ]
  | Expr.Max (a, b) -> List [ Atom "max"; expr_to_sexp a; expr_to_sexp b ]

let rec expr_of_sexp (s : sexp) : Expr.t =
  match s with
  | Atom a -> (
    match int_of_string_opt a with
    | Some n -> Expr.Int n
    | None -> Expr.Sym a)
  | List (Atom "+" :: xs) -> Expr.Add (List.map expr_of_sexp xs)
  | List (Atom "*" :: xs) -> Expr.Mul (List.map expr_of_sexp xs)
  | List [ Atom "/"; a; b ] -> Expr.Div (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "%"; a; b ] -> Expr.Mod (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "min"; a; b ] -> Expr.Min (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "max"; a; b ] -> Expr.Max (expr_of_sexp a, expr_of_sexp b)
  | s -> parse_error "bad expression %s" (sexp_to_string s)

let range_to_sexp (r : Subset.range) =
  List
    [ expr_to_sexp r.start; expr_to_sexp r.stop; expr_to_sexp r.stride;
      expr_to_sexp r.tile ]

let range_of_sexp = function
  | List [ a; b; c; d ] ->
    { Subset.start = expr_of_sexp a; stop = expr_of_sexp b;
      stride = expr_of_sexp c; tile = expr_of_sexp d }
  | s -> parse_error "bad range %s" (sexp_to_string s)

let subset_to_sexp (s : Subset.t) = List (List.map range_to_sexp s)

let subset_of_sexp = function
  | List rs -> List.map range_of_sexp rs
  | s -> parse_error "bad subset %s" (sexp_to_string s)

(* --- scalar pieces ----------------------------------------------------------- *)

let dtype_to_atom dt = Atom (Tasklang.Types.dtype_name dt)

let dtype_of_sexp = function
  | Atom "float32" -> Tasklang.Types.F32
  | Atom "float64" -> Tasklang.Types.F64
  | Atom "int32" -> Tasklang.Types.I32
  | Atom "int64" -> Tasklang.Types.I64
  | Atom "bool" -> Tasklang.Types.Bool
  | s -> parse_error "bad dtype %s" (sexp_to_string s)

let storage_to_atom st = Atom (storage_name st)

let storage_of_sexp = function
  | Atom "Default" -> Default
  | Atom "Register" -> Register
  | Atom "CPU_Heap" -> Cpu_heap
  | Atom "CPU_Stack" -> Cpu_stack
  | Atom "GPU_Global" -> Gpu_global
  | Atom "GPU_Shared" -> Gpu_shared
  | Atom "FPGA_Global" -> Fpga_global
  | Atom "FPGA_Local" -> Fpga_local
  | s -> parse_error "bad storage %s" (sexp_to_string s)

let schedule_to_atom s = Atom (schedule_name s)

let schedule_of_sexp = function
  | Atom "Sequential" -> Sequential
  | Atom "CPU_Multicore" -> Cpu_multicore
  | Atom "GPU_Device" -> Gpu_device
  | Atom "GPU_ThreadBlock" -> Gpu_threadblock
  | Atom "FPGA_Device" -> Fpga_device
  | Atom "FPGA_Unrolled" -> Fpga_unrolled
  | Atom "MPI" -> Mpi
  | s -> parse_error "bad schedule %s" (sexp_to_string s)

let wcr_to_sexp = function
  | Wcr_sum -> Atom "Sum"
  | Wcr_prod -> Atom "Prod"
  | Wcr_min -> Atom "Min"
  | Wcr_max -> Atom "Max"
  | Wcr_custom e -> List [ Atom "Custom"; Str (Tasklang.Emit.expr_to_c e) ]

let wcr_of_sexp = function
  | Atom "Sum" -> Wcr_sum
  | Atom "Prod" -> Wcr_prod
  | Atom "Min" -> Wcr_min
  | Atom "Max" -> Wcr_max
  | List [ Atom "Custom"; Str src ] ->
    Wcr_custom (Tasklang.Parse.expression src)
  | s -> parse_error "bad wcr %s" (sexp_to_string s)

let value_to_sexp (v : Tasklang.Types.value) =
  match v with
  | Tasklang.Types.F x -> List [ Atom "f"; Atom (Fmt.str "%h" x) ]
  | Tasklang.Types.I n -> List [ Atom "i"; Atom (string_of_int n) ]
  | Tasklang.Types.B b -> List [ Atom "b"; Atom (string_of_bool b) ]

let value_of_sexp = function
  | List [ Atom "f"; Atom x ] -> Tasklang.Types.F (float_of_string x)
  | List [ Atom "i"; Atom n ] -> Tasklang.Types.I (int_of_string n)
  | List [ Atom "b"; Atom b ] -> Tasklang.Types.B (bool_of_string b)
  | s -> parse_error "bad value %s" (sexp_to_string s)

let conn_to_sexp (c : conn) =
  List [ Atom c.k_name; dtype_to_atom c.k_dtype; Atom (string_of_int c.k_rank) ]

let conn_of_sexp = function
  | List [ Atom name; dt; Atom rank ] ->
    { k_name = name; k_dtype = dtype_of_sexp dt; k_rank = int_of_string rank }
  | s -> parse_error "bad connector %s" (sexp_to_string s)

let memlet_to_sexp (m : memlet) =
  List
    ([ Atom "memlet"; Atom m.m_data; subset_to_sexp m.m_subset;
       expr_to_sexp m.m_accesses; Atom (string_of_bool m.m_dynamic) ]
    @ (match m.m_other with
      | None -> [ Atom "_" ]
      | Some o -> [ subset_to_sexp o ])
    @ match m.m_wcr with None -> [] | Some w -> [ wcr_to_sexp w ])

let memlet_of_sexp = function
  | List (Atom "memlet" :: Atom data :: subset :: accesses :: Atom dyn :: rest)
    ->
    let other, wcr =
      match rest with
      | [ Atom "_" ] -> (None, None)
      | [ Atom "_"; w ] -> (None, Some (wcr_of_sexp w))
      | [ o ] -> (Some (subset_of_sexp o), None)
      | [ o; w ] -> (Some (subset_of_sexp o), Some (wcr_of_sexp w))
      | _ -> parse_error "bad memlet tail"
    in
    { m_data = data;
      m_subset = subset_of_sexp subset;
      m_other = other;
      m_wcr = wcr;
      m_accesses = expr_of_sexp accesses;
      m_dynamic = bool_of_string dyn }
  | s -> parse_error "bad memlet %s" (sexp_to_string s)

(* --- conditions ----------------------------------------------------------------- *)

let rec bexp_to_sexp = function
  | Btrue -> Atom "true"
  | Bfalse -> Atom "false"
  | Bnot b -> List [ Atom "not"; bexp_to_sexp b ]
  | Band (a, b) -> List [ Atom "and"; bexp_to_sexp a; bexp_to_sexp b ]
  | Bor (a, b) -> List [ Atom "or"; bexp_to_sexp a; bexp_to_sexp b ]
  | Bcmp (op, a, b) ->
    let o =
      match op with
      | Ceq -> "==" | Cne -> "!=" | Clt -> "<" | Cle -> "<=" | Cgt -> ">"
      | Cge -> ">="
    in
    List [ Atom o; expr_to_sexp a; expr_to_sexp b ]

let rec bexp_of_sexp = function
  | Atom "true" -> Btrue
  | Atom "false" -> Bfalse
  | List [ Atom "not"; b ] -> Bnot (bexp_of_sexp b)
  | List [ Atom "and"; a; b ] -> Band (bexp_of_sexp a, bexp_of_sexp b)
  | List [ Atom "or"; a; b ] -> Bor (bexp_of_sexp a, bexp_of_sexp b)
  | List [ Atom op; a; b ] ->
    let o =
      match op with
      | "==" -> Ceq | "!=" -> Cne | "<" -> Clt | "<=" -> Cle | ">" -> Cgt
      | ">=" -> Cge
      | _ -> parse_error "bad comparison %s" op
    in
    Bcmp (o, expr_of_sexp a, expr_of_sexp b)
  | s -> parse_error "bad condition %s" (sexp_to_string s)

(* --- nodes ------------------------------------------------------------------------ *)

(* optional trailing [instrument] marker on tasklet / map_entry / state
   forms; absent in files written before the instrumentation layer *)
let instrument_of_tail = function
  | [] -> false
  | [ Atom "instrument" ] -> true
  | s :: _ -> parse_error "bad trailing field %s" (sexp_to_string s)

let rec node_to_sexp (n : node) : sexp =
  match n with
  | Access d -> List [ Atom "access"; Atom d ]
  | Tasklet t ->
    List
      ([ Atom "tasklet"; Str t.t_name;
         List (List.map conn_to_sexp t.t_inputs);
         List (List.map conn_to_sexp t.t_outputs);
         (match t.t_code with
         | Code code -> List [ Atom "code"; Str (Tasklang.Ast.to_string code) ]
         | External { language; code } ->
           List [ Atom "external"; Str language; Str code ]) ]
      (* trailing marker keeps pre-instrumentation files parseable *)
      @ if t.t_instrument then [ Atom "instrument" ] else [])
  | Map_entry m ->
    List
      ([ Atom "map_entry";
         List (List.map (fun p -> Atom p) m.mp_params);
         List (List.map range_to_sexp m.mp_ranges);
         schedule_to_atom m.mp_schedule;
         Atom (string_of_bool m.mp_unroll) ]
      @ if m.mp_instrument then [ Atom "instrument" ] else [])
  | Map_exit -> Atom "map_exit"
  | Consume_entry c ->
    List
      ([ Atom "consume_entry"; Atom c.cs_pe_param; expr_to_sexp c.cs_num_pes;
         Atom c.cs_stream; schedule_to_atom c.cs_schedule ]
      @ if c.cs_instrument then [ Atom "instrument" ] else [])
  | Consume_exit -> Atom "consume_exit"
  | Reduce r ->
    List
      ([ Atom "reduce"; wcr_to_sexp r.r_wcr ]
      @ (match r.r_axes with
        | None -> [ Atom "_" ]
        | Some axes ->
          [ List (List.map (fun a -> Atom (string_of_int a)) axes) ])
      @
      match r.r_identity with
      | None -> []
      | Some v -> [ value_to_sexp v ])
  | Nested_sdfg nest ->
    List
      [ Atom "nested"; sdfg_to_sexp nest.n_sdfg;
        List (List.map (fun s -> Atom s) nest.n_inputs);
        List (List.map (fun s -> Atom s) nest.n_outputs);
        List
          (List.map
             (fun (s, e) -> List [ Atom s; expr_to_sexp e ])
             nest.n_symbol_map) ]

and node_of_sexp (s : sexp) : node =
  match s with
  | List [ Atom "access"; Atom d ] -> Access d
  | List (Atom "tasklet" :: Str name :: List ins :: List outs :: code :: rest)
    ->
    let t_code =
      match code with
      | List [ Atom "code"; Str src ] -> Code (Tasklang.Parse.program src)
      | List [ Atom "external"; Str language; Str code ] ->
        External { language; code }
      | s -> parse_error "bad tasklet code %s" (sexp_to_string s)
    in
    Tasklet
      { t_name = name;
        t_inputs = List.map conn_of_sexp ins;
        t_outputs = List.map conn_of_sexp outs;
        t_code;
        t_instrument = instrument_of_tail rest }
  | List
      (Atom "map_entry" :: List params :: List ranges :: sched :: Atom unroll
      :: rest) ->
    Map_entry
      { mp_params =
          List.map
            (function Atom p -> p | s -> parse_error "bad param %s" (sexp_to_string s))
            params;
        mp_ranges = List.map range_of_sexp ranges;
        mp_schedule = schedule_of_sexp sched;
        mp_unroll = bool_of_string unroll;
        mp_instrument = instrument_of_tail rest }
  | Atom "map_exit" -> Map_exit
  | List (Atom "consume_entry" :: Atom pe :: num :: Atom stream :: sched :: rest)
    ->
    Consume_entry
      { cs_pe_param = pe; cs_num_pes = expr_of_sexp num; cs_stream = stream;
        cs_schedule = schedule_of_sexp sched;
        cs_instrument = instrument_of_tail rest }
  | Atom "consume_exit" -> Consume_exit
  | List (Atom "reduce" :: wcr :: rest) ->
    let axes, identity =
      match rest with
      | [ Atom "_" ] -> (None, None)
      | [ Atom "_"; v ] -> (None, Some (value_of_sexp v))
      | [ List axes ] ->
        ( Some
            (List.map
               (function
                 | Atom a -> int_of_string a
                 | s -> parse_error "bad axis %s" (sexp_to_string s))
               axes),
          None )
      | [ List axes; v ] ->
        ( Some
            (List.map
               (function
                 | Atom a -> int_of_string a
                 | s -> parse_error "bad axis %s" (sexp_to_string s))
               axes),
          Some (value_of_sexp v) )
      | _ -> parse_error "bad reduce tail"
    in
    Reduce { r_wcr = wcr_of_sexp wcr; r_axes = axes; r_identity = identity }
  | List [ Atom "nested"; inner; List ins; List outs; List syms ] ->
    Nested_sdfg
      { n_sdfg = sdfg_of_sexp inner;
        n_inputs =
          List.map
            (function Atom a -> a | s -> parse_error "bad input %s" (sexp_to_string s))
            ins;
        n_outputs =
          List.map
            (function Atom a -> a | s -> parse_error "bad output %s" (sexp_to_string s))
            outs;
        n_symbol_map =
          List.map
            (function
              | List [ Atom s; e ] -> (s, expr_of_sexp e)
              | s -> parse_error "bad symbol map %s" (sexp_to_string s))
            syms }
  | s -> parse_error "bad node %s" (sexp_to_string s)

(* --- states and the SDFG -------------------------------------------------------------- *)

and state_to_sexp (st : state) : sexp =
  let nodes =
    State.nodes st
    |> List.map (fun (nid, n) ->
           List [ Atom (string_of_int nid); node_to_sexp n ])
  in
  let edges =
    State.edges st
    |> List.map (fun (e : edge) ->
           let conn = function None -> Atom "_" | Some c -> Str c in
           List
             [ Atom (string_of_int e.e_src); conn e.e_src_conn;
               Atom (string_of_int e.e_dst); conn e.e_dst_conn;
               (match e.e_memlet with
               | None -> Atom "_"
               | Some m -> memlet_to_sexp m) ])
  in
  let scopes =
    Hashtbl.fold
      (fun en ex acc ->
        List [ Atom (string_of_int en); Atom (string_of_int ex) ] :: acc)
      st.st_scope_exit []
  in
  List
    ([ Atom "state"; Atom (string_of_int st.st_id); Str st.st_label;
       List (Atom "nodes" :: nodes);
       List (Atom "edges" :: edges);
       List (Atom "scopes" :: scopes) ]
    @ if st.st_instrument then [ Atom "instrument" ] else [])

and state_of_sexp g (s : sexp) : int * int =
  match s with
  | List
      (Atom "state" :: Atom sid :: Str label :: List (Atom "nodes" :: nodes)
      :: List (Atom "edges" :: edges) :: List (Atom "scopes" :: scopes)
      :: rest) ->
    let st = Sdfg.add_state g ~label () in
    st.st_instrument <- instrument_of_tail rest;
    let remap = Hashtbl.create 16 in
    List.iter
      (fun ns ->
        match ns with
        | List [ Atom nid; n ] ->
          Hashtbl.replace remap (int_of_string nid)
            (State.add_node st (node_of_sexp n))
        | s -> parse_error "bad node entry %s" (sexp_to_string s))
      nodes;
    List.iter
      (fun es ->
        match es with
        | List [ Atom src; sconn; Atom dst; dconn; m ] ->
          let conn = function
            | Atom "_" -> None
            | Str c -> Some c
            | s -> parse_error "bad connector %s" (sexp_to_string s)
          in
          let memlet =
            match m with Atom "_" -> None | m -> Some (memlet_of_sexp m)
          in
          ignore
            (State.add_edge st ?src_conn:(conn sconn) ?dst_conn:(conn dconn)
               ?memlet
               ~src:(Hashtbl.find remap (int_of_string src))
               ~dst:(Hashtbl.find remap (int_of_string dst))
               ())
        | s -> parse_error "bad edge entry %s" (sexp_to_string s))
      edges;
    List.iter
      (fun sc ->
        match sc with
        | List [ Atom en; Atom ex ] ->
          State.set_scope st
            ~entry:(Hashtbl.find remap (int_of_string en))
            ~exit_:(Hashtbl.find remap (int_of_string ex))
        | s -> parse_error "bad scope entry %s" (sexp_to_string s))
      scopes;
    (int_of_string sid, State.id st)
  | s -> parse_error "bad state %s" (sexp_to_string s)

and sdfg_to_sexp (g : sdfg) : sexp =
  let descs =
    Sdfg.descs g
    |> List.map (fun (name, d) ->
           match d with
           | Array a ->
             List
               [ Atom "array"; Atom name;
                 List (List.map expr_to_sexp a.a_shape);
                 dtype_to_atom a.a_dtype;
                 Atom (string_of_bool a.a_transient);
                 storage_to_atom a.a_storage ]
           | Stream s ->
             List
               [ Atom "stream"; Atom name;
                 List (List.map expr_to_sexp s.s_shape);
                 dtype_to_atom s.s_dtype; expr_to_sexp s.s_buffer;
                 Atom (string_of_bool s.s_transient);
                 storage_to_atom s.s_storage ])
  in
  let transitions =
    Sdfg.transitions g
    |> List.map (fun (t : istate_edge) ->
           List
             [ Atom (string_of_int t.is_src); Atom (string_of_int t.is_dst);
               bexp_to_sexp t.is_cond;
               List
                 (List.map
                    (fun (s, e) -> List [ Atom s; expr_to_sexp e ])
                    t.is_assign) ])
  in
  List
    [ Atom "sdfg"; Str (Sdfg.name g);
      List (Atom "symbols" :: List.map (fun s -> Atom s) (Sdfg.symbols g));
      List (Atom "containers" :: descs);
      List (Atom "states" :: List.map state_to_sexp (Sdfg.states g));
      List (Atom "transitions" :: transitions);
      List [ Atom "start"; Atom (string_of_int (State.id (Sdfg.start_state g))) ] ]

and sdfg_of_sexp (s : sexp) : sdfg =
  match s with
  | List
      [ Atom "sdfg"; Str name; List (Atom "symbols" :: syms);
        List (Atom "containers" :: descs);
        List (Atom "states" :: states);
        List (Atom "transitions" :: transitions);
        List [ Atom "start"; Atom start ] ] ->
    let g =
      Sdfg.create
        ~symbols:
          (List.map
             (function
               | Atom a -> a
               | s -> parse_error "bad symbol %s" (sexp_to_string s))
             syms)
        name
    in
    List.iter
      (fun d ->
        match d with
        | List
            [ Atom "array"; Atom dn; List shape; dt; Atom transient; storage ]
          ->
          Sdfg.add_desc g dn
            (Array
               { a_shape = List.map expr_of_sexp shape;
                 a_dtype = dtype_of_sexp dt;
                 a_transient = bool_of_string transient;
                 a_storage = storage_of_sexp storage })
        | List
            [ Atom "stream"; Atom dn; List shape; dt; buffer; Atom transient;
              storage ] ->
          Sdfg.add_desc g dn
            (Stream
               { s_shape = List.map expr_of_sexp shape;
                 s_dtype = dtype_of_sexp dt;
                 s_buffer = expr_of_sexp buffer;
                 s_transient = bool_of_string transient;
                 s_storage = storage_of_sexp storage })
        | s -> parse_error "bad container %s" (sexp_to_string s))
      descs;
    (* state ids may have gaps after transformations; remap them *)
    let smap = List.map (state_of_sexp g) states in
    let rid old =
      match List.assoc_opt old smap with
      | Some nid -> nid
      | None -> parse_error "transition references unknown state %d" old
    in
    List.iter
      (fun t ->
        match t with
        | List [ Atom src; Atom dst; cond; List assigns ] ->
          ignore
            (Sdfg.add_transition g ~src:(rid (int_of_string src))
               ~dst:(rid (int_of_string dst)) ~cond:(bexp_of_sexp cond)
               ~assign:
                 (List.map
                    (function
                      | List [ Atom s; e ] -> (s, expr_of_sexp e)
                      | s -> parse_error "bad assign %s" (sexp_to_string s))
                    assigns)
               ())
        | s -> parse_error "bad transition %s" (sexp_to_string s))
      transitions;
    Sdfg.set_start g (rid (int_of_string start));
    g
  | s -> parse_error "bad sdfg %s" (sexp_to_string s)

(* --- public API ------------------------------------------------------------------------ *)

let to_string (g : sdfg) : string = sexp_to_string (sdfg_to_sexp g)

let of_string (src : string) : sdfg = sdfg_of_sexp (parse_sexp src)

let save (g : sdfg) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path : sdfg =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let hash (g : sdfg) : string = Digest.to_hex (Digest.string (to_string g))
