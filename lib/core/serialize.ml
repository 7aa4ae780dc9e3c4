(* SDFG (de)serialization — the equivalent of DaCe's .sdfg files.

   The format is s-expressions: human-diffable, and everything the IR
   carries round-trips — containers, states, nodes, connectors, memlets
   (with WCR and dynamic flags), scope pairings, inter-state transitions,
   symbols, and nested SDFGs.  Symbolic expressions print in prefix form;
   tasklet code embeds as source text and re-parses through the tasklet
   parser.

   Both directions are single linear passes.  The reader walks the text
   with one index into an s-expression tree, taking every atom and every
   escape-free string with one [String.sub], and decodes every escape the
   printer emits; the tree is then decoded into a graph.  The printer
   writes the graph straight into one [Buffer] with a fixed layout: one
   container, state, node, edge, scope pair or transition per line,
   indented by nesting depth, everything inside those forms flat (a
   nested SDFG prints flat inside its node's line).  The printed text is
   the canonical form of a graph — the serve daemon keys its plan cache
   on it — so nothing in it depends on hashtable history: nodes, edges
   and scope pairs print sorted by id.  Every malformed input raises
   [Parse_error]. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Defs

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- s-expressions ------------------------------------------------------- *)

type sexp = Atom of string | Str of string | List of sexp list

(* flat, for error messages *)
let rec add_sexp b = function
  | Atom a -> Buffer.add_string b a
  | Str s -> Printf.bprintf b "%S" s
  | List xs ->
    Buffer.add_char b '(';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ' ';
        add_sexp b x)
      xs;
    Buffer.add_char b ')'

let sexp_to_string s =
  let b = Buffer.create 64 in
  add_sexp b s;
  Buffer.contents b

let is_digit c = c >= '0' && c <= '9'

(* Decode a quoted string whose opening quote precedes [start]; returns
   the contents and the index after the closing quote. *)
let read_string src start =
  let n = String.length src in
  let rec plain i =
    if i >= n then parse_error "unterminated string at byte %d" (start - 1)
    else
      match String.unsafe_get src i with
      | '"' -> (String.sub src start (i - start), i + 1)
      | '\\' ->
        let b = Buffer.create (i - start + 16) in
        Buffer.add_substring b src start (i - start);
        escaped b i
      | _ -> plain (i + 1)
  and escaped b i =
    if i >= n then parse_error "unterminated string at byte %d" (start - 1)
    else
      match String.unsafe_get src i with
      | '"' -> (Buffer.contents b, i + 1)
      | '\\' ->
        if i + 1 >= n then parse_error "unterminated escape at byte %d" i;
        let c = src.[i + 1] in
        if is_digit c then begin
          if i + 3 >= n || not (is_digit src.[i + 2] && is_digit src.[i + 3])
          then parse_error "bad decimal escape at byte %d" i;
          let code =
            (100 * (Char.code c - 48))
            + (10 * (Char.code src.[i + 2] - 48))
            + (Char.code src.[i + 3] - 48)
          in
          if code > 255 then
            parse_error "decimal escape out of range at byte %d" i;
          Buffer.add_char b (Char.chr code);
          escaped b (i + 4)
        end
        else begin
          Buffer.add_char b
            (match c with
            | 'n' -> '\n'
            | 't' -> '\t'
            | 'r' -> '\r'
            | 'b' -> '\b'
            | c -> c);
          escaped b (i + 2)
        end
      | c ->
        Buffer.add_char b c;
        escaped b (i + 1)
  in
  plain start

(* One shared atom per byte: one-character atoms ([_], [0], [1], loop
   parameters) are the most common tokens, and sharing them saves an
   allocation each. *)
let char_atoms = Array.init 256 (fun c -> Atom (String.make 1 (Char.chr c)))

let parse_sexp (src : string) : sexp =
  let n = String.length src in
  let pos = ref 0 in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get src !pos with
      | ' ' | '\n' | '\t' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let rec atom_end i =
    if i >= n then i
    else
      match String.unsafe_get src i with
      | ' ' | '\n' | '\t' | '\r' | '(' | ')' | '"' -> i
      | _ -> atom_end (i + 1)
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then parse_error "unexpected end of input";
    match String.unsafe_get src !pos with
    | '(' ->
      incr pos;
      List (items ())
    | ')' -> parse_error "unexpected ')' at byte %d" !pos
    | '"' ->
      let s, next = read_string src (!pos + 1) in
      pos := next;
      Str s
    | _ ->
      let start = !pos in
      pos := atom_end start;
      if !pos = start + 1 then char_atoms.(Char.code src.[start])
      else Atom (String.sub src start (!pos - start))
  (* built in order: recursion depth is one list's length *)
  and items () =
    skip_ws ();
    if !pos >= n then parse_error "unclosed parenthesis"
    else if String.unsafe_get src !pos = ')' then begin
      incr pos;
      []
    end
    else
      let v = value () in
      v :: items ()
  in
  let result = value () in
  skip_ws ();
  if !pos <> n then parse_error "trailing input after s-expression";
  result

(* --- scalar atoms -------------------------------------------------------- *)

let int_of_atom what a =
  match int_of_string_opt a with
  | Some n -> n
  | None -> parse_error "bad %s %S: not an integer" what a

let bool_of_atom what = function
  | "true" -> true
  | "false" -> false
  | a -> parse_error "bad %s %S: not a bool" what a

let float_of_atom a =
  match float_of_string_opt a with
  | Some x -> x
  | None -> parse_error "bad float %S" a

(* tasklet source embedded in the text: its own parser's errors (and the
   lexer's failed number conversions) are malformed input too *)
let tasklang what parse src =
  try parse src with
  | Tasklang.Parse.Parse_error m | Failure m ->
    parse_error "bad %s %S: %s" what src m

(* --- printer primitives -------------------------------------------------- *)

let put = Buffer.add_string
let sp b = Buffer.add_char b ' '
let close b = Buffer.add_char b ')'

(* opens a form: "(head" *)
let form b head =
  Buffer.add_char b '(';
  put b head

(* digit by digit: [string_of_int] goes through the C format machinery,
   and ids and extents are most of a graph's atoms *)
let rec put_digits b n =
  if n >= 10 then put_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let put_int b n =
  if n >= 0 then put_digits b n
  else if n = min_int then put b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    put_digits b (-n)
  end

let put_bool b v = put b (if v then "true" else "false")

(* OCaml [%S] quoting; [String.escaped] returns its argument when nothing
   needs escaping *)
let put_str b s =
  Buffer.add_char b '"';
  put b (String.escaped s);
  Buffer.add_char b '"'

(* "(x y z)" *)
let put_list b f xs =
  Buffer.add_char b '(';
  List.iteri
    (fun i x ->
      if i > 0 then sp b;
      f b x)
    xs;
  close b

(* "(head x y z)" *)
let put_app b head f xs =
  form b head;
  List.iter
    (fun x ->
      sp b;
      f b x)
    xs;
  close b

let spaces = String.make 64 ' '

(* The separator before an item of a laid-out form: a new line indented
   to [depth] when laying out ([Some depth]), one space inside a flat
   form ([None]). *)
let item_break b = function
  | None -> sp b
  | Some depth ->
    Buffer.add_char b '\n';
    Buffer.add_substring b spaces 0 (min 64 (2 * depth))

(* "(head" + one [item_break] per item + ")" *)
let put_block b depth head f xs =
  form b head;
  List.iter
    (fun x ->
      item_break b depth;
      f b x)
    xs;
  close b

let deeper = Option.map succ

let put_instrument b on = if on then put b " instrument"

(* --- symbolic expressions ------------------------------------------------ *)

let rec put_expr b (e : Expr.t) =
  match e with
  | Expr.Int n -> put_int b n
  | Expr.Sym s -> put b s
  | Expr.Add xs -> put_app b "+" put_expr xs
  | Expr.Mul xs -> put_app b "*" put_expr xs
  | Expr.Div (x, y) -> put_app b "/" put_expr [ x; y ]
  | Expr.Mod (x, y) -> put_app b "%" put_expr [ x; y ]
  | Expr.Min (x, y) -> put_app b "min" put_expr [ x; y ]
  | Expr.Max (x, y) -> put_app b "max" put_expr [ x; y ]

let rec expr_of_sexp (s : sexp) : Expr.t =
  match s with
  | Atom a -> (
    (* only a leading digit or sign can start an integer: symbol names
       skip the failing conversion *)
    match a.[0] with
    | '0' .. '9' | '-' | '+' -> (
      match int_of_string_opt a with
      | Some n -> Expr.Int n
      | None -> Expr.Sym a)
    | _ -> Expr.Sym a)
  | List (Atom "+" :: xs) -> Expr.Add (List.map expr_of_sexp xs)
  | List (Atom "*" :: xs) -> Expr.Mul (List.map expr_of_sexp xs)
  | List [ Atom "/"; a; b ] -> Expr.Div (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "%"; a; b ] -> Expr.Mod (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "min"; a; b ] -> Expr.Min (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "max"; a; b ] -> Expr.Max (expr_of_sexp a, expr_of_sexp b)
  | s -> parse_error "bad expression %s" (sexp_to_string s)

let put_range b (r : Subset.range) =
  put_list b put_expr [ r.start; r.stop; r.stride; r.tile ]

let range_of_sexp = function
  | List [ a; b; c; d ] ->
    { Subset.start = expr_of_sexp a; stop = expr_of_sexp b;
      stride = expr_of_sexp c; tile = expr_of_sexp d }
  | s -> parse_error "bad range %s" (sexp_to_string s)

let put_subset b (s : Subset.t) = put_list b put_range s

let subset_of_sexp = function
  | List rs -> List.map range_of_sexp rs
  | s -> parse_error "bad subset %s" (sexp_to_string s)

(* --- scalar pieces ----------------------------------------------------------- *)

let dtype_of_sexp = function
  | Atom "float32" -> Tasklang.Types.F32
  | Atom "float64" -> Tasklang.Types.F64
  | Atom "int32" -> Tasklang.Types.I32
  | Atom "int64" -> Tasklang.Types.I64
  | Atom "bool" -> Tasklang.Types.Bool
  | s -> parse_error "bad dtype %s" (sexp_to_string s)

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

let schedule_of_sexp = function
  | Atom "Sequential" -> Sequential
  | Atom "CPU_Multicore" -> Cpu_multicore
  | Atom "GPU_Device" -> Gpu_device
  | Atom "GPU_ThreadBlock" -> Gpu_threadblock
  | Atom "FPGA_Device" -> Fpga_device
  | Atom "FPGA_Unrolled" -> Fpga_unrolled
  | Atom "MPI" -> Mpi
  | s -> parse_error "bad schedule %s" (sexp_to_string s)

let put_wcr b = function
  | Wcr_sum -> put b "Sum"
  | Wcr_prod -> put b "Prod"
  | Wcr_min -> put b "Min"
  | Wcr_max -> put b "Max"
  | Wcr_custom e ->
    form b "Custom";
    sp b;
    put_str b (Tasklang.Emit.expr_to_c e);
    close b

let wcr_of_sexp = function
  | Atom "Sum" -> Wcr_sum
  | Atom "Prod" -> Wcr_prod
  | Atom "Min" -> Wcr_min
  | Atom "Max" -> Wcr_max
  | List [ Atom "Custom"; Str src ] ->
    Wcr_custom (tasklang "wcr" Tasklang.Parse.expression src)
  | s -> parse_error "bad wcr %s" (sexp_to_string s)

let put_value b (v : Tasklang.Types.value) =
  match v with
  | Tasklang.Types.F x -> put_app b "f" put [ Printf.sprintf "%h" x ]
  | Tasklang.Types.I n -> put_app b "i" put_int [ n ]
  | Tasklang.Types.B v -> put_app b "b" put_bool [ v ]

let value_of_sexp = function
  | List [ Atom "f"; Atom x ] -> Tasklang.Types.F (float_of_atom x)
  | List [ Atom "i"; Atom n ] ->
    Tasklang.Types.I (int_of_atom "integer value" n)
  | List [ Atom "b"; Atom b ] -> Tasklang.Types.B (bool_of_atom "bool value" b)
  | s -> parse_error "bad value %s" (sexp_to_string s)

let put_conn b (c : conn) =
  Buffer.add_char b '(';
  put b c.k_name;
  sp b;
  put b (Tasklang.Types.dtype_name c.k_dtype);
  sp b;
  put_int b c.k_rank;
  close b

let conn_of_sexp = function
  | List [ Atom name; dt; Atom rank ] ->
    { k_name = name; k_dtype = dtype_of_sexp dt;
      k_rank = int_of_atom "connector rank" rank }
  | s -> parse_error "bad connector %s" (sexp_to_string s)

let put_memlet b (m : memlet) =
  form b "memlet";
  sp b;
  put b m.m_data;
  sp b;
  put_subset b m.m_subset;
  sp b;
  put_expr b m.m_accesses;
  sp b;
  put_bool b m.m_dynamic;
  sp b;
  (match m.m_other with None -> put b "_" | Some o -> put_subset b o);
  (match m.m_wcr with
  | None -> ()
  | Some w ->
    sp b;
    put_wcr b w);
  close b
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
      m_dynamic = bool_of_atom "memlet dynamic flag" dyn }
  | s -> parse_error "bad memlet %s" (sexp_to_string s)

(* --- conditions ----------------------------------------------------------------- *)

let rec put_bexp b = function
  | Btrue -> put b "true"
  | Bfalse -> put b "false"
  | Bnot x -> put_app b "not" put_bexp [ x ]
  | Band (x, y) -> put_app b "and" put_bexp [ x; y ]
  | Bor (x, y) -> put_app b "or" put_bexp [ x; y ]
  | Bcmp (op, x, y) ->
    put_app b
      (match op with
      | Ceq -> "==" | Cne -> "!=" | Clt -> "<" | Cle -> "<=" | Cgt -> ">"
      | Cge -> ">=")
      put_expr [ x; y ]
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

(* --- printing nodes, states and the SDFG --------------------------------- *)

(* optional trailing [instrument] marker on tasklet / map_entry /
   consume_entry / state forms; absent in files written before the
   instrumentation layer *)
let instrument_of_tail = function
  | [] -> false
  | [ Atom "instrument" ] -> true
  | s :: _ -> parse_error "bad trailing field %s" (sexp_to_string s)

let rec put_node b (n : node) =
  match n with
  | Access d -> put_app b "access" put [ d ]
  | Tasklet t ->
    form b "tasklet";
    sp b;
    put_str b t.t_name;
    sp b;
    put_list b put_conn t.t_inputs;
    sp b;
    put_list b put_conn t.t_outputs;
    sp b;
    (match t.t_code with
    | Code code -> put_app b "code" put_str [ Tasklang.Ast.to_string code ]
    | External { language; code } ->
      put_app b "external" put_str [ language; code ]);
    put_instrument b t.t_instrument;
    close b
  | Map_entry m ->
    form b "map_entry";
    sp b;
    put_list b put m.mp_params;
    sp b;
    put_list b put_range m.mp_ranges;
    sp b;
    put b (schedule_name m.mp_schedule);
    sp b;
    put_bool b m.mp_unroll;
    put_instrument b m.mp_instrument;
    close b
  | Map_exit -> put b "map_exit"
  | Consume_entry c ->
    form b "consume_entry";
    sp b;
    put b c.cs_pe_param;
    sp b;
    put_expr b c.cs_num_pes;
    sp b;
    put b c.cs_stream;
    sp b;
    put b (schedule_name c.cs_schedule);
    put_instrument b c.cs_instrument;
    close b
  | Consume_exit -> put b "consume_exit"
  | Reduce r ->
    form b "reduce";
    sp b;
    put_wcr b r.r_wcr;
    sp b;
    (match r.r_axes with
    | None -> put b "_"
    | Some axes -> put_list b put_int axes);
    (match r.r_identity with
    | None -> ()
    | Some v ->
      sp b;
      put_value b v);
    close b
  | Nested_sdfg nest ->
    form b "nested";
    sp b;
    put_sdfg b None nest.n_sdfg;
    sp b;
    put_list b put nest.n_inputs;
    sp b;
    put_list b put nest.n_outputs;
    sp b;
    put_list b put_binding nest.n_symbol_map;
    close b

(* "(name expr)": nested symbol maps and interstate assignments *)
and put_binding b (name, e) =
  Buffer.add_char b '(';
  put b name;
  sp b;
  put_expr b e;
  close b

(* [depth]: [Some d] lays the form out, its own line at indent level
   [d]; [None] prints it flat (a nested SDFG inside its node's line). *)
and put_state b depth (st : state) =
  let inner = deeper depth in
  form b "state";
  sp b;
  put_int b st.st_id;
  sp b;
  put_str b st.st_label;
  item_break b inner;
  put_block b (deeper inner) "nodes"
    (fun b (nid, n) ->
      Buffer.add_char b '(';
      put_int b nid;
      sp b;
      put_node b n;
      close b)
    (State.nodes st);
  item_break b inner;
  put_block b (deeper inner) "edges"
    (fun b (e : edge) ->
      let conn = function None -> put b "_" | Some c -> put_str b c in
      Buffer.add_char b '(';
      put_int b e.e_src;
      sp b;
      conn e.e_src_conn;
      sp b;
      put_int b e.e_dst;
      sp b;
      conn e.e_dst_conn;
      sp b;
      (match e.e_memlet with None -> put b "_" | Some m -> put_memlet b m);
      close b)
    (State.edges st);
  item_break b inner;
  put_block b (deeper inner) "scopes"
    (fun b (en, ex) -> put_list b put_int [ en; ex ])
    (List.sort compare
       (Hashtbl.fold (fun en ex acc -> (en, ex) :: acc) st.st_scope_exit []));
  put_instrument b st.st_instrument;
  close b

and put_sdfg b depth (g : sdfg) =
  let inner = deeper depth in
  form b "sdfg";
  sp b;
  put_str b (Sdfg.name g);
  item_break b inner;
  put_app b "symbols" put (Sdfg.symbols g);
  item_break b inner;
  put_block b (deeper inner) "containers"
    (fun b (name, d) ->
      match d with
      | Array a ->
        form b "array";
        sp b;
        put b name;
        sp b;
        put_list b put_expr a.a_shape;
        sp b;
        put b (Tasklang.Types.dtype_name a.a_dtype);
        sp b;
        put_bool b a.a_transient;
        sp b;
        put b (storage_name a.a_storage);
        close b
      | Stream s ->
        form b "stream";
        sp b;
        put b name;
        sp b;
        put_list b put_expr s.s_shape;
        sp b;
        put b (Tasklang.Types.dtype_name s.s_dtype);
        sp b;
        put_expr b s.s_buffer;
        sp b;
        put_bool b s.s_transient;
        sp b;
        put b (storage_name s.s_storage);
        close b)
    (Sdfg.descs g);
  item_break b inner;
  put_block b (deeper inner) "states"
    (fun b st -> put_state b (deeper inner) st)
    (Sdfg.states g);
  item_break b inner;
  put_block b (deeper inner) "transitions"
    (fun b (t : istate_edge) ->
      Buffer.add_char b '(';
      put_int b t.is_src;
      sp b;
      put_int b t.is_dst;
      sp b;
      put_bexp b t.is_cond;
      sp b;
      put_list b put_binding t.is_assign;
      close b)
    (Sdfg.transitions g);
  item_break b inner;
  put_app b "start" put_int [ State.id (Sdfg.start_state g) ];
  close b

(* --- reading nodes, states and the SDFG ---------------------------------- *)

(* a duplicate container name is malformed text, not a graph-building
   error *)
let add_desc g name d =
  try Sdfg.add_desc g name d with Invalid_sdfg m -> parse_error "%s" m

let rec node_of_sexp (s : sexp) : node =
  match s with
  | List [ Atom "access"; Atom d ] -> Access d
  | List (Atom "tasklet" :: Str name :: List ins :: List outs :: code :: rest)
    ->
    let t_code =
      match code with
      | List [ Atom "code"; Str src ] ->
        Code (tasklang "tasklet code" Tasklang.Parse.program src)
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
        mp_unroll = bool_of_atom "map unroll flag" unroll;
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
    let axes_of = function
      | Atom "_" -> None
      | List axes ->
        Some
          (List.map
             (function
               | Atom a -> int_of_atom "axis" a
               | s -> parse_error "bad axis %s" (sexp_to_string s))
             axes)
      | s -> parse_error "bad reduce axes %s" (sexp_to_string s)
    in
    let axes, identity =
      match rest with
      | [ axes ] -> (axes_of axes, None)
      | [ axes; v ] -> (axes_of axes, Some (value_of_sexp v))
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

and state_of_sexp g (s : sexp) : int * int =
  match s with
  | List
      (Atom "state" :: Atom sid :: Str label :: List (Atom "nodes" :: nodes)
      :: List (Atom "edges" :: edges) :: List (Atom "scopes" :: scopes)
      :: rest) ->
    let sid = int_of_atom "state id" sid in
    let st = Sdfg.add_state g ~label () in
    st.st_instrument <- instrument_of_tail rest;
    let remap = Hashtbl.create 16 in
    let node a =
      match Hashtbl.find_opt remap (int_of_atom "node id" a) with
      | Some nid -> nid
      | None -> parse_error "state %d: unknown node %s" sid a
    in
    List.iter
      (fun ns ->
        match ns with
        | List [ Atom a; n ] ->
          let nid = int_of_atom "node id" a in
          if Hashtbl.mem remap nid then
            parse_error "state %d: duplicate node id %d" sid nid;
          Hashtbl.add remap nid (State.add_node st (node_of_sexp n))
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
               ?memlet ~src:(node src) ~dst:(node dst) ())
        | s -> parse_error "bad edge entry %s" (sexp_to_string s))
      edges;
    List.iter
      (fun sc ->
        match sc with
        | List [ Atom en; Atom ex ] ->
          State.set_scope st ~entry:(node en) ~exit_:(node ex)
        | s -> parse_error "bad scope entry %s" (sexp_to_string s))
      scopes;
    (sid, State.id st)
  | s -> parse_error "bad state %s" (sexp_to_string s)

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
          add_desc g dn
            (Array
               { a_shape = List.map expr_of_sexp shape;
                 a_dtype = dtype_of_sexp dt;
                 a_transient = bool_of_atom "transient flag" transient;
                 a_storage = storage_of_sexp storage })
        | List
            [ Atom "stream"; Atom dn; List shape; dt; buffer; Atom transient;
              storage ] ->
          add_desc g dn
            (Stream
               { s_shape = List.map expr_of_sexp shape;
                 s_dtype = dtype_of_sexp dt;
                 s_buffer = expr_of_sexp buffer;
                 s_transient = bool_of_atom "transient flag" transient;
                 s_storage = storage_of_sexp storage })
        | s -> parse_error "bad container %s" (sexp_to_string s))
      descs;
    (* state ids may have gaps after transformations; remap them *)
    let smap = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let old, nid = state_of_sexp g s in
        if Hashtbl.mem smap old then parse_error "duplicate state id %d" old;
        Hashtbl.add smap old nid)
      states;
    let rid a =
      match Hashtbl.find_opt smap (int_of_atom "state id" a) with
      | Some nid -> nid
      | None -> parse_error "reference to unknown state %s" a
    in
    List.iter
      (fun t ->
        match t with
        | List [ Atom src; Atom dst; cond; List assigns ] ->
          ignore
            (Sdfg.add_transition g ~src:(rid src) ~dst:(rid dst)
               ~cond:(bexp_of_sexp cond)
               ~assign:
                 (List.map
                    (function
                      | List [ Atom s; e ] -> (s, expr_of_sexp e)
                      | s -> parse_error "bad assign %s" (sexp_to_string s))
                    assigns)
               ())
        | s -> parse_error "bad transition %s" (sexp_to_string s))
      transitions;
    Sdfg.set_start g (rid start);
    g
  | s -> parse_error "bad sdfg %s" (sexp_to_string s)

(* --- public API ------------------------------------------------------------------------ *)

let to_string (g : sdfg) : string =
  let b = Buffer.create 4096 in
  put_sdfg b (Some 0) g;
  Buffer.contents b

let of_string (src : string) : sdfg = sdfg_of_sexp (parse_sexp src)

let expr_to_string e =
  let b = Buffer.create 32 in
  put_expr b e;
  Buffer.contents b

let expr_of_string src = expr_of_sexp (parse_sexp src)

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

