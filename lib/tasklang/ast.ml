(* Abstract syntax of the tasklet mini-language.

   Tasklets are stateless, fine-grained computational functions (paper
   §3.2): straight-line code with local variables, conditionals and calls
   to a fixed set of math intrinsics.  They may only touch data that was
   moved in or out through connectors — there is no way to name external
   memory from inside a tasklet, which is what makes the dataflow
   analysis of the enclosing SDFG sound. *)

type unop = Neg | Not | Sqrt | Exp | Log | Abs | Sin | Cos | Floor

type binop =
  | Add | Sub | Mul | Div | Mod | Pow
  | Min | Max
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type expr =
  | Float_lit of float
  | Int_lit of int
  | Bool_lit of bool
  | Var of string
  | Index of string * expr list  (* connector element access: a[i, j] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr   (* c ? t : f  /  "t if c else f" *)

type lhs =
  | Lvar of string
  | Lindex of string * expr list

type stmt =
  | Assign of lhs * expr
  | If of expr * stmt list * stmt list
  | For of string * expr * expr * stmt list
    (* sequential loop [for v in lo:hi { ... }], hi exclusive — the
       tasklet-level equivalent of a MapToForLoop'd sequential map, used
       for data-dependent iteration counts (e.g. CSR neighbor lists) *)

type t = stmt list

(* --- traversals ------------------------------------------------------ *)

let rec expr_names acc = function
  | Float_lit _ | Int_lit _ | Bool_lit _ -> acc
  | Var x -> x :: acc
  | Index (x, es) -> List.fold_left expr_names (x :: acc) es
  | Unop (_, e) -> expr_names acc e
  | Binop (_, a, b) -> expr_names (expr_names acc a) b
  | Cond (c, a, b) -> expr_names (expr_names (expr_names acc c) a) b

let rec stmt_reads acc = function
  | Assign (lhs, e) ->
    let acc = expr_names acc e in
    (match lhs with
    | Lvar _ -> acc
    | Lindex (_, es) -> List.fold_left expr_names acc es)
  | If (c, t, f) ->
    let acc = expr_names acc c in
    let acc = List.fold_left stmt_reads acc t in
    List.fold_left stmt_reads acc f
  | For (_, lo, hi, body) ->
    let acc = expr_names (expr_names acc lo) hi in
    List.fold_left stmt_reads acc body

let rec stmt_writes acc = function
  | Assign (Lvar x, _) | Assign (Lindex (x, _), _) -> x :: acc
  | If (_, t, f) ->
    let acc = List.fold_left stmt_writes acc t in
    List.fold_left stmt_writes acc f
  | For (v, _, _, body) -> List.fold_left stmt_writes (v :: acc) body

let reads (code : t) =
  List.sort_uniq String.compare (List.fold_left stmt_reads [] code)

let writes (code : t) =
  List.sort_uniq String.compare (List.fold_left stmt_writes [] code)

(* --- printing (round-trips through the parser) ----------------------- *)

let unop_name = function
  | Neg -> "-" | Not -> "not " | Sqrt -> "sqrt" | Exp -> "exp"
  | Log -> "log" | Abs -> "abs" | Sin -> "sin" | Cos -> "cos"
  | Floor -> "floor"

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Pow -> "**" | Min -> "min" | Max -> "max"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | And -> "and" | Or -> "or"

let add_list ~sep add b xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      add b x)
    xs

let rec add_expr b = function
  | Float_lit x ->
    if Float.is_integer x && Float.abs x < 1e15 then Printf.bprintf b "%.1f" x
    else Printf.bprintf b "%.17g" x
  | Int_lit n -> Printf.bprintf b "%d" n
  | Bool_lit v -> Buffer.add_string b (if v then "true" else "false")
  | Var x -> Buffer.add_string b x
  | Index (x, es) -> add_index b x es
  | Unop (Neg, Float_lit x) -> add_expr b (Float_lit (-.x))
  | Unop (Neg, Int_lit n) -> add_expr b (Int_lit (-n))
  | Unop (Neg, Unop (Neg, e)) -> add_expr b e
  | Unop (Neg, e) -> Printf.bprintf b "(-%a)" add_expr e
  | Unop (Not, e) -> Printf.bprintf b "(not %a)" add_expr e
  | Unop (op, e) -> Printf.bprintf b "%s(%a)" (unop_name op) add_expr e
  | Binop ((Min | Max) as op, x, y) ->
    Printf.bprintf b "%s(%a, %a)" (binop_name op) add_expr x add_expr y
  | Binop (op, x, y) ->
    Printf.bprintf b "(%a %s %a)" add_expr x (binop_name op) add_expr y
  | Cond (c, t, f) ->
    Printf.bprintf b "(%a if %a else %a)" add_expr t add_expr c add_expr f

and add_index b x es =
  Printf.bprintf b "%s[%a]" x (add_list ~sep:", " add_expr) es

let add_lhs b = function
  | Lvar x -> Buffer.add_string b x
  | Lindex (x, es) -> add_index b x es

let rec add_stmt b = function
  | Assign (lhs, e) -> Printf.bprintf b "%a = %a" add_lhs lhs add_expr e
  | If (c, t, []) -> Printf.bprintf b "if %a { %a }" add_expr c add_stmts t
  | If (c, t, f) ->
    Printf.bprintf b "if %a { %a } else { %a }" add_expr c add_stmts t
      add_stmts f
  | For (v, lo, hi, body) ->
    Printf.bprintf b "for %s in %a:%a { %a }" v add_expr lo add_expr hi
      add_stmts body

and add_stmts b stmts = add_list ~sep:"; " add_stmt b stmts

let to_string (code : t) =
  let b = Buffer.create 64 in
  add_stmts b code;
  Buffer.contents b
