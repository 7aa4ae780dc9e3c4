(* Bulk strided kernels for affine map bodies (Engine v2).

   The closure nest built by {!Plan.comp_map} executes one tasklet at a
   time: per iteration it refreshes every memlet's compiled subset view
   (bounds checks included), snapshots scalar inputs, runs the compiled
   body and writes through [view_set].  When the body is a single pure
   scalar tasklet whose subscripts are affine in the map parameters, all
   of that collapses: each operand's offset is [base + dot(es, counters)]
   for a base and per-dimension element strides computable once per
   launch, and the bounds checks over the whole iteration box reduce to
   corner checks (affine functions attain extrema at box corners).  So
   the scope runs as a flat strided loop over the raw buffers.

   Correctness strategy: the kernel executes the same reads and writes in
   the same iteration order as the closure nest, so results are
   bit-identical by construction — including in-place updates, where an
   output container is also read as an input.  The only deviations from
   that order (the copy blit, the contraction's register accumulator) are
   gated on buffer-aliasing checks.  Error behavior is preserved by
   deferring to the closure nest ([slow]) whenever the launch-time bounds
   pre-check fails: the nest then raises the reference engine's exact
   error at the exact iteration with the exact partial counters, because
   the kernel has not touched memory or counters yet.  Runtime-type-
   dependent operations the static compiler cannot mirror (integer [Div]
   / [Mod] without a nonzero literal divisor, [Pow] without a literal
   exponent, mixed-type conditionals) reject recognition instead.

   Instrumentation counters are bumped in bulk: a launch of [T] trips
   counts [T] map iterations, [T] tasklet executions,
   [T * (inputs + 1)] elements moved and — under WCR — [T] conflict
   resolutions, exactly what the per-iteration path totals. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
module Ast = Tasklang.Ast
open Sdfg_ir
open Defs

type t = {
  k_name : string;
  k_run :
    frame:int array ->
    bounds:int array ->
    lo:int ->
    hi:int ->
    step:int ->
    slow:(unit -> unit) ->
    unit;
}

exception Reject of string

let reject r = raise (Reject r)

(* --- affine subscript extraction ---------------------------------------- *)

(* One tensor dimension of an operand: the subscript's constant part and
   per-map-parameter coefficients, compiled against the enclosing frame
   (map parameters substituted away).  [None] coefficient = 0. *)
type dim_plan = {
  dp_const : int array -> int;
  dp_coefs : (int array -> int) option array;
}

type arg_plan = { ap_tens : Tensor.t; ap_dims : dim_plan array }

(* Structural affinity in the map parameters: sums of terms with at most
   one parameter-dependent factor each; Div/Mod/Min/Max only over
   parameter-free subexpressions. *)
let rec affine_ok params e =
  let mentions e =
    List.exists (fun s -> List.mem s params) (Expr.free_syms e)
  in
  match e with
  | Expr.Int _ | Expr.Sym _ -> true
  | Expr.Add es -> List.for_all (affine_ok params) es
  | Expr.Mul es -> (
    match List.filter mentions es with
    | [] -> true
    | [ d ] -> affine_ok params d
    | _ :: _ :: _ -> false)
  | Expr.Div _ | Expr.Mod _ | Expr.Min _ | Expr.Max _ -> not (mentions e)

(* Exact decomposition by substitution: const = e[params := 0],
   coef_p = e[p := 1, others := 0] - const.  Sound because [affine_ok]
   restricted e to (multi-)linear form over the parameters. *)
let decompose ~params ~comp e : (int array -> int) * (int array -> int) option array =
  if not (affine_ok params e) then reject "non-affine";
  let compile e =
    match comp e with Some f -> f | None -> reject "symbols"
  in
  let zeros = List.map (fun p -> (p, Expr.zero)) params in
  let const_e = Expr.subst_list zeros e in
  let coefs =
    Array.of_list
      (List.map
         (fun p ->
           let ones =
             List.map
               (fun q -> (q, if q = p then Expr.one else Expr.zero))
               params
           in
           let ce = Expr.sub (Expr.subst_list ones e) const_e in
           if Expr.equal ce Expr.zero then None else Some (compile ce))
         params)
  in
  (compile const_e, coefs)

(* Operand plan for a memlet: every subset dimension must be a unit-tile
   single-element affine index.  Rank-0 tensors ignore their subset, as
   [Plan.refresh_view] does. *)
let affine_plan ~params ~comp (tens : Tensor.t) (sub : Subset.t) : arg_plan =
  let r = Tensor.rank tens in
  if r = 0 then { ap_tens = tens; ap_dims = [||] }
  else begin
    if Subset.dims sub <> r then reject "rank";
    let dims =
      List.map
        (fun (rg : Subset.range) ->
          if Expr.as_int rg.Subset.tile <> Some 1 then reject "non-affine";
          if not (Expr.equal rg.Subset.start rg.Subset.stop) then
            reject "non-affine";
          let dp_const, dp_coefs = decompose ~params ~comp rg.Subset.start in
          { dp_const; dp_coefs })
        sub
    in
    { ap_tens = tens; ap_dims = Array.of_list dims }
  end

(* --- typed scalar expressions ------------------------------------------- *)

(* The body compiles to representation-typed closures mirroring
   {!Tasklang.Eval} exactly; leaves read the shared launch state (operand
   offsets, parameter values, launch constants) the loop drivers keep
   current. *)
type texpr =
  | TF of (unit -> float)
  | TI of (unit -> int)
  | TB of (unit -> bool)

let to_f = function
  | TF f -> f
  | TI f -> fun () -> float_of_int (f ())
  | TB f -> fun () -> if f () then 1. else 0.

let to_i = function
  | TI f -> f
  | TF f -> fun () -> int_of_float (f ())
  | TB f -> fun () -> if f () then 1 else 0

let to_b = function
  | TB f -> f
  | TI f -> fun () -> f () <> 0
  | TF f -> fun () -> f () <> 0.

let arith fop iop a b =
  match a, b with
  | TI x, TI y -> TI (fun () -> iop (x ()) (y ()))
  | _ ->
    let x = to_f a and y = to_f b in
    TF (fun () -> fop (x ()) (y ()))

let cmp op a b =
  let x = to_f a and y = to_f b in
  TB (fun () -> op (x ()) (y ()))

let veq a b =
  match a, b with
  | TF x, TF y -> TB (fun () -> Float.equal (x ()) (y ()))
  | TI x, TI y -> TB (fun () -> Int.equal (x ()) (y ()))
  | TB x, TB y -> TB (fun () -> Bool.equal (x ()) (y ()))
  | _ ->
    let x = to_f a and y = to_f b in
    TB (fun () -> Float.equal (x ()) (y ()))

(* [leaf_of] resolves a body name in the closure engine's order: input
   connectors, then scope parameters, then compiled symbols. *)
let rec tcomp ~leaf_of (e : Ast.expr) : texpr =
  let go = tcomp ~leaf_of in
  match e with
  | Ast.Float_lit x -> TF (fun () -> x)
  | Ast.Int_lit n -> TI (fun () -> n)
  | Ast.Bool_lit b -> TB (fun () -> b)
  | Ast.Var x -> leaf_of x
  | Ast.Index _ -> reject "body-expr" (* Bodyclass already refused these *)
  | Ast.Unop (op, a) -> (
    let ta = go a in
    match op with
    | Ast.Neg -> (
      match ta with
      | TI x -> TI (fun () -> -x ())
      | _ ->
        let x = to_f ta in
        TF (fun () -> -.x ()))
    | Ast.Not ->
      let x = to_b ta in
      TB (fun () -> not (x ()))
    | Ast.Sqrt ->
      let x = to_f ta in
      TF (fun () -> sqrt (x ()))
    | Ast.Exp ->
      let x = to_f ta in
      TF (fun () -> exp (x ()))
    | Ast.Log ->
      let x = to_f ta in
      TF (fun () -> log (x ()))
    | Ast.Abs -> (
      match ta with
      | TI x -> TI (fun () -> abs (x ()))
      | _ ->
        let x = to_f ta in
        TF (fun () -> Float.abs (x ())))
    | Ast.Sin ->
      let x = to_f ta in
      TF (fun () -> sin (x ()))
    | Ast.Cos ->
      let x = to_f ta in
      TF (fun () -> cos (x ()))
    | Ast.Floor ->
      let x = to_f ta in
      TI (fun () -> int_of_float (floor (x ()))))
  | Ast.Binop (op, a, b) -> (
    let ta = go a and tb = go b in
    match op with
    | Ast.Add -> arith ( +. ) ( + ) ta tb
    | Ast.Sub -> arith ( -. ) ( - ) ta tb
    | Ast.Mul -> arith ( *. ) ( * ) ta tb
    | Ast.Div -> (
      match ta, tb with
      | TI x, TI _ -> (
        (* integer floor division; the divisor's sign and zero test are
           runtime properties, so only literal divisors kernelize *)
        match b with
        | Ast.Int_lit n when n <> 0 ->
          TI
            (fun () ->
              let v = x () in
              let q = v / n and r = v mod n in
              if r <> 0 && r < 0 <> (n < 0) then q - 1 else q)
        | _ -> reject "body-expr")
      | _ ->
        let x = to_f ta and y = to_f tb in
        TF (fun () -> x () /. y ()))
    | Ast.Mod -> (
      match ta, tb with
      | TI x, TI _ -> (
        match b with
        | Ast.Int_lit n when n <> 0 ->
          TI
            (fun () ->
              let r = x () mod n in
              if r <> 0 && r < 0 <> (n < 0) then r + n else r)
        | _ -> reject "body-expr")
      | _ ->
        let x = to_f ta and y = to_f tb in
        TF (fun () -> Float.rem (x ()) (y ())))
    | Ast.Pow -> (
      match ta, tb with
      | TI x, TI _ -> (
        (* int^int is integral only for non-negative exponents — a
           runtime property unless the exponent is a literal *)
        match b with
        | Ast.Int_lit n when n >= 0 ->
          TI
            (fun () ->
              let rec goe acc b e = if e = 0 then acc else goe (acc * b) b (e - 1) in
              goe 1 (x ()) n)
        | Ast.Int_lit n ->
          TF (fun () -> float_of_int (x ()) ** float_of_int n)
        | _ -> reject "body-expr")
      | _ ->
        let x = to_f ta and y = to_f tb in
        TF (fun () -> x () ** y ()))
    | Ast.Min -> arith Float.min min ta tb
    | Ast.Max -> arith Float.max max ta tb
    | Ast.Lt -> cmp ( < ) ta tb
    | Ast.Le -> cmp ( <= ) ta tb
    | Ast.Gt -> cmp ( > ) ta tb
    | Ast.Ge -> cmp ( >= ) ta tb
    | Ast.Eq -> veq ta tb
    | Ast.Ne -> (
      match veq ta tb with
      | TB f -> TB (fun () -> not (f ()))
      | _ -> assert false)
    | Ast.And ->
      (* both operands evaluate before combining, as in [apply_binop] *)
      let x = to_b ta and y = to_b tb in
      TB
        (fun () ->
          let a = x () in
          let b = y () in
          a && b)
    | Ast.Or ->
      let x = to_b ta and y = to_b tb in
      TB
        (fun () ->
          let a = x () in
          let b = y () in
          a || b))
  | Ast.Cond (c, th, el) -> (
    let cb = to_b (go c) in
    match go th, go el with
    | TF x, TF y -> TF (fun () -> if cb () then x () else y ())
    | TI x, TI y -> TI (fun () -> if cb () then x () else y ())
    | TB x, TB y -> TB (fun () -> if cb () then x () else y ())
    (* branches of different representations produce a runtime-dependent
       value type; leave those to the closure path *)
    | _ -> reject "body-expr")

(* --- recognition --------------------------------------------------------- *)

type leaf = Lten of int | Lpar of int | Lcon of int

(* Specialized loop shapes, detected on the classified body.  Everything
   else with a compilable typed expression runs as [Kexpr]. *)
type kind =
  | Kfill                                   (* launch-constant store *)
  | Kcopy of int                            (* same-representation move *)
  | Kscale of bool * float * int            (* lit-first?, c, x *)
  | Kaxpy of int * float * int * int        (* shape, a, x, y *)
  | Kebinop of Ast.binop * int * int        (* float x op y *)
  | Kebinop_i of Ast.binop * int * int      (* int x op y *)
  | Kcontract of int * int                  (* WCR-sum  c += a*b *)
  | Kssum of float option * bool * int list (* scale, lit-first?, leaves *)
  | Kexpr

let kind_name = function
  | Kfill -> "fill"
  | Kcopy _ -> "copy"
  | Kscale _ -> "scale"
  | Kaxpy _ -> "axpy"
  | Kebinop _ | Kebinop_i _ -> "ebinop"
  | Kcontract _ -> "contract"
  | Kssum _ -> "ssum"
  | Kexpr -> "expr"

(* Distinguish data-dependent subscripts ("indirection") from the other
   body shapes the classifier rejects.  Taint every input connector,
   flow taint through local assignments and For bounds to a fixpoint,
   and report true when any subscript expression — read or write —
   mentions a tainted name.  spmv's [xin[cols[j]]] (the For bounds come
   from the [rows] connector) and histogram's computed bin are
   indirection; an accumulation nest over symbol-bounded For loops is
   not, whatever else the classifier disliked about it. *)
let indirect_subscripts ~inputs (code : Ast.t) =
  let module SS = Set.Make (String) in
  let tainted = ref (SS.of_list inputs) in
  let mentions e =
    List.exists (fun n -> SS.mem n !tainted) (Ast.expr_names [] e)
  in
  let add x changed =
    if SS.mem x !tainted then changed
    else begin
      tainted := SS.add x !tainted;
      true
    end
  in
  let rec flow changed = function
    | Ast.Assign (Ast.Lvar x, e) -> if mentions e then add x changed else changed
    | Ast.Assign (Ast.Lindex _, _) -> changed
    | Ast.If (_, t, f) ->
      List.fold_left flow (List.fold_left flow changed t) f
    | Ast.For (v, lo, hi, body) ->
      let changed =
        if mentions lo || mentions hi then add v changed else changed
      in
      List.fold_left flow changed body
  in
  let rec fixpoint () =
    if List.fold_left flow false code then fixpoint ()
  in
  fixpoint ();
  let subs_tainted es = List.exists mentions es in
  let rec expr_has = function
    | Ast.Float_lit _ | Ast.Int_lit _ | Ast.Bool_lit _ | Ast.Var _ -> false
    | Ast.Index (_, es) -> subs_tainted es || List.exists expr_has es
    | Ast.Unop (_, e) -> expr_has e
    | Ast.Binop (_, a, b) -> expr_has a || expr_has b
    | Ast.Cond (c, a, b) -> expr_has c || expr_has a || expr_has b
  in
  let rec stmt_has = function
    | Ast.Assign (lhs, e) ->
      (match lhs with
      | Ast.Lvar _ -> false
      | Ast.Lindex (_, es) -> subs_tainted es || List.exists expr_has es)
      || expr_has e
    | Ast.If (c, t, f) ->
      expr_has c || List.exists stmt_has t || List.exists stmt_has f
    | Ast.For (_, lo, hi, body) ->
      expr_has lo || expr_has hi || List.exists stmt_has body
  in
  List.exists stmt_has code

let recognize_exn ~env ~st ~entry ~(info : map_info) ~comp : t =
  let params = info.mp_params in
  let nd = List.length params in
  if nd = 0 then reject "no-dims";
  if List.length (List.sort_uniq String.compare params) <> nd then
    reject "shadowed";
  (* the scope body must be exactly one tasklet *)
  let nid, tk =
    let members = State.scope_nodes st entry in
    let parents = State.scope_parents st in
    let direct =
      List.filter
        (fun n ->
          Hashtbl.find parents n = Some entry
          && (match State.node st n with Map_exit -> false | _ -> true))
        members
    in
    match direct with
    | [ n ] -> (
      match State.node st n with
      | Tasklet t -> (n, t)
      | _ -> reject "body-shape")
    | _ -> reject "body-shape"
  in
  let code =
    match tk.t_code with Code c -> c | External _ -> reject "external"
  in
  (* a timed body is one tasklet span per launch, counting its executions *)
  let collector = env.Reference.collector in
  let timed = Obs.Collect.should_time collector ~flag:tk.t_instrument in
  (* connected memlets, in the closure engine's binding order *)
  let ins =
    List.filter_map
      (fun (e : edge) ->
        match e.e_dst_conn, e.e_memlet with
        | Some c, Some m -> Some (c, m)
        | _ -> None)
      (State.in_edges st nid)
  in
  let outs =
    List.filter_map
      (fun (e : edge) ->
        match e.e_src_conn, e.e_memlet with
        | Some c, Some m -> Some (c, m)
        | _ -> None)
      (State.out_edges st nid)
  in
  let body =
    match Tasklang.Bodyclass.classify code with
    | Ok b -> b
    | Error r ->
      if indirect_subscripts ~inputs:(List.map fst ins) code then
        reject "non-affine-indirect"
      else reject r
  in
  let rec dup = function
    | [] -> false
    | (c, _) :: tl -> List.mem_assoc c tl || dup tl
  in
  if dup ins then reject "dup-conn";
  let oconn, om =
    match outs with
    | [ (c, m) ] when c = body.Tasklang.Bodyclass.b_out && not (List.mem_assoc c ins)
      -> (c, m)
    | _ -> reject "out-mismatch"
  in
  let conn_rank conns name =
    match List.find_opt (fun (k : conn) -> k.k_name = name) conns with
    | Some (k : conn) -> k.k_rank
    | None -> reject "connector-rank"
  in
  List.iter
    (fun (c, _) ->
      if conn_rank tk.t_inputs c <> 0 then reject "connector-rank")
    ins;
  if conn_rank tk.t_outputs oconn <> 0 then reject "connector-rank";
  let tens_of name =
    match Hashtbl.find_opt env.Reference.containers name with
    | Some (Reference.Tens t) -> t
    | Some (Reference.Strm _ | Reference.Chan _) -> reject "stream"
    | None -> reject "container"
  in
  let wcr =
    match om.m_wcr with
    | None -> None
    | Some (Wcr_custom _) -> reject "wcr"
    | Some w -> Some w
  in
  let in_args =
    Array.of_list
      (List.map
         (fun (c, m) ->
           (c, affine_plan ~params ~comp (tens_of m.m_data) m.m_subset))
         ins)
  in
  let nin = Array.length in_args in
  let out_arg = affine_plan ~params ~comp (tens_of om.m_data) om.m_subset in
  (* launch state the loop drivers keep current: operand offsets (output
     last), map-parameter values, launch-evaluated symbol constants *)
  let offs = Array.make (nin + 1) 0 in
  let pcell = Array.make nd 0 in
  let consts = ref [] and n_consts = ref 0 in
  let param_ix p =
    let rec go i = function
      | [] -> None
      | q :: _ when q = p -> Some i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 params
  in
  let leaves =
    List.map
      (fun name ->
        let rec arg_ix j =
          if j >= nin then None
          else if fst in_args.(j) = name then Some j
          else arg_ix (j + 1)
        in
        let leaf =
          match arg_ix 0 with
          | Some j -> Lten j
          | None -> (
            match param_ix name with
            | Some d -> Lpar d
            | None -> (
              match comp (Expr.sym name) with
              | Some f ->
                let k = !n_consts in
                incr n_consts;
                consts := f :: !consts;
                Lcon k
              | None -> reject "body-expr"))
        in
        (name, leaf))
      body.Tasklang.Bodyclass.b_reads
  in
  let cfs = Array.of_list (List.rev !consts) in
  let ccell = Array.make (max 1 !n_consts) 0 in
  let uses_params =
    List.exists (fun (_, l) -> match l with Lpar _ -> true | _ -> false) leaves
  in
  let leaf_of name =
    match List.assoc name leaves with
    | Lten j -> (
      match (snd in_args.(j)).ap_tens.Tensor.buf with
      | Tensor.Fbuf fb -> TF (fun () -> fb.(offs.(j)))
      | Tensor.Ibuf ib -> TI (fun () -> ib.(offs.(j))))
    | Lpar d -> TI (fun () -> pcell.(d))
    | Lcon k -> TI (fun () -> ccell.(k))
  in
  let res = tcomp ~leaf_of body.Tasklang.Bodyclass.b_expr in
  (* the single write per iteration, mirroring [Plan.view_set] + [Wcr.apply] *)
  let write : int -> unit =
    match out_arg.ap_tens.Tensor.buf, wcr with
    | Tensor.Fbuf ob, None ->
      let rf = to_f res in
      fun o -> ob.(o) <- rf ()
    | Tensor.Fbuf ob, Some w -> (
      let rf = to_f res in
      match w with
      | Wcr_sum -> fun o -> ob.(o) <- ob.(o) +. rf ()
      | Wcr_prod -> fun o -> ob.(o) <- ob.(o) *. rf ()
      | Wcr_min -> fun o -> ob.(o) <- Float.min ob.(o) (rf ())
      | Wcr_max -> fun o -> ob.(o) <- Float.max ob.(o) (rf ())
      | Wcr_custom _ -> assert false)
    | Tensor.Ibuf ob, None ->
      let ri = to_i res in
      fun o -> ob.(o) <- ri ()
    | Tensor.Ibuf ob, Some w -> (
      match res with
      | TI ri -> (
        match w with
        | Wcr_sum -> fun o -> ob.(o) <- ob.(o) + ri ()
        | Wcr_prod -> fun o -> ob.(o) <- ob.(o) * ri ()
        | Wcr_min -> fun o -> ob.(o) <- min ob.(o) (ri ())
        | Wcr_max -> fun o -> ob.(o) <- max ob.(o) (ri ())
        | Wcr_custom _ -> assert false)
      | _ -> (
        (* mixed representations resolve through floats, then narrow on
           store — exactly [Wcr.apply] followed by [lin_set] *)
        let rf = to_f res in
        match w with
        | Wcr_sum ->
          fun o -> ob.(o) <- int_of_float (float_of_int ob.(o) +. rf ())
        | Wcr_prod ->
          fun o -> ob.(o) <- int_of_float (float_of_int ob.(o) *. rf ())
        | Wcr_min ->
          fun o ->
            ob.(o) <- int_of_float (Float.min (float_of_int ob.(o)) (rf ()))
        | Wcr_max ->
          fun o ->
            ob.(o) <- int_of_float (Float.max (float_of_int ob.(o)) (rf ()))
        | Wcr_custom _ -> assert false))
  in
  (* ---- kind detection over the resolved body --------------------------- *)
  let fleaf = function
    | Ast.Var x -> (
      match List.assoc_opt x leaves with
      | Some (Lten j) -> (
        match (snd in_args.(j)).ap_tens.Tensor.buf with
        | Tensor.Fbuf _ -> Some j
        | Tensor.Ibuf _ -> None)
      | _ -> None)
    | _ -> None
  in
  let ileaf = function
    | Ast.Var x -> (
      match List.assoc_opt x leaves with
      | Some (Lten j) -> (
        match (snd in_args.(j)).ap_tens.Tensor.buf with
        | Tensor.Ibuf _ -> Some j
        | Tensor.Fbuf _ -> None)
      | _ -> None)
    | _ -> None
  in
  let out_float =
    match out_arg.ap_tens.Tensor.buf with
    | Tensor.Fbuf _ -> true
    | Tensor.Ibuf _ -> false
  in
  let all_const =
    List.for_all (fun (_, l) -> match l with Lcon _ -> true | _ -> false) leaves
  in
  let rec flat e acc =
    match e with Ast.Binop (Ast.Add, a, b) -> flat a (b :: acc) | e -> e :: acc
  in
  let chain_leaves es =
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | e :: tl -> ( match fleaf e with Some j -> go (j :: acc) tl | None -> None)
    in
    go [] es
  in
  let bexpr = body.Tasklang.Bodyclass.b_expr in
  let kind =
    if all_const && wcr = None then Kfill
    else
      match wcr with
      | Some Wcr_sum when out_float -> (
        match bexpr with
        | Ast.Binop (Ast.Mul, a, b) -> (
          match fleaf a, fleaf b with
          | Some ja, Some jb -> Kcontract (ja, jb)
          | _ -> Kexpr)
        | _ -> Kexpr)
      | Some _ -> Kexpr
      | None -> (
        match bexpr with
        | Ast.Var _ -> (
          match fleaf bexpr, ileaf bexpr with
          | Some j, _ when out_float -> Kcopy j
          | _, Some j when not out_float -> Kcopy j
          | _ -> Kexpr)
        | Ast.Binop (Ast.Mul, Ast.Float_lit c, x) when out_float -> (
          match fleaf x with
          | Some j -> Kscale (true, c, j)
          | None -> (
            match chain_leaves (flat x []) with
            | Some js when List.length js >= 3 -> Kssum (Some c, true, js)
            | _ -> Kexpr))
        | Ast.Binop (Ast.Mul, x, Ast.Float_lit c) when out_float -> (
          match fleaf x with
          | Some j -> Kscale (false, c, j)
          | None -> (
            match chain_leaves (flat x []) with
            | Some js when List.length js >= 3 -> Kssum (Some c, false, js)
            | _ -> Kexpr))
        | Ast.Binop (Ast.Add, Ast.Binop (Ast.Mul, Ast.Float_lit a, x), y)
          when out_float -> (
          match fleaf x, fleaf y with
          | Some jx, Some jy -> Kaxpy (0, a, jx, jy)
          | _ -> Kexpr)
        | Ast.Binop (Ast.Add, Ast.Binop (Ast.Mul, x, Ast.Float_lit a), y)
          when out_float -> (
          match fleaf x, fleaf y with
          | Some jx, Some jy -> Kaxpy (1, a, jx, jy)
          | _ -> Kexpr)
        | Ast.Binop (Ast.Add, y, Ast.Binop (Ast.Mul, Ast.Float_lit a, x))
          when out_float -> (
          match fleaf x, fleaf y with
          | Some jx, Some jy -> Kaxpy (2, a, jx, jy)
          | _ -> Kexpr)
        | Ast.Binop (Ast.Add, y, Ast.Binop (Ast.Mul, x, Ast.Float_lit a))
          when out_float -> (
          match fleaf x, fleaf y with
          | Some jx, Some jy -> Kaxpy (3, a, jx, jy)
          | _ -> Kexpr)
        | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Min | Ast.Max) as op, x, y)
          when out_float
               && fleaf x <> None && fleaf y <> None ->
          Kebinop (op, Option.get (fleaf x), Option.get (fleaf y))
        | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Min | Ast.Max) as op, x, y)
          when (not out_float)
               && ileaf x <> None && ileaf y <> None ->
          Kebinop_i (op, Option.get (ileaf x), Option.get (ileaf y))
        | Ast.Binop (Ast.Add, _, _) when out_float -> (
          match chain_leaves (flat bexpr []) with
          | Some js when List.length js >= 3 -> Kssum (None, true, js)
          | _ -> Kexpr)
        | _ -> Kexpr)
  in
  (* ---- detection above never rejects; build the launch entry ----------- *)
  let trips = Array.make nd 0
  and los = Array.make nd 0
  and steps = Array.make nd 0 in
  let es = Array.init (nin + 1) (fun _ -> Array.make nd 0) in
  let arg_plans = Array.init (nin + 1) (fun j ->
      if j < nin then snd in_args.(j) else out_arg)
  in
  let last = nd - 1 in
  let fbuf j =
    match arg_plans.(j).ap_tens.Tensor.buf with
    | Tensor.Fbuf b -> b
    | Tensor.Ibuf _ -> assert false
  in
  let ibuf j =
    match arg_plans.(j).ap_tens.Tensor.buf with
    | Tensor.Ibuf b -> b
    | Tensor.Fbuf _ -> assert false
  in
  let out_t = out_arg.ap_tens in
  let shares j = Tensor.shares_buffer out_t arg_plans.(j).ap_tens in
  (* per-kind innermost row; reads the launch state, must leave [offs]
     untouched.  Buffer accesses are unchecked — the launch pre-check
     proved the whole box in range. *)
  let inner : unit -> unit =
    match kind with
    | Kfill -> (
      match out_arg.ap_tens.Tensor.buf with
      | Tensor.Fbuf ob ->
        let rf = to_f res in
        fun () ->
          let v = rf () in
          let o = ref offs.(nin) and e = es.(nin).(last) in
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o v;
            o := !o + e
          done
      | Tensor.Ibuf ob ->
        let ri = to_i res in
        fun () ->
          let v = ri () in
          let o = ref offs.(nin) and e = es.(nin).(last) in
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o v;
            o := !o + e
          done)
    | Kcopy j -> (
      let overlap =
        Tensor.overlapping out_t arg_plans.(j).ap_tens
      in
      match out_arg.ap_tens.Tensor.buf with
      | Tensor.Fbuf ob ->
        let sb = fbuf j in
        fun () ->
          let n = trips.(last) in
          let eo = es.(nin).(last) and ei = es.(j).(last) in
          if eo = 1 && ei = 1 && not overlap then
            Array.blit sb offs.(j) ob offs.(nin) n
          else begin
            let o = ref offs.(nin) and s = ref offs.(j) in
            for _ = 1 to n do
              Array.unsafe_set ob !o (Array.unsafe_get sb !s);
              o := !o + eo;
              s := !s + ei
            done
          end
      | Tensor.Ibuf ob ->
        let sb = ibuf j in
        fun () ->
          let n = trips.(last) in
          let eo = es.(nin).(last) and ei = es.(j).(last) in
          if eo = 1 && ei = 1 && not overlap then
            Array.blit sb offs.(j) ob offs.(nin) n
          else begin
            let o = ref offs.(nin) and s = ref offs.(j) in
            for _ = 1 to n do
              Array.unsafe_set ob !o (Array.unsafe_get sb !s);
              o := !o + eo;
              s := !s + ei
            done
          end)
    | Kscale (lit_first, c, j) ->
      let ob = fbuf nin and xb = fbuf j in
      fun () ->
        let eo = es.(nin).(last) and ex = es.(j).(last) in
        let o = ref offs.(nin) and x = ref offs.(j) in
        if lit_first then
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o (c *. Array.unsafe_get xb !x);
            o := !o + eo;
            x := !x + ex
          done
        else
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o (Array.unsafe_get xb !x *. c);
            o := !o + eo;
            x := !x + ex
          done
    | Kaxpy (shape, a, jx, jy) ->
      let ob = fbuf nin and xb = fbuf jx and yb = fbuf jy in
      fun () ->
        let eo = es.(nin).(last)
        and ex = es.(jx).(last)
        and ey = es.(jy).(last) in
        let o = ref offs.(nin) and x = ref offs.(jx) and y = ref offs.(jy) in
        (match shape with
        | 0 ->
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o
              ((a *. Array.unsafe_get xb !x) +. Array.unsafe_get yb !y);
            o := !o + eo; x := !x + ex; y := !y + ey
          done
        | 1 ->
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o
              ((Array.unsafe_get xb !x *. a) +. Array.unsafe_get yb !y);
            o := !o + eo; x := !x + ex; y := !y + ey
          done
        | 2 ->
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o
              (Array.unsafe_get yb !y +. (a *. Array.unsafe_get xb !x));
            o := !o + eo; x := !x + ex; y := !y + ey
          done
        | _ ->
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o
              (Array.unsafe_get yb !y +. (Array.unsafe_get xb !x *. a));
            o := !o + eo; x := !x + ex; y := !y + ey
          done)
    | Kebinop (op, jx, jy) ->
      let ob = fbuf nin and xb = fbuf jx and yb = fbuf jy in
      let loop f () =
        let eo = es.(nin).(last)
        and ex = es.(jx).(last)
        and ey = es.(jy).(last) in
        let o = ref offs.(nin) and x = ref offs.(jx) and y = ref offs.(jy) in
        for _ = 1 to trips.(last) do
          Array.unsafe_set ob !o
            (f (Array.unsafe_get xb !x) (Array.unsafe_get yb !y));
          o := !o + eo; x := !x + ex; y := !y + ey
        done
      in
      (match op with
      | Ast.Add ->
        fun () ->
          let eo = es.(nin).(last)
          and ex = es.(jx).(last)
          and ey = es.(jy).(last) in
          let o = ref offs.(nin) and x = ref offs.(jx) and y = ref offs.(jy) in
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o
              (Array.unsafe_get xb !x +. Array.unsafe_get yb !y);
            o := !o + eo; x := !x + ex; y := !y + ey
          done
      | Ast.Mul ->
        fun () ->
          let eo = es.(nin).(last)
          and ex = es.(jx).(last)
          and ey = es.(jy).(last) in
          let o = ref offs.(nin) and x = ref offs.(jx) and y = ref offs.(jy) in
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o
              (Array.unsafe_get xb !x *. Array.unsafe_get yb !y);
            o := !o + eo; x := !x + ex; y := !y + ey
          done
      | Ast.Sub -> loop ( -. )
      | Ast.Div -> loop ( /. )
      | Ast.Min -> loop Float.min
      | Ast.Max -> loop Float.max
      | _ -> assert false)
    | Kebinop_i (op, jx, jy) ->
      let ob = ibuf nin and xb = ibuf jx and yb = ibuf jy in
      let f =
        match op with
        | Ast.Add -> ( + )
        | Ast.Sub -> ( - )
        | Ast.Mul -> ( * )
        | Ast.Min -> min
        | Ast.Max -> max
        | _ -> assert false
      in
      fun () ->
        let eo = es.(nin).(last)
        and ex = es.(jx).(last)
        and ey = es.(jy).(last) in
        let o = ref offs.(nin) and x = ref offs.(jx) and y = ref offs.(jy) in
        for _ = 1 to trips.(last) do
          Array.unsafe_set ob !o
            (f (Array.unsafe_get xb !x) (Array.unsafe_get yb !y));
          o := !o + eo; x := !x + ex; y := !y + ey
        done
    | Kcontract (ja, jb) ->
      let cb = fbuf nin and ab = fbuf ja and bb = fbuf jb in
      (* accumulating in a register changes no addition order, but it
         delays the store — only safe when the output cell cannot be
         read back through an input alias mid-row *)
      let reg_ok = (not (shares ja)) && not (shares jb) in
      fun () ->
        let ec = es.(nin).(last)
        and ea = es.(ja).(last)
        and eb = es.(jb).(last) in
        let oa = ref offs.(ja) and ob_ = ref offs.(jb) in
        if ec = 0 && reg_ok then begin
          let oc = offs.(nin) in
          let acc = ref (Array.unsafe_get cb oc) in
          for _ = 1 to trips.(last) do
            acc := !acc +. (Array.unsafe_get ab !oa *. Array.unsafe_get bb !ob_);
            oa := !oa + ea;
            ob_ := !ob_ + eb
          done;
          Array.unsafe_set cb oc !acc
        end
        else begin
          let oc = ref offs.(nin) in
          for _ = 1 to trips.(last) do
            Array.unsafe_set cb !oc
              (Array.unsafe_get cb !oc
              +. (Array.unsafe_get ab !oa *. Array.unsafe_get bb !ob_));
            oc := !oc + ec;
            oa := !oa + ea;
            ob_ := !ob_ + eb
          done
        end
    | Kssum (scale, lit_first, js) ->
      let js = Array.of_list js in
      let nl = Array.length js in
      let bufs = Array.map fbuf js in
      let ob = fbuf nin in
      let lofs = Array.make nl 0 and les = Array.make nl 0 in
      let has_scale, c =
        match scale with None -> (false, 0.) | Some c -> (true, c)
      in
      fun () ->
        for i = 0 to nl - 1 do
          lofs.(i) <- offs.(js.(i));
          les.(i) <- es.(js.(i)).(last)
        done;
        let o = ref offs.(nin) and eo = es.(nin).(last) in
        for _ = 1 to trips.(last) do
          let s = ref (Array.unsafe_get bufs.(0) lofs.(0)) in
          for i = 1 to nl - 1 do
            s := !s +. Array.unsafe_get bufs.(i) lofs.(i)
          done;
          let v =
            if has_scale then if lit_first then c *. !s else !s *. c else !s
          in
          Array.unsafe_set ob !o v;
          o := !o + eo;
          for i = 0 to nl - 1 do
            lofs.(i) <- lofs.(i) + les.(i)
          done
        done
    | Kexpr ->
      (* generic compiled expression: leaves read [offs]/[pcell]/[ccell];
         checked accesses as defense in depth (still far cheaper than the
         closure path's per-iteration view refreshes) *)
      fun () ->
        let n = trips.(last) in
        let lo_l = los.(last) and st_l = steps.(last) in
        for k = 0 to n - 1 do
          if uses_params then pcell.(last) <- lo_l + (k * st_l);
          write offs.(nin);
          for j = 0 to nin do
            offs.(j) <- offs.(j) + es.(j).(last)
          done
        done;
        for j = 0 to nin do
          offs.(j) <- offs.(j) - (n * es.(j).(last))
        done
  in
  let track_params = match kind with Kexpr -> uses_params | _ -> false in
  let stats = env.Reference.stats in
  let n_moved_per = nin + 1 in
  let has_wcr = wcr <> None in
  let k_run ~frame ~bounds ~lo ~hi ~step ~slow =
    if lo > hi then ()
    else begin
      trips.(0) <- ((hi - lo) / step) + 1;
      los.(0) <- lo;
      steps.(0) <- step;
      let total = ref trips.(0) and empty = ref false in
      for d = 1 to nd - 1 do
        let l = bounds.(3 * d)
        and h = bounds.((3 * d) + 1)
        and s = bounds.((3 * d) + 2) in
        if l > h then empty := true
        else begin
          trips.(d) <- ((h - l) / s) + 1;
          los.(d) <- l;
          steps.(d) <- s;
          total := !total * trips.(d)
        end
      done;
      if not !empty then begin
        (* operand bases, element strides, and the corner bounds check:
           min/max of [const + sum coef_d * i_d] over the box *)
        let ok = ref true in
        for j = 0 to nin do
          let ap = arg_plans.(j) in
          let t = ap.ap_tens in
          let str = t.Tensor.strides in
          let esj = es.(j) in
          Array.fill esj 0 nd 0;
          let base = ref t.Tensor.offset in
          Array.iteri
            (fun dim dp ->
              let v0 = ref (dp.dp_const frame) in
              let dmin = ref 0 and dmax = ref 0 in
              Array.iteri
                (fun d cf ->
                  match cf with
                  | None -> ()
                  | Some f ->
                    let k = f frame in
                    v0 := !v0 + (k * los.(d));
                    let delta = k * steps.(d) * (trips.(d) - 1) in
                    if delta < 0 then dmin := !dmin + delta
                    else dmax := !dmax + delta;
                    esj.(d) <- esj.(d) + (k * steps.(d) * str.(dim)))
                dp.dp_coefs;
              if !v0 + !dmin < 0 || !v0 + !dmax >= t.Tensor.shape.(dim) then
                ok := false;
              base := !base + (!v0 * str.(dim)))
            ap.ap_dims;
          offs.(j) <- !base
        done;
        if not !ok then slow ()
        else begin
          for k = 0 to Array.length cfs - 1 do
            ccell.(k) <- cfs.(k) frame
          done;
          stats.Reference.map_iterations <-
            stats.Reference.map_iterations + !total;
          stats.Reference.tasklet_execs <-
            stats.Reference.tasklet_execs + !total;
          stats.Reference.elements_moved <-
            stats.Reference.elements_moved + (!total * n_moved_per);
          if has_wcr then
            stats.Reference.wcr_writes <- stats.Reference.wcr_writes + !total;
          (* outer dimensions advance the shared offsets; [inner] runs
             the innermost row *)
          let rec go d =
            if d = last then inner ()
            else begin
              let n = trips.(d) in
              let lo_d = los.(d) and st_d = steps.(d) in
              for k = 0 to n - 1 do
                if track_params then pcell.(d) <- lo_d + (k * st_d);
                go (d + 1);
                for j = 0 to nin do
                  offs.(j) <- offs.(j) + es.(j).(d)
                done
              done;
              for j = 0 to nin do
                offs.(j) <- offs.(j) - (n * es.(j).(d))
              done
            end
          in
          if not timed then go 0
          else begin
            let sp =
              Obs.Collect.enter collector Obs.Collect.Tasklet tk.t_name
            in
            go 0;
            Obs.Collect.exit collector sp;
            sp.sp_count <- sp.sp_count + !total - 1
          end
        end
      end
    end
  in
  { k_name = kind_name kind; k_run }

let recognize ~env ~st ~entry ~info ~comp =
  match recognize_exn ~env ~st ~entry ~info ~comp with
  | k -> Ok k
  | exception Reject r -> Error r
