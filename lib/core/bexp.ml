(* Boolean conditions guarding inter-state transitions (paper §3.4).

   Conditions compare symbolic integer expressions; at runtime the symbol
   environment also exposes scalar container values, enabling
   data-dependent control flow (Fig. 10a). *)

module Expr = Symbolic.Expr
open Defs

type t = bexp

let true_ = Btrue
let and_ a b = Band (a, b)
let cmp op a b = Bcmp (op, a, b)

let ne a b = Bcmp (Cne, a, b)
let lt a b = Bcmp (Clt, a, b)
let le a b = Bcmp (Cle, a, b)
let gt a b = Bcmp (Cgt, a, b)
let ge a b = Bcmp (Cge, a, b)

let eval_cmp op a b =
  match op with
  | Ceq -> a = b
  | Cne -> a <> b
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b

let rec eval env (b : t) : bool =
  match b with
  | Btrue -> true
  | Bfalse -> false
  | Bnot b -> not (eval env b)
  | Band (x, y) -> eval env x && eval env y
  | Bor (x, y) -> eval env x || eval env y
  | Bcmp (op, a, b) -> eval_cmp op (Expr.eval env a) (Expr.eval env b)

let rec free_syms_acc acc = function
  | Btrue | Bfalse -> acc
  | Bnot b -> free_syms_acc acc b
  | Band (x, y) | Bor (x, y) -> free_syms_acc (free_syms_acc acc x) y
  | Bcmp (_, a, b) -> Expr.free_syms a @ Expr.free_syms b @ acc

let free_syms b = List.sort_uniq String.compare (free_syms_acc [] b)

let rec subst f = function
  | Btrue -> Btrue
  | Bfalse -> Bfalse
  | Bnot b -> Bnot (subst f b)
  | Band (x, y) -> Band (subst f x, subst f y)
  | Bor (x, y) -> Bor (subst f x, subst f y)
  | Bcmp (op, a, b) -> Bcmp (op, Expr.subst f a, Expr.subst f b)

let negate b = Bnot b

let cmp_name = function
  | Ceq -> "==" | Cne -> "!=" | Clt -> "<" | Cle -> "<=" | Cgt -> ">"
  | Cge -> ">="

let rec pp ppf = function
  | Btrue -> Fmt.string ppf "true"
  | Bfalse -> Fmt.string ppf "false"
  | Bnot b -> Fmt.pf ppf "!(%a)" pp b
  | Band (x, y) -> Fmt.pf ppf "(%a && %a)" pp x pp y
  | Bor (x, y) -> Fmt.pf ppf "(%a || %a)" pp x pp y
  | Bcmp (op, a, b) ->
    Fmt.pf ppf "%a %s %a" Expr.pp a (cmp_name op) Expr.pp b

let to_string b = Fmt.str "%a" pp b

(* C source for the generated state machine. *)
let rec to_c = function
  | Btrue -> "true"
  | Bfalse -> "false"
  | Bnot b -> Fmt.str "!(%s)" (to_c b)
  | Band (x, y) -> Fmt.str "(%s && %s)" (to_c x) (to_c y)
  | Bor (x, y) -> Fmt.str "(%s || %s)" (to_c x) (to_c y)
  | Bcmp (op, a, b) ->
    Fmt.str "(%s %s %s)" (Expr.to_string a) (cmp_name op) (Expr.to_string b)
