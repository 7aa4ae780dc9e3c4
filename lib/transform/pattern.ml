(* Subgraph pattern matching for transformations (paper §4.1: "to find
   matching subgraphs in SDFGs, we use the VF2 algorithm to find
   isomorphic subgraphs").

   A pattern is a small graph of role-named nodes with predicates, plus
   edge constraints between roles.  [match_state] enumerates injective
   assignments role -> node id such that every pattern edge is realized by
   at least one state edge satisfying its predicate — a VF2-style
   backtracking search ordered by pattern connectivity. *)

open Sdfg_ir
open Defs

type pnode = {
  p_role : string;
  p_pred : State.t -> int -> bool;
}

type pedge = {
  pe_src : string;
  pe_dst : string;
  pe_pred : State.t -> edge -> bool;
}

type t = {
  pat_nodes : pnode list;
  pat_edges : pedge list;
}

type assignment = (string * int) list

(* --- node predicates --------------------------------------------------- *)

let any_node _ _ = true

let is_access st nid =
  match State.node st nid with Access _ -> true | _ -> false

let any_edge _ _ = true

(* --- constructors -------------------------------------------------------- *)

let node ?(pred = any_node) role = { p_role = role; p_pred = pred }

let edge ?(pred = any_edge) src dst =
  { pe_src = src; pe_dst = dst; pe_pred = pred }

(* A path graph, as used by RedundantArray (Appendix D:
   "node_path_graph"). *)
let path_graph (nodes : pnode list) : t =
  let rec edges = function
    | a :: (b :: _ as rest) -> edge a.p_role b.p_role :: edges rest
    | _ -> []
  in
  { pat_nodes = nodes; pat_edges = edges nodes }

let make nodes edges = { pat_nodes = nodes; pat_edges = edges }

(* --- matching -------------------------------------------------------------- *)

let match_state (pat : t) (st : State.t) : assignment list =
  let all_nodes = State.node_ids st in
  (* Order roles so each (after the first) is connected to an already
     placed role when possible — prunes the search like VF2's frontier. *)
  let order =
    let placed = ref [] in
    let remaining = ref pat.pat_nodes in
    let connected r =
      List.exists
        (fun e ->
          (e.pe_src = r.p_role && List.mem e.pe_dst !placed)
          || (e.pe_dst = r.p_role && List.mem e.pe_src !placed))
        pat.pat_edges
    in
    let out = ref [] in
    while !remaining <> [] do
      let next =
        match List.find_opt connected !remaining with
        | Some r -> r
        | None -> List.hd !remaining
      in
      remaining := List.filter (fun r -> r.p_role <> next.p_role) !remaining;
      placed := next.p_role :: !placed;
      out := next :: !out
    done;
    List.rev !out
  in
  let results = ref [] in
  let rec search (assigned : assignment) = function
    | [] ->
      (* all roles placed; all edges were checked incrementally *)
      results := List.rev assigned :: !results
    | (r : pnode) :: rest ->
      List.iter
        (fun nid ->
          if
            (not (List.exists (fun (_, n) -> n = nid) assigned))
            && r.p_pred st nid
          then begin
            (* check pattern edges whose endpoints are now both placed *)
            let assigned' = (r.p_role, nid) :: assigned in
            let ok =
              List.for_all
                (fun pe ->
                  match
                    List.assoc_opt pe.pe_src assigned',
                    List.assoc_opt pe.pe_dst assigned'
                  with
                  | Some s, Some d ->
                    List.exists
                      (fun (e : edge) -> e.e_dst = d && pe.pe_pred st e)
                      (State.out_edges st s)
                  | _ -> true)
                (List.filter
                   (fun pe -> pe.pe_src = r.p_role || pe.pe_dst = r.p_role)
                   pat.pat_edges)
            in
            if ok then search assigned' rest
          end)
        all_nodes
  in
  search [] order;
  (* Deterministic order: sort matches by the node ids they bind. *)
  List.sort
    (fun a b -> List.compare (fun (_, x) (_, y) -> Int.compare x y) a b)
    !results

(* Match in every state of an SDFG; results carry the state id. *)
let match_sdfg (pat : t) (g : Sdfg.t) : (int * assignment) list =
  Sdfg.states g
  |> List.concat_map (fun st ->
         List.map (fun a -> (State.id st, a)) (match_state pat st))
