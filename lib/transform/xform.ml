(* The transformation interface (paper §4.1).

   A transformation is a named "find and replace" operation: [find]
   enumerates candidate subgraph matches (pattern matching plus the
   programmatic [can_be_applied]-style checks), [apply] rewrites the SDFG
   in place.  Names are how DIODE-style interactive tools and the
   optimization-chain files ("optimization version control", §4.2) refer
   to transformations; {!Std} resolves them against the standard
   library. *)

open Sdfg_ir

type candidate = {
  c_state : int;                   (* state the match lives in *)
  c_nodes : (string * int) list;   (* pattern role -> node id *)
  c_note : string;                 (* human-readable description *)
}

let candidate ?(note = "") ~state nodes =
  { c_state = state; c_nodes = nodes; c_note = note }

type t = {
  x_name : string;
  x_description : string;
  x_find : Sdfg.t -> candidate list;
  x_apply : Sdfg.t -> candidate -> unit;
}

exception Not_applicable = Sdfg_ir.Errors.Not_applicable

let not_applicable fmt = Fmt.kstr (fun s -> raise (Not_applicable s)) fmt

let make ~name ~description ~find ~apply =
  { x_name = name; x_description = description; x_find = find; x_apply = apply }

(* --- application ------------------------------------------------------------- *)

(* Apply a transformation to one candidate and re-validate; propagation
   keeps outer memlets consistent with the rewritten dataflow. *)
let apply ?(validate = true) (g : Sdfg.t) (x : t) (c : candidate) =
  x.x_apply g c;
  Propagate.propagate g;
  if validate then Validate.check g

(* Apply to the first candidate found.  Raises {!Not_applicable} if the
   pattern does not occur. *)
let apply_first_exn ?(validate = true) (g : Sdfg.t) (x : t) =
  match x.x_find g with
  | [] -> not_applicable "%s: no matching subgraph" x.x_name
  | c :: _ -> apply ~validate g x c

(* Apply a transformation repeatedly until it no longer matches (bounded,
   to guard against non-terminating rewrite loops). *)
let apply_until_fixpoint_exn ?(validate = true) ?(max_iter = 128) g (x : t) =
  let rec go i =
    if i >= max_iter then ()
    else
      match x.x_find g with
      | [] -> ()
      | c :: _ ->
        apply ~validate g x c;
        go (i + 1)
  in
  go 0

(* An optimization chain: a named sequence of transformation applications,
   the file format behind "save transformation chains to files" (§4.2). *)
type chain_step = { cs_xform : string; cs_index : int }

(* The result-returning surface: callers (the optimizer, the CLI, the
   session) drive control flow on values rather than by catching
   {!Not_applicable}. *)
let as_result f =
  match f () with () -> Ok () | exception Not_applicable msg -> Error msg

let apply_first ?validate g x =
  as_result (fun () -> apply_first_exn ?validate g x)

let apply_until_fixpoint ?validate ?max_iter g x =
  as_result (fun () -> apply_until_fixpoint_exn ?validate ?max_iter g x)

let chain_to_string steps =
  String.concat "\n"
    (List.map (fun s -> Fmt.str "%s %d" s.cs_xform s.cs_index) steps)

let chain_of_string text =
  text |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line with
           | [ name ] -> Some { cs_xform = name; cs_index = 0 }
           | [ name; idx ] -> (
             match int_of_string_opt idx with
             | Some i -> Some { cs_xform = name; cs_index = i }
             | None -> not_applicable "malformed chain line %S" line)
           | _ -> not_applicable "malformed chain line %S" line)
