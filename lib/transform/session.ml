(* Optimization sessions — the programmatic core of DIODE (paper §4.2).

   A session holds a base SDFG and a history of applied transformations
   with the performance results recorded after each step, supporting the
   DIODE workflows: "run and compare historical performance of
   transformations", "save transformation chains to files", and
   "optimization version control ... diverging from a mid-point in the
   chain" when tuning for a different architecture. *)

open Sdfg_ir

type entry = {
  e_step : Xform.chain_step;
  e_note : string;              (* candidate description *)
  e_metric : float option;      (* caller-supplied figure of merit *)
}

type t = {
  s_build : unit -> Sdfg.t;     (* rebuilds the pristine base SDFG *)
  mutable s_current : Sdfg.t;
  mutable s_history : entry list;  (* newest first *)
  s_measure : (Sdfg.t -> float) option;
}

let create ?measure build =
  { s_build = build;
    s_current = build ();
    s_history = [];
    s_measure = measure }

(* The default measure for sessions that tune against real executions:
   the profiler's median wall-clock over [repeat] runs (DIODE's "run and
   compare historical performance" loop, §4.2). *)
let create_profiled ?(exec = Interp.Exec.Config.default) ?(warmup = 1)
    ?(repeat = 3) ?(symbols = []) build =
  let measure g =
    Interp.Profile.wall_median
      (Interp.Profile.run ~config:exec ~warmup ~repeat ~symbols g)
  in
  create ~measure build

let current s = s.s_current

let history s = List.rev s.s_history

(* Apply transformation [name] to candidate [index], recording the step
   and (if a measure was supplied) the post-step figure of merit. *)
let apply_exn ?(index = 0) s name =
  let x = Std.lookup name in
  let cands = x.Xform.x_find s.s_current in
  match List.nth_opt cands index with
  | None ->
    Xform.not_applicable "%s: candidate %d of %d does not exist" name index
      (List.length cands)
  | Some c ->
    Xform.apply s.s_current x c;
    let metric = Option.map (fun f -> f s.s_current) s.s_measure in
    s.s_history <-
      { e_step = { Xform.cs_xform = name; cs_index = index };
        e_note = c.Xform.c_note;
        e_metric = metric }
      :: s.s_history

let apply ?index s name =
  match apply_exn ?index s name with
  | () -> Ok ()
  | exception Xform.Not_applicable msg -> Error msg

(* Candidates currently available, for interactive exploration. *)
let candidates s name =
  (Std.lookup name).Xform.x_find s.s_current

(* Undo the last [n] steps by replaying the chain prefix on a fresh base
   (transformations mutate in place, so history is replayed, not
   reverted). *)
let undo ?(n = 1) s =
  let keep = max 0 (List.length s.s_history - n) in
  let prefix =
    List.rev s.s_history
    |> List.filteri (fun i _ -> i < keep)
    |> List.map (fun e -> e.e_step)
  in
  s.s_current <- s.s_build ();
  s.s_history <- [];
  List.iter
    (fun (st : Xform.chain_step) -> apply_exn ~index:st.cs_index s st.cs_xform)
    prefix

(* Diverge from a mid-point: a new session replaying only the first
   [steps] entries — "diverging from a mid-point in the chain" (§4.2). *)
let branch_at s ~steps =
  let prefix =
    List.rev s.s_history
    |> List.filteri (fun i _ -> i < steps)
    |> List.map (fun e -> e.e_step)
  in
  let s' = create ?measure:s.s_measure s.s_build in
  List.iter
    (fun (st : Xform.chain_step) -> apply_exn ~index:st.cs_index s' st.cs_xform)
    prefix;
  s'

(* Chain file format (§4.2 "save transformation chains to files"). *)
let to_chain s = List.rev_map (fun e -> e.e_step) s.s_history

let save_chain s path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Xform.chain_to_string (to_chain s)))

let replay_chain ?measure build steps =
  let s = create ?measure build in
  List.iter
    (fun (st : Xform.chain_step) -> apply_exn ~index:st.cs_index s st.cs_xform)
    steps;
  s

let load_chain ?measure build path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  replay_chain ?measure build (Xform.chain_of_string text)

(* The historical-performance view of DIODE's comparison pane. *)
let pp_history ppf s =
  List.iteri
    (fun i e ->
      Fmt.pf ppf "%2d. %-20s #%d %-24s %a@." (i + 1) e.e_step.Xform.cs_xform
        e.e_step.Xform.cs_index e.e_note
        Fmt.(option ~none:(any "-") (fmt "%.4g"))
        e.e_metric)
    (history s)
