(* The standard transformation library (paper §4.1: "we provide a standard
   library of such transformations, which is meant to be used as a
   baseline for performance engineers"; Appendix B, Table 4). *)

(* Sorted by name: every search or tie-break built on the library (the
   optimizer in particular) enumerates it in this order, so it must be
   deterministic. *)
let all : Xform.t list =
  List.sort
    (fun (a : Xform.t) b -> String.compare a.x_name b.x_name)
    [ Map_xforms.map_collapse;
      Map_xforms.map_expansion;
      Fusion_xforms.map_fusion;
      Map_xforms.map_interchange;
      Fusion_xforms.map_reduce_fusion;
      Map_xforms.map_tiling;
      Data_xforms.double_buffering;
      Data_xforms.local_storage;
      Data_xforms.accumulate_transient;
      Data_xforms.local_stream;
      Map_xforms.vectorization;
      Control_xforms.map_to_for_loop;
      Fusion_xforms.state_fusion;
      Control_xforms.inline_sdfg;
      Device_xforms.fpga_transform;
      Device_xforms.gpu_transform;
      Device_xforms.mpi_transform;
      Data_xforms.redundant_array;
      Control_xforms.reduce_peeling;
      Cleanup_xforms.trivial_map_elimination;
      Cleanup_xforms.state_elimination;
      Cleanup_xforms.prune_connectors;
      Cleanup_xforms.map_unroll ]

let names = List.map (fun (x : Xform.t) -> x.x_name) all

let lookup name =
  match List.find_opt (fun (x : Xform.t) -> x.x_name = name) all with
  | Some x -> x
  | None -> Xform.not_applicable "unknown transformation %S" name

let apply_by_name_exn ?validate g name =
  Xform.apply_first_exn ?validate g (lookup name)

let apply_chain_exn ?validate g (steps : Xform.chain_step list) =
  List.iter
    (fun (s : Xform.chain_step) ->
      let x = lookup s.cs_xform in
      let cands = x.x_find g in
      match List.nth_opt cands s.cs_index with
      | Some c -> Xform.apply ?validate g x c
      | None ->
        Xform.not_applicable "%s: candidate %d of %d does not exist"
          s.cs_xform s.cs_index (List.length cands))
    steps

let as_result f =
  match f () with () -> Ok () | exception Xform.Not_applicable m -> Error m

let apply_by_name ?validate g name =
  as_result (fun () -> apply_by_name_exn ?validate g name)

let apply_chain ?validate g steps =
  as_result (fun () -> apply_chain_exn ?validate g steps)

(* Strict transformations can only improve the program and are applied
   automatically after frontend processing (Appendix D: "strict
   transformations ... include StateFusion and InlineSDFG"). *)
let strict : Xform.t list =
  [ Data_xforms.redundant_array;
    Fusion_xforms.state_fusion;
    Control_xforms.inline_sdfg;
    Cleanup_xforms.trivial_map_elimination;
    Cleanup_xforms.state_elimination ]

(* Best-effort: a strict transformation whose application fails midway is
   skipped (the graph is left as the last successful application left it)
   rather than aborting the whole cleanup pass. *)
let apply_strict (g : Sdfg_ir.Sdfg.t) =
  List.iter
    (fun x -> ignore (Xform.apply_until_fixpoint g x : (unit, string) result))
    strict
