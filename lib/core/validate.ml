(* SDFG validation — step ❶ of the compilation pipeline (paper §4.3):
   "a validation pass is run on the graph to ensure that scopes are
   correctly structured, memlets are connected properly, and map schedules
   and data storage locations are feasible".

   [check] raises {!Defs.Invalid_sdfg} with a descriptive message on the
   first violation found; transformations call it after rewriting to
   guarantee they do not break semantics. *)

open Defs

let check_memlet g st (e : edge) (m : memlet) =
  if not (Sdfg.has_desc g m.m_data) then
    invalid "state %S: memlet on edge %d references unknown container %S"
      st.st_label e.e_id m.m_data;
  let d = Sdfg.desc g m.m_data in
  let rank = ddesc_rank d in
  let sdims = Symbolic.Subset.dims m.m_subset in
  (* Scalars (rank 0) are addressed with a single unit range. *)
  if rank > 0 && sdims <> rank then
    invalid
      "state %S: memlet %s on edge %d has %d dimensions, container has %d"
      st.st_label (Memlet.to_string m) e.e_id sdims rank;
  if rank = 0 && sdims > 1 then
    invalid "state %S: memlet on scalar %S has %d dimensions" st.st_label
      m.m_data sdims

let check_tasklet_connectors ?(extra_names = []) st nid (t : tasklet) =
  let ins = List.map (fun c -> c.k_name) t.t_inputs in
  let outs = List.map (fun c -> c.k_name) t.t_outputs in
  List.iter
    (fun (e : edge) ->
      match e.e_dst_conn with
      | Some c when List.mem c ins -> ()
      | Some c ->
        invalid "state %S: tasklet %S has no input connector %S" st.st_label
          t.t_name c
      | None ->
        (* ordering-only edges need no connector, but must carry no data *)
        if e.e_memlet <> None then
          invalid "state %S: dataflow edge into tasklet %S lacks a connector"
            st.st_label t.t_name)
    (State.in_edges st nid);
  List.iter
    (fun (e : edge) ->
      match e.e_src_conn with
      | Some c when List.mem c outs -> ()
      | Some c ->
        invalid "state %S: tasklet %S has no output connector %S" st.st_label
          t.t_name c
      | None ->
        if e.e_memlet <> None then
          invalid "state %S: dataflow edge out of tasklet %S lacks a connector"
            st.st_label t.t_name)
    (State.out_edges st nid);
  (* Every declared input connector must be fed exactly once. *)
  List.iter
    (fun cname ->
      let feeders =
        List.filter (fun (e : edge) -> e.e_dst_conn = Some cname)
          (State.in_edges st nid)
      in
      match feeders with
      | [ _ ] -> ()
      | [] ->
        invalid "state %S: input connector %S of tasklet %S is not connected"
          st.st_label cname t.t_name
      | _ ->
        invalid "state %S: input connector %S of tasklet %S fed by %d edges"
          st.st_label cname t.t_name (List.length feeders))
    ins;
  (* Tasklet code must only name its connectors (no external memory). *)
  match t.t_code with
  | External _ -> ()
  | Code code ->
    let visible = ins @ outs @ extra_names in
    let reads = Tasklang.Ast.reads code in
    let writes = Tasklang.Ast.writes code in
    let locals = writes in
    List.iter
      (fun name ->
        if (not (List.mem name visible)) && not (List.mem name locals) then
          invalid
            "state %S: tasklet %S reads %S which is neither a connector nor \
             a local"
            st.st_label t.t_name name)
      reads

let check_access g st nid dname =
  if not (Sdfg.has_desc g dname) then
    invalid "state %S: access node %d references unknown container %S"
      st.st_label nid dname;
  List.iter
    (fun (e : edge) ->
      match e.e_memlet with
      | None -> ()
      | Some m ->
        (* A copy edge between two access nodes may carry either side's
           container name; other edges must match this node. *)
        let other =
          if e.e_src = nid then State.node st e.e_dst else State.node st e.e_src
        in
        let ok =
          String.equal m.m_data dname
          ||
          match other with
          | Access d' -> String.equal m.m_data d'
          (* Copy-in/commit edges through scope boundaries name the
             container on the far side of the scope (LocalStorage,
             AccumulateTransient, LocalStream patterns). *)
          | Map_entry _ | Map_exit | Consume_entry _ | Consume_exit ->
            true
          | Tasklet _ | Reduce _ | Nested_sdfg _ -> false
        in
        if not ok then
          invalid
            "state %S: memlet %s adjacent to access node %S moves unrelated \
             container"
            st.st_label (Memlet.to_string m) dname)
    (State.in_edges st nid @ State.out_edges st nid)

let check_scopes st =
  (* Every entry registered with a matching exit of the right kind, and the
     parent computation must succeed (raises on malformed nesting). *)
  List.iter
    (fun (nid, n) ->
      match n with
      | Map_entry _ ->
        let x = State.exit_of st nid in
        (match State.node st x with
        | Map_exit -> ()
        | _ -> invalid "state %S: map entry %d paired with non-exit" st.st_label nid)
      | Consume_entry _ ->
        let x = State.exit_of st nid in
        (match State.node st x with
        | Consume_exit -> ()
        | _ ->
          invalid "state %S: consume entry %d paired with non-exit" st.st_label
            nid)
      | Map_exit | Consume_exit ->
        ignore (State.entry_of st nid)
      | Access _ | Tasklet _ | Reduce _ | Nested_sdfg _ -> ())
    (State.nodes st);
  let parents = State.scope_parents st in
  (* Edges may not jump across scope boundaries except through the scope
     nodes themselves. *)
  List.iter
    (fun (e : edge) ->
      let pu = Hashtbl.find parents e.e_src in
      let pv = Hashtbl.find parents e.e_dst in
      let ok =
        pu = pv
        || (State.is_scope_entry st e.e_src && pv = Some e.e_src)
        || (State.is_scope_exit st e.e_dst
            && pu = Some (State.entry_of st e.e_dst))
      in
      if not ok then
        invalid "state %S: edge %d crosses a scope boundary" st.st_label e.e_id)
    (State.edges st)

let check_map_ranges st =
  List.iter
    (fun (_, n) ->
      match n with
      | Map_entry m ->
        if List.length m.mp_params <> List.length m.mp_ranges then
          invalid "state %S: map has %d parameters but %d ranges" st.st_label
            (List.length m.mp_params)
            (List.length m.mp_ranges);
        if m.mp_params = [] then
          invalid "state %S: map with no parameters" st.st_label;
        let sorted = List.sort_uniq String.compare m.mp_params in
        if List.length sorted <> List.length m.mp_params then
          invalid "state %S: duplicate map parameters" st.st_label
      | _ -> ())
    (State.nodes st)

(* Storage/schedule feasibility: GPU thread-block maps must be nested in a
   GPU device map; FPGA schedules inside FPGA scopes (§4.3: "failing when,
   e.g., FPGA code is specified in a GPU map"). *)
let check_schedules st =
  let parents = State.scope_parents st in
  let rec enclosing_schedules nid acc =
    match Hashtbl.find_opt parents nid with
    | Some (Some p) -> (
      match State.node st p with
      | Map_entry m -> enclosing_schedules p (m.mp_schedule :: acc)
      | Consume_entry c -> enclosing_schedules p (c.cs_schedule :: acc)
      | _ -> enclosing_schedules p acc)
    | _ -> acc
  in
  List.iter
    (fun (nid, n) ->
      let check_sched sched =
        let outer = enclosing_schedules nid [] in
        match sched with
        | Gpu_threadblock ->
          if not (List.mem Gpu_device outer) then
            invalid
              "state %S: GPU thread-block map %d is not nested in a GPU \
               device map"
              st.st_label nid
        | Fpga_unrolled ->
          if not (List.exists (fun s -> s = Fpga_device) outer)
             && not (List.mem Fpga_device outer)
          then
            (* unrolled PEs at top level are allowed only as FPGA kernels *)
            ()
        | Gpu_device ->
          if List.mem Fpga_device outer then
            invalid "state %S: GPU map %d inside an FPGA scope" st.st_label nid
        | Fpga_device ->
          if List.mem Gpu_device outer then
            invalid "state %S: FPGA map %d inside a GPU scope" st.st_label nid
        | Sequential | Cpu_multicore | Mpi -> ()
      in
      match n with
      | Map_entry m -> check_sched m.mp_schedule
      | Consume_entry c -> check_sched c.cs_schedule
      | _ -> ())
    (State.nodes st)

let rec check_state g st =
  (* acyclicity (raises if cyclic) *)
  ignore (State.topological_order st);
  check_scopes st;
  check_map_ranges st;
  check_schedules st;
  List.iter
    (fun (e : edge) ->
      match e.e_memlet with
      | Some m -> check_memlet g st e m
      | None -> ())
    (State.edges st);
  (* Names readable from tasklet code besides connectors: enclosing scope
     parameters and inter-state symbols. *)
  let parents = State.scope_parents st in
  let rec enclosing_params nid =
    match Hashtbl.find_opt parents nid with
    | Some (Some p) -> (
      let rest = enclosing_params p in
      match State.node st p with
      | Map_entry m -> m.mp_params @ rest
      | Consume_entry cinfo -> cinfo.cs_pe_param :: rest
      | _ -> rest)
    | _ -> []
  in
  let symbol_names =
    g.g_symbols
    @ List.concat_map (fun (t : istate_edge) -> List.map fst t.is_assign)
        g.g_istate_edges
  in
  List.iter
    (fun (nid, n) ->
      match n with
      | Tasklet t ->
        check_tasklet_connectors
          ~extra_names:(enclosing_params nid @ symbol_names)
          st nid t
      | Access d -> check_access g st nid d
      | Nested_sdfg nest ->
        check nest.n_sdfg;
        List.iter
          (fun cname ->
            if not (Sdfg.has_desc nest.n_sdfg cname) then
              invalid
                "state %S: nested SDFG %S connector %S is not a container of \
                 the inner SDFG"
                st.st_label nest.n_sdfg.g_name cname)
          (nest.n_inputs @ nest.n_outputs)
      | Map_entry _ | Map_exit | Consume_entry _ | Consume_exit | Reduce _ ->
        ())
    (State.nodes st)

and check (g : sdfg) =
  if Sdfg.num_states g = 0 then invalid "SDFG %S has no states" g.g_name;
  ignore (Sdfg.start_state g);
  List.iter
    (fun (e : istate_edge) ->
      ignore (Sdfg.state g e.is_src);
      ignore (Sdfg.state g e.is_dst))
    (Sdfg.transitions g);
  (* Container names must not collide with symbols. *)
  List.iter
    (fun (n, _) ->
      if List.mem n g.g_symbols then
        invalid "SDFG %S: container %S shadows a symbol" g.g_name n)
    (Sdfg.descs g);
  List.iter (fun st -> check_state g st) (Sdfg.states g)

(* Boolean convenience wrapper. *)
let is_valid g =
  match check g with () -> true | exception Invalid_sdfg _ -> false

(* --- accumulating validation ------------------------------------------ *)

(* [validate] reports *every* violation it can reach instead of stopping at
   the first: each independent sub-check runs under a guard that records
   the raised message and carries on.  Checks that gate later ones (a
   cyclic dataflow graph makes scope analysis meaningless) skip only their
   dependents.  Fuzzer repros and user graphs thus get the complete
   diagnosis in one pass. *)

type error = {
  e_sdfg : string;        (* name of the (possibly nested) SDFG *)
  e_state : string option; (* label of the state, when state-local *)
  e_msg : string;
}

let error_to_string e =
  match e.e_state with
  | Some st -> Printf.sprintf "[%s/%s] %s" e.e_sdfg st e.e_msg
  | None -> Printf.sprintf "[%s] %s" e.e_sdfg e.e_msg

let state_errors g st : string list =
  let errs = ref [] in
  let guard f = try f () with Invalid_sdfg m -> errs := m :: !errs in
  (match State.topological_order st with
  | exception Invalid_sdfg m -> errs := m :: !errs
  | _ ->
    guard (fun () -> check_scopes st);
    guard (fun () -> check_map_ranges st);
    guard (fun () -> check_schedules st);
    List.iter
      (fun (e : edge) ->
        match e.e_memlet with
        | Some m -> guard (fun () -> check_memlet g st e m)
        | None -> ())
      (State.edges st);
    let symbol_names =
      g.g_symbols
      @ List.concat_map (fun (t : istate_edge) -> List.map fst t.is_assign)
          g.g_istate_edges
    in
    List.iter
      (fun (nid, n) ->
        match n with
        | Tasklet t ->
          guard (fun () ->
              let parents = State.scope_parents st in
              let rec enclosing_params nid =
                match Hashtbl.find_opt parents nid with
                | Some (Some p) -> (
                  let rest = enclosing_params p in
                  match State.node st p with
                  | Map_entry m -> m.mp_params @ rest
                  | Consume_entry cinfo -> cinfo.cs_pe_param :: rest
                  | _ -> rest)
                | _ -> []
              in
              check_tasklet_connectors
                ~extra_names:(enclosing_params nid @ symbol_names)
                st nid t)
        | Access d -> guard (fun () -> check_access g st nid d)
        | Nested_sdfg nest ->
          List.iter
            (fun cname ->
              guard (fun () ->
                  if not (Sdfg.has_desc nest.n_sdfg cname) then
                    invalid
                      "state %S: nested SDFG %S connector %S is not a \
                       container of the inner SDFG"
                      st.st_label nest.n_sdfg.g_name cname))
            (nest.n_inputs @ nest.n_outputs)
        | Map_entry _ | Map_exit | Consume_entry _ | Consume_exit | Reduce _
          -> ())
      (State.nodes st));
  List.rev !errs

let rec errors (g : sdfg) : error list =
  let top = ref [] in
  let guard f = try f () with Invalid_sdfg m -> top := m :: !top in
  guard (fun () ->
      if Sdfg.num_states g = 0 then invalid "SDFG %S has no states" g.g_name);
  guard (fun () -> ignore (Sdfg.start_state g));
  List.iter
    (fun (e : istate_edge) ->
      guard (fun () -> ignore (Sdfg.state g e.is_src));
      guard (fun () -> ignore (Sdfg.state g e.is_dst)))
    (Sdfg.transitions g);
  List.iter
    (fun (n, _) ->
      guard (fun () ->
          if List.mem n g.g_symbols then
            invalid "SDFG %S: container %S shadows a symbol" g.g_name n))
    (Sdfg.descs g);
  let top_errors =
    List.rev_map (fun m -> { e_sdfg = g.g_name; e_state = None; e_msg = m })
      !top
  in
  let state_level =
    List.concat_map
      (fun st ->
        List.map
          (fun m ->
            { e_sdfg = g.g_name; e_state = Some st.st_label; e_msg = m })
          (state_errors g st))
      (Sdfg.states g)
  in
  (* nested SDFGs recurse with their own graph context *)
  let nested_level =
    List.concat_map
      (fun st ->
        List.concat_map
          (fun (_, n) ->
            match n with Nested_sdfg nest -> errors nest.n_sdfg | _ -> [])
          (State.nodes st))
      (Sdfg.states g)
  in
  top_errors @ state_level @ nested_level

let validate g = match errors g with [] -> Ok () | errs -> Error errs
