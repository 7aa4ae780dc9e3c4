(* Static race analysis for map scopes.

   The compiled engine parallelizes a map by chunking its outermost
   parameter across domains; every iteration of that parameter must then
   be independent of every other.  The proof obligations, per container
   touched inside the scope:

   - Disjoint: the union of the scope's access footprints, as a symbolic
     function of the chunked parameter p, occupies provably different
     elements for different values of p.  We prove this per dimension
     with affine reasoning: if every access's start/stop in dimension d
     shifts by the same constant a <> 0 when p advances by one, the
     per-iteration span in d has constant extent, and |a| * step exceeds
     that span, then iterations cannot touch a common element.

   - Accumulate: footprints conflict, but every write goes through one
     commutative WCR combiner with a known identity and the container is
     never read in the scope.  Each domain then writes a private
     identity-initialized accumulator; the runtime merges them into the
     shared container in canonical (domain-index) order, so integer
     results are bit-identical to sequential execution and float results
     are deterministic for a fixed domain count.

   - Private: a scope-local transient that every iteration fully
     overwrites before reading.  Each domain gets its own copy; no value
     flows between iterations through it.

   Everything else is forced sequential with a machine-readable reason.
   False "safe" verdicts are bugs (asserted by the verdict tables and the
   parallel_crossval fuzz oracle); false "serial" verdicts only cost
   performance. *)

module E = Symbolic.Expr
module S = Symbolic.Subset
open Sdfg_ir
open Defs

type reason = { r_code : string; r_detail : string }

type access_class =
  | Read_only
  | Disjoint
  | Accumulate of wcr
  | Private
  | Conflict of reason

type verdict =
  | Parallel of { accumulate : (string * wcr) list; privatize : string list }
  | Serial of reason

type map_report = {
  mr_state : string;
  mr_entry : int;
  mr_name : string;
  mr_params : string list;
  mr_schedule : schedule;
  mr_top_level : bool;
  mr_containers : (string * access_class) list;
  mr_verdict : verdict;
}

let reason code fmt = Fmt.kstr (fun d -> { r_code = code; r_detail = d }) fmt

(* --- affine disjointness ------------------------------------------------ *)

(* Coefficient of symbol [p] in [e]: [Some a] when advancing p by one
   shifts e by the constant a (affine dependence), [None] otherwise. *)
let coeff p e =
  E.as_int (E.sub (E.subst1 p (E.add (E.sym p) E.one) e) e)

(* One access footprint: a subset, or [None] when statically unknown
   (dynamic memlets, copies with no explicit subset on the written side). *)
type footprint = S.t option

(* Prove that the accesses cannot touch a common element for two distinct
   values of [param], whose trips are [step] apart at minimum.  Sound
   per-dimension test over the bounding span of all footprints: in some
   dimension d, every start/stop must be affine in [param] with one
   common constant coefficient a <> 0, every extent and every pairwise
   offset must be constant, and |a| * step must exceed the combined
   span.  Any unknown quantity fails the dimension. *)
let disjoint_along ~param ~step (accs : S.t list) : bool =
  match accs with
  | [] -> true
  | first :: rest ->
    let nd = S.dims first in
    nd > 0
    && List.for_all (fun s -> S.dims s = nd) rest
    &&
    let dim_ok d =
      let ranges = List.map (fun s -> List.nth s d) accs in
      let r0 = List.hd ranges in
      match coeff param r0.S.start with
      | None | Some 0 -> false
      | Some a ->
        let span_lo = ref 0 and span_hi = ref 0 and ok = ref true in
        List.iter
          (fun (r : S.range) ->
            (match
               ( E.as_int r.tile,
                 coeff param r.start,
                 coeff param r.stop,
                 E.as_int (E.sub r.stop r.start),
                 E.as_int (E.sub r.start r0.S.start) )
             with
            | Some 1, Some ca, Some cb, Some ext, Some off
              when ca = a && cb = a && ext >= 0 ->
              if off < !span_lo then span_lo := off;
              if off + ext > !span_hi then span_hi := off + ext
            | _ -> ok := false))
          ranges;
        !ok && abs a * step >= !span_hi - !span_lo + 1
    in
    let rec try_dim d = d < nd && (dim_ok d || try_dim (d + 1)) in
    try_dim 0

(* --- footprint collection ----------------------------------------------- *)

type accesses = {
  mutable reads : footprint list;
  mutable writes : (footprint * wcr option) list;
}

let get_accesses tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None ->
    let a = { reads = []; writes = [] } in
    Hashtbl.add tbl name a;
    a

(* Collect per-iteration read/write footprints of every container touched
   strictly inside the scope.  Boundary edges (outer access -> entry,
   exit -> outer access) carry the propagated image over all iterations
   and are excluded.  Returns [Error] on constructs the executor itself
   treats as opaque inside a scope. *)
let collect_footprints (st : state) entry exit_ members =
  let tbl : (string, accesses) Hashtbl.t = Hashtbl.create 8 in
  let interior_edges =
    List.filter
      (fun (e : edge) ->
        (e.e_src = entry || List.mem e.e_src members)
        && (e.e_dst = exit_ || List.mem e.e_dst members))
      (State.edges st)
  in
  let note_read name (fp : footprint) =
    (get_accesses tbl name).reads <- fp :: (get_accesses tbl name).reads
  in
  let note_write name (fp : footprint) wcr =
    (get_accesses tbl name).writes <-
      (fp, wcr) :: (get_accesses tbl name).writes
  in
  List.iter
    (fun (e : edge) ->
      match e.e_memlet with
      | None -> ()
      | Some m ->
        let fp_subset = if m.m_dynamic then None else Some m.m_subset in
        let fp_other =
          if m.m_dynamic then None
          else match m.m_other with Some o -> Some o | None -> None
        in
        (match State.node st e.e_dst with
        | Map_exit | Consume_exit ->
          (* write to the container named by the memlet (the outer scope
             exit, or an inner exit carrying a per-iteration subset) *)
          note_write m.m_data fp_subset m.m_wcr;
          (* copies routed out through the exit also read their source *)
          (match State.node st e.e_src with
          | Access src when not (String.equal src m.m_data) ->
            note_read src fp_other
          | _ -> ())
        | Access dst_name ->
          if String.equal m.m_data dst_name then
            note_write dst_name fp_subset m.m_wcr
          else begin
            (* copy: memlet names the source; written side is m_other
               (defaulting to the whole destination = unknown here) *)
            note_read m.m_data fp_subset;
            note_write dst_name fp_other m.m_wcr
          end
        | Tasklet _ | Map_entry _ | Consume_entry _ | Reduce _
        | Nested_sdfg _ ->
          (* data flowing into a compute node or deeper scope: a read *)
          note_read m.m_data fp_subset))
    interior_edges;
  tbl

(* --- per-container classification --------------------------------------- *)

let container_dtype g name = ddesc_dtype (Sdfg.desc g name)
let container_shape g name = ddesc_shape (Sdfg.desc g name)

let is_stream g name =
  match Sdfg.desc g name with Stream _ -> true | Array _ -> false

(* A transient is iteration-private when it lives entirely inside the
   scope (no boundary edges, no use in any other state or transition) and
   its first access in topological order is fully overwritten, so no
   value can flow between iterations through it. *)
let private_transient g st entry exit_ members name (acc : accesses) =
  ddesc_transient (Sdfg.desc g name)
  && (not (is_stream g name))
  && (* every access node of this container in this state is in scope *)
  List.for_all
    (fun (nid, _) -> List.mem nid members)
    (State.access_nodes_of st name)
  && (* no boundary edge mentions it *)
  List.for_all
    (fun (e : edge) ->
      match e.e_memlet with
      | Some m when String.equal m.m_data name ->
        (e.e_src = entry || List.mem e.e_src members)
        && (e.e_dst = exit_ || List.mem e.e_dst members)
      | _ -> true)
    (State.edges st)
  && (* unused anywhere else in the graph *)
  List.for_all
    (fun (other : state) ->
      other.st_id = st.st_id
      || not (List.mem name (State.used_containers other)))
    (Sdfg.states g)
  && List.for_all
       (fun (t : istate_edge) ->
         (not (List.mem name (Bexp.free_syms t.is_cond)))
         && List.for_all
              (fun (_, e) -> not (List.mem name (E.free_syms e)))
              t.is_assign)
       (Sdfg.transitions g)
  && (* the first access node in topo order is written before anything
        reads, and those writes cover the whole container *)
  (match
     List.find_opt
       (fun nid ->
         List.mem nid members
         &&
         match State.node st nid with
         | Access n -> String.equal n name
         | _ -> false)
       (State.topological_order st)
   with
  | None -> false
  | Some first ->
    let writes_into_first =
      List.filter_map
        (fun (e : edge) ->
          if e.e_dst <> first then None
          else
            match e.e_memlet with
            | Some m when String.equal m.m_data name && not m.m_dynamic ->
              Some m.m_subset
            | _ -> None)
        (State.edges st)
    in
    writes_into_first <> []
    && S.covers
         (S.union_all writes_into_first)
         (S.of_shape (container_shape g name)))
  && (* nothing written through unknown footprints *)
  List.for_all (fun (fp, _) -> fp <> None) acc.writes

let classify g st entry exit_ members ~param ~step name (acc : accesses) :
    access_class =
  if is_stream g name then
    Conflict (reason "stream-access" "stream %s accessed in scope" name)
  else if acc.writes = [] then Read_only
  else if private_transient g st entry exit_ members name acc then Private
  else
    (* disjointness over reads and writes together: a footprint that is
       read by one iteration and written by another is a dependency *)
    let known = ref true in
    let subsets =
      List.filter_map
        (fun fp ->
          match fp with
          | Some s -> Some s
          | None ->
            known := false;
            None)
        (acc.reads @ List.map fst acc.writes)
    in
    if !known && disjoint_along ~param ~step subsets then Disjoint
    else
      (* accumulate path: all writes through one commutative WCR with a
         known identity, and no reads at all *)
      let wcrs = List.map snd acc.writes in
      match wcrs with
      | Some w :: rest when List.for_all (function
          | Some w' -> Wcr.equal w w'
          | None -> false) rest -> (
        if acc.reads <> [] then
          Conflict
            (reason "wcr-read" "%s is read and WCR-written in scope" name)
        else if not (Wcr.is_commutative w) then
          Conflict
            (reason "wcr-non-commutative"
               "%s written with non-commutative combiner %s" name
               (Wcr.name w))
        else
          match Wcr.identity w (container_dtype g name) with
          | Some _ -> Accumulate w
          | None ->
            Conflict
              (reason "wcr-no-identity" "combiner %s of %s has no identity"
                 (Wcr.name w) name))
      | _ ->
        if List.exists (fun w -> w <> None) wcrs then
          Conflict
            (reason "wcr-mixed" "%s mixes WCR and plain writes" name)
        else if not !known then
          Conflict
            (reason "dynamic-memlet"
               "%s written through a dynamic or implicit footprint" name)
        else if acc.reads <> [] then
          Conflict
            (reason "read-write-overlap"
               "reads and writes of %s overlap across %s" name param)
        else
          Conflict
            (reason "overlapping-writes"
               "writes of %s not provably disjoint across %s" name param)

(* --- map-level analysis ------------------------------------------------- *)

let analyze_map g (st : state) entry : map_report =
  let info =
    match State.node st entry with
    | Map_entry i -> i
    | _ -> invalid_arg "Races.analyze_map: not a map entry"
  in
  let top_level = Hashtbl.find (State.scope_parents st) entry = None in
  let base verdict containers =
    { mr_state = st.st_label;
      mr_entry = entry;
      mr_name = "[" ^ String.concat "," info.mp_params ^ "]";
      mr_params = info.mp_params;
      mr_schedule = info.mp_schedule;
      mr_top_level = top_level;
      mr_containers = containers;
      mr_verdict = verdict }
  in
  match info.mp_params with
  | [] -> base (Serial (reason "no-params" "map has no parameters")) []
  | param :: _ ->
    let exit_ = State.exit_of st entry in
    let members = State.scope_nodes st entry in
    let opaque =
      List.find_map
        (fun nid ->
          match State.node st nid with
          | Consume_entry _ ->
            Some (reason "consume-scope" "consume scope at node %d" nid)
          | Reduce _ -> Some (reason "reduce-node" "reduce at node %d" nid)
          | Nested_sdfg n ->
            Some
              (reason "nested-sdfg" "nested SDFG %S at node %d"
                 n.n_sdfg.g_name nid)
          | _ -> None)
        members
    in
    (match opaque with
    | Some r -> base (Serial r) []
    | None ->
      let step =
        match E.as_int (List.hd info.mp_ranges).S.stride with
        | Some s when s >= 1 -> s
        | _ -> 1 (* runtime rejects strides < 1; 1 is the sound minimum *)
      in
      let tbl = collect_footprints st entry exit_ members in
      let containers =
        Hashtbl.fold (fun name acc l -> (name, acc) :: l) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map (fun (name, acc) ->
               (name, classify g st entry exit_ members ~param ~step name acc))
      in
      let verdict =
        match
          List.find_opt
            (fun (_, c) -> match c with Conflict _ -> true | _ -> false)
            containers
        with
        | Some (_, Conflict r) -> Serial r
        | _ ->
          Parallel
            { accumulate =
                List.filter_map
                  (fun (n, c) ->
                    match c with Accumulate w -> Some (n, w) | _ -> None)
                  containers;
              privatize =
                List.filter_map
                  (fun (n, c) ->
                    match c with Private -> Some n | _ -> None)
                  containers }
      in
      base verdict containers)

let analyze_state g st =
  List.map (fun (nid, _) -> analyze_map g st nid) (State.map_entries st)

(* --- pipeline-parallel analysis ----------------------------------------- *)

(* Whether a state's consume scopes may run as concurrently-overlapping
   pipeline stages connected by bounded channels.  The batch executor
   runs consume scopes to completion in topological order; a streaming
   run overlaps them in time, so the proof obligations differ from the
   map case: stage-interior footprints need not be disjoint across
   *iterations* (each stage stays a single sequential worker) but must
   be disjoint across *stages*, every channel must have exactly one
   producer side and one consumer (FIFO order then matches the batch
   schedule), and nothing may observe a stream's transient length. *)

type pipeline_stage = {
  pl_entry : int;            (* Consume_entry node id *)
  pl_stream : string;        (* stream the stage consumes *)
  pl_pushes : string list;   (* streams the stage pushes to *)
}

type pipeline_verdict =
  | Pipeline of pipeline_stage list  (* producer-before-consumer order *)
  | No_pipeline of reason

let analyze_pipeline g (st : state) : pipeline_verdict =
  let entries =
    List.filter_map
      (fun (nid, n) ->
        match n with Consume_entry i -> Some (nid, i) | _ -> None)
      (State.nodes st)
  in
  let container_names = List.map fst (Sdfg.descs g) in
  let names_container syms = List.exists (fun s -> List.mem s syms) container_names in
  let subset_data_dep (s : S.t) = names_container (S.free_syms s) in
  (* fail-fast via exceptions; every rejection carries a reason *)
  let exception Reject of reason in
  try
    if entries = [] then
      raise (Reject (reason "no-consume" "state %s has no consume scope" st.st_label));
    List.iter
      (fun (nid, _) ->
        if Hashtbl.find (State.scope_parents st) nid <> None then
          raise
            (Reject
               (reason "nested-consume"
                  "consume scope at node %d is nested inside another scope" nid)))
      entries;
    (* members of all stages; everything else must be a plain access node *)
    let stage_members =
      List.map
        (fun (nid, info) ->
          let exit_ = State.exit_of st nid in
          (nid, info, exit_, State.scope_nodes st nid))
        entries
    in
    let in_some_stage nid =
      List.exists
        (fun (e, _, x, members) -> nid = e || nid = x || List.mem nid members)
        stage_members
    in
    List.iter
      (fun (nid, n) ->
        if not (in_some_stage nid) then
          match n with
          | Access _ -> ()
          | _ ->
            raise
              (Reject
                 (reason "non-stream-compute"
                    "top-level compute node %d outside any consume scope" nid)))
      (State.nodes st);
    (* one consumer per stream *)
    let seen = Hashtbl.create 4 in
    List.iter
      (fun (nid, (info : consume_info)) ->
        (match Hashtbl.find_opt seen info.cs_stream with
        | Some _ ->
          raise
            (Reject
               (reason "multi-consumer" "stream %s has more than one consume scope"
                  info.cs_stream))
        | None -> Hashtbl.add seen info.cs_stream nid);
        if container_shape g info.cs_stream <> [] then
          raise
            (Reject
               (reason "stream-shape"
                  "stream %s is multi-queue (non-scalar shape)" info.cs_stream));
        if names_container (E.free_syms info.cs_num_pes) then
          raise
            (Reject
               (reason "data-dependent-subset"
                  "num_pes of consume scope %d depends on container data" nid)))
      entries;
    (* per-stage stream discipline + push sets, from interior edges *)
    let stages =
      List.map
        (fun (entry, (info : consume_info), exit_, members) ->
          let interior (e : edge) =
            (e.e_src = entry || List.mem e.e_src members)
            && (e.e_dst = exit_ || List.mem e.e_dst members)
          in
          let pushes = ref [] in
          List.iter
            (fun (e : edge) ->
              if interior e then
                match e.e_memlet with
                | None -> ()
                | Some m ->
                  if subset_data_dep m.m_subset
                     || (match m.m_other with
                        | Some o -> subset_data_dep o
                        | None -> false)
                  then
                    raise
                      (Reject
                         (reason "data-dependent-subset"
                            "memlet of %s in consume scope %d has a data-dependent subset"
                            m.m_data entry));
                  (* written side of the edge *)
                  let written =
                    match State.node st e.e_dst with
                    | Map_exit | Consume_exit -> Some m.m_data
                    | Access dst when String.equal m.m_data dst -> Some dst
                    | Access dst -> Some dst (* copy: m_data is the source *)
                    | _ -> None
                  in
                  (match written with
                  | Some w when is_stream g w ->
                    if not (List.mem w !pushes) then pushes := w :: !pushes
                  | _ -> ());
                  (* read side: stream reads other than the popped element *)
                  let read_stream s =
                    if String.equal s info.cs_stream then begin
                      if e.e_src <> entry then
                        raise
                          (Reject
                             (reason "stream-body-read"
                                "stream %s re-read inside its own consume scope" s))
                    end
                    else
                      raise
                        (Reject
                           (reason "stream-body-read"
                              "stream %s read inside consume scope %d" s entry))
                  in
                  (match State.node st e.e_dst with
                  | Map_exit | Consume_exit ->
                    (match State.node st e.e_src with
                    | Access src
                      when (not (String.equal src m.m_data)) && is_stream g src ->
                      read_stream src
                    | _ -> ())
                  | Access dst when not (String.equal m.m_data dst) ->
                    if is_stream g m.m_data then read_stream m.m_data
                  | Access _ -> ()
                  | _ -> if is_stream g m.m_data then read_stream m.m_data))
            (State.edges st);
          if List.mem info.cs_stream !pushes then
            raise
              (Reject
                 (reason "stream-self-feed"
                    "consume scope %d pushes to its own stream %s" entry
                    info.cs_stream));
          { pl_entry = entry; pl_stream = info.cs_stream; pl_pushes = !pushes })
        stage_members
    in
    (* every channel has one producer stage at most *)
    let producers = Hashtbl.create 4 in
    List.iter
      (fun stg ->
        List.iter
          (fun s ->
            match Hashtbl.find_opt producers s with
            | Some _ ->
              raise
                (Reject
                   (reason "multi-producer"
                      "stream %s pushed by more than one consume scope" s))
            | None -> Hashtbl.add producers s stg.pl_entry)
          stg.pl_pushes)
      stages;
    (* non-stream footprints must be disjoint across stages (read-only
       sharing is fine; a write in one stage excludes any other touch) *)
    let per_stage =
      List.map
        (fun (entry, _, exit_, members) ->
          (entry, collect_footprints st entry exit_ members))
        stage_members
    in
    let all_names = Hashtbl.create 8 in
    List.iter
      (fun (_, tbl) ->
        Hashtbl.iter
          (fun name _ ->
            if not (is_stream g name) then Hashtbl.replace all_names name ())
          tbl)
      per_stage;
    Hashtbl.iter
      (fun name () ->
        let touches =
          List.filter_map
            (fun (entry, tbl) ->
              match Hashtbl.find_opt tbl name with
              | Some acc -> Some (entry, acc)
              | None -> None)
            per_stage
        in
        if List.length touches >= 2 then begin
          let fps_of acc ~writes_only =
            (if writes_only then [] else acc.reads)
            @ List.map fst acc.writes
          in
          let disjoint_pair a b =
            match (a, b) with
            | Some sa, Some sb -> S.intersects sa sb = Some false
            | _ -> false (* unknown footprint: cannot prove *)
          in
          List.iter
            (fun (ea, acca) ->
              if acca.writes <> [] then
                List.iter
                  (fun (eb, accb) ->
                    if ea <> eb then
                      List.iter
                        (fun wa ->
                          List.iter
                            (fun fb ->
                              if not (disjoint_pair wa fb) then
                                raise
                                  (Reject
                                     (reason "stage-overlap"
                                        "%s written by stage %d overlaps stage %d"
                                        name ea eb)))
                            (fps_of accb ~writes_only:false))
                        (fps_of acca ~writes_only:true))
                  touches)
            touches
        end)
      all_names;
    (* producer-before-consumer order (matches the batch topological
       schedule); a cycle between distinct stages cannot stream *)
    let consumer_of s =
      List.find_opt (fun stg -> String.equal stg.pl_stream s) stages
    in
    let n = List.length stages in
    let ordered = ref [] in
    let placed = Hashtbl.create 4 in
    let rec place depth stg =
      if depth > n then
        raise
          (Reject
             (reason "stream-cycle" "consume scopes form a feedback cycle"));
      if not (Hashtbl.mem placed stg.pl_entry) then begin
        Hashtbl.add placed stg.pl_entry ();
        List.iter
          (fun s ->
            match consumer_of s with
            | Some downstream -> place (depth + 1) downstream
            | None -> ())
          stg.pl_pushes;
        ordered := stg :: !ordered
      end
    in
    (* visiting producers first keeps upstream stages early *)
    List.iter (place 0) stages;
    (* cycle detection: placed-marking hides back-edges from the depth
       guard above, so verify the order is consistent *)
    let pos = Hashtbl.create 4 in
    List.iteri (fun i stg -> Hashtbl.add pos stg.pl_entry i) !ordered;
    List.iter
      (fun stg ->
        List.iter
          (fun s ->
            match consumer_of s with
            | Some down ->
              if Hashtbl.find pos down.pl_entry <= Hashtbl.find pos stg.pl_entry
              then
                raise
                  (Reject
                     (reason "stream-cycle"
                        "consume scopes form a feedback cycle"))
            | None -> ())
          stg.pl_pushes)
      !ordered;
    Pipeline !ordered
  with Reject r -> No_pipeline r

let pipeline_code = function
  | Pipeline _ -> "pipeline"
  | No_pipeline r -> r.r_code

let analyze g = List.concat_map (analyze_state g) (Sdfg.states g)

let verdict_of g st entry = (analyze_map g st entry).mr_verdict

let parallelizable = function Parallel _ -> true | Serial _ -> false

let reason_of = function Parallel _ -> None | Serial r -> Some r

(* --- rendering ---------------------------------------------------------- *)

let class_name = function
  | Read_only -> "read-only"
  | Disjoint -> "disjoint"
  | Accumulate w -> "accumulate(" ^ Wcr.name w ^ ")"
  | Private -> "private"
  | Conflict r -> "conflict:" ^ r.r_code

let verdict_code = function
  | Serial r -> r.r_code
  | Parallel { accumulate = []; privatize = [] } -> "parallel"
  | Parallel { accumulate = _ :: _; _ } -> "parallel-accumulate"
  | Parallel _ -> "parallel-private"

let pp_class ppf c = Fmt.string ppf (class_name c)

let pp_report ppf (r : map_report) =
  Fmt.pf ppf "@[<v2>%s %s (%s%s): %s%a%a@]" r.mr_state r.mr_name
    (schedule_name r.mr_schedule)
    (if r.mr_top_level then "" else ", nested")
    (verdict_code r.mr_verdict)
    (fun ppf -> function
      | Serial reason -> Fmt.pf ppf " — %s" reason.r_detail
      | Parallel _ -> ())
    r.mr_verdict
    (fun ppf cs ->
      List.iter
        (fun (name, c) -> Fmt.pf ppf "@,%-12s %a" name pp_class c)
        cs)
    r.mr_containers

let pp_table ppf reports =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:(fun ppf () -> Fmt.pf ppf "@,") pp_report)
    reports
