(* Graphviz export of SDFGs, mirroring the visual language of the paper's
   figures: ellipses for access nodes, octagons for tasklets, trapezoids
   for map entry/exit, dashed edges for write-conflict-resolution memlets,
   and one cluster per state with inter-state transition edges between
   clusters. *)

open Defs

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let node_attrs st nid =
  let lbl = escape (State.node_label st nid) in
  match State.node st nid with
  | Access _ -> Fmt.str "label=\"%s\", shape=ellipse" lbl
  | Tasklet _ -> Fmt.str "label=\"%s\", shape=octagon" lbl
  | Map_entry _ -> Fmt.str "label=\"%s\", shape=trapezium" lbl
  | Map_exit -> "label=\"\", shape=invtrapezium"
  | Consume_entry _ -> Fmt.str "label=\"%s\", shape=trapezium, style=dotted" lbl
  | Consume_exit -> "label=\"\", shape=invtrapezium, style=dotted"
  | Reduce _ -> Fmt.str "label=\"%s\", shape=invtriangle" lbl
  | Nested_sdfg _ -> Fmt.str "label=\"%s\", shape=doubleoctagon" lbl

let edge_attrs (e : edge) =
  match e.e_memlet with
  | None -> "style=dotted, label=\"\""
  | Some m ->
    let style = if m.m_wcr <> None then ", style=dashed" else "" in
    Fmt.str "label=\"%s\"%s" (escape (Memlet.to_string m)) style

let state_body buf prefix st =
  List.iter
    (fun (nid, _) ->
      Buffer.add_string buf
        (Fmt.str "    %s_n%d [%s];\n" prefix nid (node_attrs st nid)))
    (State.nodes st);
  List.iter
    (fun (e : edge) ->
      Buffer.add_string buf
        (Fmt.str "    %s_n%d -> %s_n%d [%s];\n" prefix e.e_src prefix e.e_dst
           (edge_attrs e)))
    (State.edges st)

let of_sdfg (g : sdfg) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Fmt.str "digraph %S {\n  compound=true;\n" g.g_name);
  List.iter
    (fun st ->
      Buffer.add_string buf
        (Fmt.str "  subgraph cluster_s%d {\n    label=\"%s\";\n" st.st_id
           (escape st.st_label));
      state_body buf (Fmt.str "s%d" st.st_id) st;
      (* Anchor node for inter-state edges on empty states. *)
      if State.num_nodes st = 0 then
        Buffer.add_string buf
          (Fmt.str "    s%d_anchor [label=\"\", shape=point];\n" st.st_id);
      Buffer.add_string buf "  }\n")
    (Sdfg.states g);
  let anchor st =
    match State.nodes st with
    | (nid, _) :: _ -> Fmt.str "s%d_n%d" st.st_id nid
    | [] -> Fmt.str "s%d_anchor" st.st_id
  in
  List.iter
    (fun (e : istate_edge) ->
      let src = Sdfg.state g e.is_src and dst = Sdfg.state g e.is_dst in
      let lbl =
        let cond =
          match e.is_cond with Btrue -> "" | c -> Bexp.to_string c
        in
        let asn =
          String.concat "; "
            (List.map
               (fun (s, ex) ->
                 Fmt.str "%s=%s" s (Symbolic.Expr.to_string ex))
               e.is_assign)
        in
        match cond, asn with
        | "", "" -> ""
        | c, "" -> c
        | "", a -> a
        | c, a -> c ^ "; " ^ a
      in
      Buffer.add_string buf
        (Fmt.str
           "  %s -> %s [ltail=cluster_s%d, lhead=cluster_s%d, label=\"%s\", \
            color=blue];\n"
           (anchor src) (anchor dst) e.is_src e.is_dst (escape lbl)))
    (Sdfg.transitions g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
