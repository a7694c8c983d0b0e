(** Graphviz export of signal-flow graphs.

    Renders the flowgraph (optionally annotated with analysis results)
    for documentation and debugging — the visual the paper draws by hand
    in Figs. 1 and 5. *)

(* quote-escape only: labels legitimately contain \n line breaks added
   by the composers below *)
let escape s =
  String.concat ""
    (List.map
       (fun c -> match c with '"' -> "\\\"" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let node_label ?ranges (n : Node.t) =
  let base = Printf.sprintf "%s\\n%s" n.Node.name (Node.op_name n.Node.op) in
  match ranges with
  | None -> base
  | Some r -> (
      match Range_analysis.range_of r n.Node.name with
      | Some iv -> Printf.sprintf "%s\\n%s" base (Interval.to_string iv)
      | None -> base)

let node_shape (n : Node.t) =
  match n.Node.op with
  | Node.Input _ -> "invtrapezium"
  | Node.Const _ -> "plaintext"
  | Node.Delay _ -> "box"
  | Node.Quantize _ | Node.Saturate _ -> "diamond"
  | _ -> "ellipse"

(** [render g] — the graph in DOT syntax.  [?ranges] annotates nodes
    with the range analysis. *)
let render ?ranges g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph sfg {\n  rankdir=LR;\n";
  List.iter
    (fun (n : Node.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" n.Node.id
           (escape (node_label ?ranges n))
           (node_shape n)))
    (Graph.nodes g);
  List.iter
    (fun (n : Node.t) ->
      List.iter
        (fun src ->
          let style =
            match n.Node.op with
            | Node.Delay _ -> " [style=dashed]"
            | _ -> ""
          in
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d%s;\n" src n.Node.id style))
        n.Node.inputs)
    (Graph.nodes g);
  List.iter
    (fun (name, id) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  out_%s [label=\"%s\", shape=trapezium];\n  n%d -> out_%s;\n"
           (escape name) (escape name) id (escape name)))
    (Graph.outputs g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file g path ?ranges () =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render ?ranges g))
