(** Signal-flow-graph construction and interpretation.

    A graph is built with the combinator API below ([input], [add],
    [mul], …), each call creating a named node.  Feedback loops are tied
    with {!delay} + {!connect_delay}: declare the delay first (so it can
    be referenced), then connect its input once the loop body exists —
    the textual analogue of drawing the feedback arc last.

    The module also contains a cycle-accurate interpreter ({!simulate}),
    used by tests to check that the static analyses are sound with
    respect to actual execution. *)

type t = {
  mutable nodes : Node.t list;  (** reversed *)
  mutable n : int;
  mutable outputs : (string * int) list;  (** declared outputs, reversed *)
  mutable pending_delays : int list;  (** delays awaiting [connect_delay] *)
}

type id = int

let create () = { nodes = []; n = 0; outputs = []; pending_delays = [] }

let node_count t = t.n

let nodes t = List.rev t.nodes

let node t id =
  match List.find_opt (fun (n : Node.t) -> n.Node.id = id) t.nodes with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Graph.node: no node %d" id)

let fresh t ~name ~op ~inputs =
  if List.length inputs <> Node.arity op then
    invalid_arg
      (Printf.sprintf "Graph: %s expects %d inputs, got %d" (Node.op_name op)
         (Node.arity op) (List.length inputs));
  List.iter (fun i -> ignore (node t i)) inputs;
  let n = { Node.id = t.n; name; op; inputs } in
  t.nodes <- n :: t.nodes;
  t.n <- t.n + 1;
  n.Node.id

(* --- builders --------------------------------------------------------- *)

let input t name ~lo ~hi =
  fresh t ~name ~op:(Node.Input (Interval.make lo hi)) ~inputs:[]

let const t ?name c =
  let name = Option.value name ~default:(Printf.sprintf "c%g" c) in
  fresh t ~name ~op:(Node.Const c) ~inputs:[]

let add t ?(name = "add") a b = fresh t ~name ~op:Node.Add ~inputs:[ a; b ]
let sub t ?(name = "sub") a b = fresh t ~name ~op:Node.Sub ~inputs:[ a; b ]
let mul t ?(name = "mul") a b = fresh t ~name ~op:Node.Mul ~inputs:[ a; b ]
let div t ?(name = "div") a b = fresh t ~name ~op:Node.Div ~inputs:[ a; b ]
let neg t ?(name = "neg") a = fresh t ~name ~op:Node.Neg ~inputs:[ a ]
let abs t ?(name = "abs") a = fresh t ~name ~op:Node.Abs ~inputs:[ a ]
let min_ t ?(name = "min") a b = fresh t ~name ~op:Node.Min ~inputs:[ a; b ]
let max_ t ?(name = "max") a b = fresh t ~name ~op:Node.Max ~inputs:[ a; b ]

let shift t ?(name = "shl") a k =
  fresh t ~name ~op:(Node.Shift k) ~inputs:[ a ]

let quantize t ?(name = "q") dt a =
  fresh t ~name ~op:(Node.Quantize dt) ~inputs:[ a ]

let saturate t ?(name = "sat") a ~lo ~hi =
  fresh t ~name ~op:(Node.Saturate (Interval.make lo hi)) ~inputs:[ a ]

let select t ?(name = "sel") cond a b =
  fresh t ~name ~op:Node.Select ~inputs:[ cond; a; b ]

(** Name an existing expression after the signal it drives. *)
let alias t ~name src = fresh t ~name ~op:Node.Alias ~inputs:[ src ]

(** Declare a unit delay whose input is connected later (feedback). *)
let delay t ?(init = 0.0) name =
  (* arity is 1 but the input is unknown yet: use a placeholder self-loop
     id fixed up by [connect_delay]. *)
  let id = t.n in
  let n = { Node.id; name; op = Node.Delay init; inputs = [ id ] } in
  t.nodes <- n :: t.nodes;
  t.n <- t.n + 1;
  t.pending_delays <- id :: t.pending_delays;
  id

(** [connect_delay t d src] — tie the loop: delay [d] now registers
    [src] each cycle. *)
let connect_delay t d src =
  if not (List.mem d t.pending_delays) then
    invalid_arg "Graph.connect_delay: not a pending delay";
  ignore (node t src);
  t.nodes <-
    List.map
      (fun (n : Node.t) ->
        if n.Node.id = d then { n with Node.inputs = [ src ] } else n)
      t.nodes;
  t.pending_delays <- List.filter (fun x -> x <> d) t.pending_delays

(** A delay already fed by an existing node (feed-forward delay lines). *)
let delay_of t ?(init = 0.0) name src =
  fresh t ~name ~op:(Node.Delay init) ~inputs:[ src ]

let mark_output t name id =
  ignore (node t id);
  t.outputs <- (name, id) :: t.outputs

(** Delay nodes still awaiting {!connect_delay}.  A pending delay is a
    self-loop placeholder, which as-is denotes a register that holds its
    value forever — trace extraction leaves never-written registers in
    exactly that state on purpose. *)
let pending_ids t = t.pending_delays

(** Accept a pending delay's self-loop as final (a hold register). *)
let seal_delay t d =
  if not (List.mem d t.pending_delays) then
    invalid_arg "Graph.seal_delay: not a pending delay";
  t.pending_delays <- List.filter (fun x -> x <> d) t.pending_delays

let outputs t = List.rev t.outputs

let state_cone t =
  let ns = Array.of_list (nodes t) in
  let n = Array.length ns in
  (* [root.(i)]: node [i] with its alias chain dissolved.  An alias
     reads an earlier node, so one forward pass resolves every chain. *)
  let root = Array.make n 0 in
  Array.iteri
    (fun i (nd : Node.t) ->
      root.(i) <-
        (match nd.Node.op with
        | Node.Alias -> root.(List.hd nd.Node.inputs)
        | _ -> i))
    ns;
  (* the backward cone of every input, register and cast; a delay's
     source may be a forward reference, hence a worklist *)
  let keep = Array.make n false in
  let rec mark = function
    | [] -> ()
    | i :: rest ->
        let i = root.(i) in
        if keep.(i) then mark rest
        else begin
          keep.(i) <- true;
          mark (List.rev_append ns.(i).Node.inputs rest)
        end
  in
  mark
    (List.filter_map
       (fun (nd : Node.t) ->
         match nd.Node.op with
         | Node.Input _ | Node.Delay _ | Node.Quantize _ -> Some nd.Node.id
         | _ -> None)
       (Array.to_list ns));
  let id = Array.make n (-1) and kept = ref 0 in
  Array.iteri
    (fun i k ->
      if k then begin
        id.(i) <- !kept;
        incr kept
      end)
    keep;
  let nodes =
    Array.fold_left
      (fun acc (nd : Node.t) ->
        if keep.(nd.Node.id) then
          {
            nd with
            Node.id = id.(nd.Node.id);
            inputs = List.map (fun j -> id.(root.(j))) nd.Node.inputs;
          }
          :: acc
        else acc)
      [] ns
  in
  {
    nodes;
    n = !kept;
    outputs = [];
    pending_delays = List.map (fun d -> id.(d)) t.pending_delays;
  }

(* --- canonical serialization ------------------------------------------- *)

(* Hex-float literals (%h) are exact: two graphs render identically iff
   every numeric parameter is bit-identical, which is exactly the
   property a content-addressed evaluation cache keys on.  Non-finite
   bounds (open input ranges) render through %h too ("inf"/"nan").
   The rendering writes straight into buffers: the chunks of a
   template are rendered once per lane block, its holes once per
   candidate key. *)
let add_hex b v =
  Buffer.add_char b '"';
  Buffer.add_string b (Printf.sprintf "%h" v);
  Buffer.add_char b '"'

(* A string as Printf's [%S] renders it. *)
let add_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

let add_range b op iv =
  Buffer.add_string b "{\"op\": \"";
  Buffer.add_string b op;
  Buffer.add_string b "\", \"lo\": ";
  add_hex b (Interval.lo iv);
  Buffer.add_string b ", \"hi\": ";
  add_hex b (Interval.hi iv);
  Buffer.add_char b '}'

let add_op_json b (op : Node.op) =
  match op with
  | Node.Input iv -> add_range b "input" iv
  | Node.Const c ->
      Buffer.add_string b "{\"op\": \"const\", \"c\": ";
      add_hex b c;
      Buffer.add_char b '}'
  | Node.Add -> Buffer.add_string b "{\"op\": \"add\"}"
  | Node.Sub -> Buffer.add_string b "{\"op\": \"sub\"}"
  | Node.Mul -> Buffer.add_string b "{\"op\": \"mul\"}"
  | Node.Div -> Buffer.add_string b "{\"op\": \"div\"}"
  | Node.Neg -> Buffer.add_string b "{\"op\": \"neg\"}"
  | Node.Abs -> Buffer.add_string b "{\"op\": \"abs\"}"
  | Node.Min -> Buffer.add_string b "{\"op\": \"min\"}"
  | Node.Max -> Buffer.add_string b "{\"op\": \"max\"}"
  | Node.Shift k ->
      Buffer.add_string b "{\"op\": \"shift\", \"k\": ";
      Buffer.add_string b (string_of_int k);
      Buffer.add_char b '}'
  | Node.Delay init ->
      Buffer.add_string b "{\"op\": \"delay\", \"init\": ";
      add_hex b init;
      Buffer.add_char b '}'
  | Node.Quantize dt ->
      Buffer.add_string b "{\"op\": \"quantize\", \"dtype\": ";
      add_quoted b (Fixpt.Dtype.to_string dt);
      Buffer.add_char b '}'
  | Node.Saturate iv -> add_range b "saturate" iv
  | Node.Select -> Buffer.add_string b "{\"op\": \"select\"}"
  | Node.Alias -> Buffer.add_string b "{\"op\": \"alias\"}"

type template = { chunks : string array; holes : Node.t array }

(* One renderer for both: the bytes between two holes are a chunk, so a
   template without holes is the canonical JSON as its one chunk. *)
let template t ~hole =
  let b = Buffer.create 4096 in
  let chunks = ref [] and holes = ref [] in
  Buffer.add_string b "{\"nodes\": [";
  List.iteri
    (fun i (n : Node.t) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b "{\"id\": ";
      Buffer.add_string b (string_of_int n.Node.id);
      Buffer.add_string b ", \"name\": ";
      add_quoted b n.Node.name;
      Buffer.add_string b ", \"node\": ";
      if hole n then begin
        chunks := Buffer.contents b :: !chunks;
        holes := n :: !holes;
        Buffer.clear b
      end
      else add_op_json b n.Node.op;
      Buffer.add_string b ", \"inputs\": [";
      List.iteri
        (fun j id ->
          if j > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (string_of_int id))
        n.Node.inputs;
      Buffer.add_string b "]}")
    (nodes t);
  Buffer.add_string b "], \"outputs\": [";
  List.iteri
    (fun i (name, id) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b "{\"name\": ";
      add_quoted b name;
      Buffer.add_string b ", \"id\": ";
      Buffer.add_string b (string_of_int id);
      Buffer.add_char b '}')
    (outputs t);
  Buffer.add_string b "]}";
  {
    chunks = Array.of_list (List.rev (Buffer.contents b :: !chunks));
    holes = Array.of_list (List.rev !holes);
  }

let add_filled b tpl op =
  Buffer.add_string b tpl.chunks.(0);
  Array.iteri
    (fun i nd ->
      add_op_json b (op nd);
      Buffer.add_string b tpl.chunks.(i + 1))
    tpl.holes

let canonical_json t = (template t ~hole:(fun _ -> false)).chunks.(0)

(** Check the graph is complete (no dangling feedback delays). *)
let validate t =
  match t.pending_delays with
  | [] -> Ok ()
  | ds ->
      Error
        (Printf.sprintf "unconnected delay nodes: %s"
           (String.concat ", "
              (List.map (fun d -> (node t d).Node.name) ds)))

let validate_exn t =
  match validate t with Ok () -> () | Error m -> invalid_arg m

(* --- interpretation --------------------------------------------------- *)

(** [simulate t ~steps ~inputs] runs the graph cycle-accurately.
    [inputs name cycle] supplies each input node's sample.  Returns, for
    every node, the trace of its values as [(name, float array)] in node
    order.  Delays output their initial value at cycle 0. *)
let simulate t ~steps ~inputs =
  validate_exn t;
  let ns = Array.of_list (nodes t) in
  let values = Array.make (Array.length ns) 0.0 in
  let state =
    Array.map
      (fun (n : Node.t) ->
        match n.Node.op with Node.Delay init -> init | _ -> 0.0)
      ns
  in
  let traces = Array.map (fun (n : Node.t) -> (n, Array.make steps 0.0)) ns in
  (* evaluation order: node id order is construction order, which is
     topological for everything except delay feedback arcs — exactly the
     dependence structure a delay breaks. *)
  for step = 0 to steps - 1 do
    Array.iteri
      (fun i (n : Node.t) ->
        let args = List.map (fun j -> values.(j)) n.Node.inputs in
        values.(i) <-
          (match n.Node.op with
          | Node.Input _ -> inputs n.Node.name step
          | op -> Node.eval_value op args ~state:state.(i)))
      ns;
    (* commit delay registers from their (already evaluated) inputs *)
    Array.iteri
      (fun i (n : Node.t) ->
        match n.Node.op with
        | Node.Delay _ ->
            let src = List.hd n.Node.inputs in
            state.(i) <- values.(src)
        | _ -> ())
      ns;
    Array.iter (fun (n, tr) -> tr.(step) <- values.(n.Node.id)) traces
  done;
  Array.to_list (Array.map (fun (n, tr) -> (n.Node.name, tr)) traces)
