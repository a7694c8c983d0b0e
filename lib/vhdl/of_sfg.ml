(** VHDL generation from a refined signal-flow graph.

    Input: a {!Sfg.Graph} plus a fixed-point format per node (normally
    the product of the refinement flow).  Every node becomes a [signed]
    vector holding its value's mantissa (value = mantissa · 2^lsb);
    binary-point alignment becomes explicit shifts, LSB modes become
    shift/round logic and MSB modes become wrap ([resize]) or saturate
    ([sat]) — the hardware the paper's §5 rules are choosing between.

    Unsupported in hardware generation: [Div] (no combinational divider
    in scope; interpolator-style designs quantize reciprocals instead —
    raises {!Unsupported}). *)

exception Unsupported of string

type format_map = string -> Fixpt.Qformat.t

(* Working width for intermediate arithmetic before the final resize. *)
let work_width = 48

(* The one name rule: every character outside [A-Za-z0-9_] becomes
   '_', runs of '_' collapse to one and a trailing '_' is dropped, so
   "s_d[0]_q" is "s_d_0_q" and "s_mul~1" is "s_mul_1". *)
let vhdl_name s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      let c =
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_'
      in
      let n = Buffer.length b in
      if not (c = '_' && n > 0 && Buffer.nth b (n - 1) = '_') then
        Buffer.add_char b c)
    s;
  let n = Buffer.length b in
  if n > 1 && Buffer.nth b (n - 1) = '_' then Buffer.sub b 0 (n - 1)
  else Buffer.contents b

(* VHDL identifiers ignore case: two node names that give the same one
   would drive one signal twice. *)
let check_distinct what names =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun name ->
      let id = String.lowercase_ascii (vhdl_name (what ^ name)) in
      match Hashtbl.find_opt seen id with
      | Some other when not (String.equal other name) ->
          invalid_arg
            (Printf.sprintf
               "Of_sfg.entity: nodes %S and %S both give the VHDL \
                identifier %s"
               other name id)
      | _ -> Hashtbl.replace seen id name)
    names

(* Mantissa expression of node [name] aligned from its own LSB to
   [to_lsb], in the working width. *)
let align e ~from_lsb ~to_lsb =
  let e = Ast.resize e work_width in
  if from_lsb = to_lsb then e
  else if from_lsb > to_lsb then Ast.shift_left_e e (from_lsb - to_lsb)
  else Ast.shift_right_e e (to_lsb - from_lsb)

let const_mant c fmt =
  Int64.to_int (Fixpt.Quantize.nearest_code ~step:(Fixpt.Qformat.step fmt) c)

(* Final write into a node's format: optional saturation. *)
let finalize ~saturating e width =
  if saturating then Ast.Call ("sat", [ e; Ast.Int_lit width ])
  else Ast.resize e width

(** Generate an entity from the graph.  [formats] assigns a
    {!Fixpt.Qformat} to every node name; [saturating] names the nodes
    whose MSB mode is saturation (from the refinement decisions). *)
let entity ?(saturating = fun (_ : string) -> false) ~name
    ~(formats : format_map) graph =
  Sfg.Graph.validate_exn graph;
  let nodes = Sfg.Graph.nodes graph in
  check_distinct "s_" (List.map (fun (n : Sfg.Node.t) -> n.Sfg.Node.name) nodes);
  check_distinct "o_" (List.map fst (Sfg.Graph.outputs graph));
  let fmt_of (n : Sfg.Node.t) = formats n.Sfg.Node.name in
  let lsb_of n = Fixpt.Qformat.lsb_pos (fmt_of n) in
  let node_by_id i = Sfg.Graph.node graph i in
  let sig_of (n : Sfg.Node.t) = vhdl_name ("s_" ^ n.Sfg.Node.name) in
  let ports = ref [] and signals = ref [] and body = ref [] in
  let regs = ref [] in
  let read (n : Sfg.Node.t) ~to_lsb =
    align (Ast.id (sig_of n)) ~from_lsb:(lsb_of n) ~to_lsb
  in
  List.iter
    (fun (n : Sfg.Node.t) ->
      let fmt = fmt_of n in
      let width = Fixpt.Qformat.n fmt in
      let lsb = Fixpt.Qformat.lsb_pos fmt in
      let me = sig_of n in
      let arg i = node_by_id (List.nth n.Sfg.Node.inputs i) in
      let sat = saturating n.Sfg.Node.name in
      let comb e = body := Ast.Assign (me, finalize ~saturating:sat e width) :: !body in
      (match n.Sfg.Node.op with
      | Sfg.Node.Input _ ->
          ports :=
            { Ast.port_name = vhdl_name ("i_" ^ n.Sfg.Node.name);
              dir = Ast.In; port_width = width }
            :: !ports;
          body :=
            Ast.Assign
              (me, Ast.id (vhdl_name ("i_" ^ n.Sfg.Node.name)))
            :: !body
      | Sfg.Node.Const c ->
          body :=
            Ast.Assign
              (me, Ast.Call ("to_signed", [ Ast.Int_lit (const_mant c fmt); Ast.Int_lit width ]))
            :: !body
      | Sfg.Node.Add -> comb Ast.(read (arg 0) ~to_lsb:lsb +^ read (arg 1) ~to_lsb:lsb)
      | Sfg.Node.Sub -> comb Ast.(read (arg 0) ~to_lsb:lsb -^ read (arg 1) ~to_lsb:lsb)
      | Sfg.Node.Mul ->
          (* product mantissa: m_a·m_b at lsb_a+lsb_b, then align *)
          let a = arg 0 and b = arg 1 in
          let product = Ast.(Paren (Id (sig_of a) *^ Id (sig_of b))) in
          comb
            (align product
               ~from_lsb:(lsb_of a + lsb_of b)
               ~to_lsb:lsb)
      | Sfg.Node.Div ->
          raise (Unsupported (Printf.sprintf "division at node %s" n.Sfg.Node.name))
      | Sfg.Node.Neg -> comb (Ast.Unop ("-", Ast.Paren (read (arg 0) ~to_lsb:lsb)))
      | Sfg.Node.Abs -> comb (Ast.abs_e (read (arg 0) ~to_lsb:lsb))
      | Sfg.Node.Min ->
          let a = read (arg 0) ~to_lsb:lsb and b = read (arg 1) ~to_lsb:lsb in
          comb (Ast.When (Ast.Binop ("<", Ast.Paren a, Ast.Paren b), Ast.Paren a, Ast.Paren b))
      | Sfg.Node.Max ->
          let a = read (arg 0) ~to_lsb:lsb and b = read (arg 1) ~to_lsb:lsb in
          comb (Ast.When (Ast.Binop (">", Ast.Paren a, Ast.Paren b), Ast.Paren a, Ast.Paren b))
      | Sfg.Node.Shift k -> comb (align (Ast.id (sig_of (arg 0))) ~from_lsb:(lsb_of (arg 0) + k) ~to_lsb:lsb)
      | Sfg.Node.Delay _ ->
          regs := (me, read (arg 0) ~to_lsb:lsb, width, sat) :: !regs
      | Sfg.Node.Quantize dt ->
          let src = arg 0 in
          let rounded =
            match Fixpt.Dtype.round dt with
            | Fixpt.Round_mode.Floor -> read src ~to_lsb:lsb
            | Fixpt.Round_mode.Round ->
                (* align to one bit below the target, add half an LSB,
                   then truncate that bit *)
                if lsb_of src < lsb then
                  let wide = align (Ast.id (sig_of src)) ~from_lsb:(lsb_of src) ~to_lsb:(lsb - 1) in
                  Ast.shift_right_e (Ast.Paren Ast.(wide +^ Int_lit 1)) 1
                else read src ~to_lsb:lsb
          in
          let saturates =
            Fixpt.Overflow_mode.is_saturating (Fixpt.Dtype.overflow dt)
          in
          body :=
            Ast.Assign (me, finalize ~saturating:saturates rounded width)
            :: !body
      | Sfg.Node.Alias ->
          body :=
            Ast.Assign (me, finalize ~saturating:sat (read (arg 0) ~to_lsb:lsb) width)
            :: !body
      | Sfg.Node.Saturate _ ->
          body :=
            Ast.Assign
              (me, finalize ~saturating:true (read (arg 0) ~to_lsb:lsb) width)
            :: !body
      | Sfg.Node.Select ->
          let c = arg 0 in
          let a = read (arg 1) ~to_lsb:lsb and b = read (arg 2) ~to_lsb:lsb in
          comb
            (Ast.When
               ( Ast.Binop (">=", Ast.Id (sig_of c), Ast.Call ("to_signed", [ Ast.Int_lit 0; Ast.Int_lit (Fixpt.Qformat.n (fmt_of c)) ])),
                 Ast.Paren a,
                 Ast.Paren b )));
      signals :=
        { Ast.sig_name = me; width;
          comment = Some (Fixpt.Qformat.to_string fmt) }
        :: !signals)
    nodes;
  (* outputs: drive ports from marked output nodes *)
  List.iter
    (fun (oname, oid) ->
      let n = node_by_id oid in
      let width = Fixpt.Qformat.n (fmt_of n) in
      let port = vhdl_name ("o_" ^ oname) in
      ports := { Ast.port_name = port; dir = Ast.Out; port_width = width } :: !ports;
      body := Ast.Assign (port, Ast.id (sig_of n)) :: !body)
    (Sfg.Graph.outputs graph);
  let processes =
    match !regs with
    | [] -> []
    | rs ->
        [
          {
            Ast.label = "registers";
            clock = "clk";
            reset = None;
            assigns =
              List.rev_map
                (fun (t, e, w, sat) ->
                  (t, finalize ~saturating:sat e w))
                rs;
          };
        ]
  in
  {
    Ast.entity_name = vhdl_name name;
    ports = List.rev !ports;
    signals = List.rev !signals;
    body = List.rev !body;
    processes;
  }

(** Uniform format map for quick tests: every node [<n, f, tc>]. *)
let uniform_formats ~n ~f : format_map =
 fun _ -> Fixpt.Qformat.make ~n ~f Fixpt.Sign_mode.Tc

(** Format map from refinement-flow types, with a default for nodes the
    flow did not type. *)
let formats_of_types ?(default = Fixpt.Qformat.make ~n:16 ~f:12 Fixpt.Sign_mode.Tc)
    types : format_map =
 fun name ->
  match List.assoc_opt name types with
  | Some dt -> Fixpt.Dtype.fmt dt
  | None -> default
