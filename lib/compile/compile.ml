(** Flat-schedule compilation of a signal-flow graph — see the
    interface for the design rationale.

    Layout: node [i]'s lane-[l] value lives at [fx.(i * batch + l)]
    (structure-of-arrays).  Delay registers get a separate
    double-buffered block indexed by a dense register number; the
    commit phase writes next-state into the shadow buffer and swaps
    the two, so a register's read in the {e next} step cannot observe a
    partially-committed store regardless of schedule position.

    Constants are materialized once at {!reset} (the interpreter
    re-evaluates [Const] every cycle to the same value, so hoisting is
    observationally identical), which keeps the per-tick instruction
    stream down to the data-dependent operations. *)

exception Cannot_compile of string

let () =
  Printexc.register_printer (function
    | Cannot_compile m -> Some (Printf.sprintf "Compile.Cannot_compile: %s" m)
    | _ -> None)

type feed = int -> float array -> int -> unit

(* One fused quantization point: the compiled cast of every lane (one
   shared record unless [~lane_dtype] retypes lanes) plus its overflow
   tallies (events summed over steps, like the clock-true simulator's
   per-signal [n_overflow]), per lane and over all lanes. *)
type quant = {
  qname : string;
  qs : Fixpt.Quantize.compiled array;  (* per lane *)
  ovf : int array;  (* per lane *)
  mutable total : int;  (* Σ ovf *)
}

(* The instruction stream.  [dst]/[a]/[b]/[c] are node slots (scaled by
   [batch] at execution time); [reg] is a dense delay-register number;
   [input] indexes the resolved stimulus row fillers; [k] indexes
   [quants]. *)
type instr =
  | Iinput of { dst : int; input : int }
  | Iadd of { dst : int; a : int; b : int }
  | Isub of { dst : int; a : int; b : int }
  | Imul of { dst : int; a : int; b : int }
  | Idiv of { dst : int; a : int; b : int }
  | Ineg of { dst : int; a : int }
  | Iabs of { dst : int; a : int }
  | Imin of { dst : int; a : int; b : int }
  | Imax of { dst : int; a : int; b : int }
  | Ishift of { dst : int; a : int; scale : float }
  | Idelay of { dst : int; reg : int }
  | Iquant of { dst : int; a : int; k : int }
  | Isat of { dst : int; a : int; lo : float; hi : float }
  | Isel of { dst : int; c : int; a : int; b : int }
  | Icopy of { dst : int; a : int }

type t = {
  batch : int;
  dual : bool;
  names : string array;  (* node id -> name *)
  program : instr array;
  input_names : string array;  (* input index -> node name *)
  consts : (int * float) array;  (* node slot, value: applied at reset *)
  quants : quant array;
  commits : int array;  (* register number -> its source node slot *)
  delay_inits : float array;  (* per register number *)
  fx : float array;  (* node_count * batch *)
  mutable regs : float array;  (* n_regs * batch, current state *)
  mutable regs_nxt : float array;  (* shadow buffer, swapped at commit *)
  fl : float array;  (* float-reference lattice; [||] unless dual *)
  mutable regs_fl : float array;
  mutable regs_fl_nxt : float array;
  scratch : Fixpt.Quantize.scratch;  (* program-private: domain-safe *)
  by_name : (string, int) Hashtbl.t;  (* name -> node id, last wins *)
}

let node_count t = Array.length t.names
let instr_count t = Array.length t.program
let find t name = Hashtbl.find_opt t.by_name name
let lattice t = t.fx

let ref_lattice t =
  if not t.dual then
    invalid_arg "Compile.ref_lattice: program compiled without ~dual:true";
  t.fl

let offset t ~id =
  if id < 0 || id >= Array.length t.names then invalid_arg "Compile.offset: id";
  id * t.batch

let overflows t =
  Array.to_list (Array.map (fun q -> (q.qname, q.total)) t.quants)

let overflow_count t = Array.fold_left (fun acc q -> acc + q.total) 0 t.quants

let lane_overflow_count t ~lane =
  if lane < 0 || lane >= t.batch then
    invalid_arg "Compile.lane_overflow_count: lane";
  Array.fold_left (fun acc q -> acc + q.ovf.(lane)) 0 t.quants

(* --- lowering ---------------------------------------------------------- *)

let compile ?(batch = 1) ?(dual = false) ?lane_dtype (g : Sfg.Graph.t) =
  if batch < 1 then invalid_arg "Compile.compile: batch < 1";
  (match Sfg.Graph.validate g with
  | Ok () -> ()
  | Error m -> raise (Cannot_compile m));
  let spanned = Trace.Spans.enabled () in
  let t0 = if spanned then Trace.Spans.now () else 0.0 in
  let ns = Array.of_list (Sfg.Graph.nodes g) in
  let n = Array.length ns in
  let names = Array.map (fun (nd : Sfg.Node.t) -> nd.Sfg.Node.name) ns in
  let by_name = Hashtbl.create (max 16 n) in
  Array.iteri (fun i name -> Hashtbl.replace by_name name i) names;
  let program = ref [] in
  let inputs = ref [] in
  let n_inputs = ref 0 in
  let consts = ref [] in
  let quants = ref [] in
  let n_quants = ref 0 in
  let commits = ref [] in
  let inits = ref [] in
  let n_regs = ref 0 in
  Array.iteri
    (fun i (nd : Sfg.Node.t) ->
      if nd.Sfg.Node.id <> i then
        raise (Cannot_compile "node ids are not dense in schedule order");
      let arg j =
        let s = List.nth nd.Sfg.Node.inputs j in
        (* the graph builder only references existing nodes, so any
           same-or-forward reference outside a delay is a broken
           schedule, not a user error *)
        (match nd.Sfg.Node.op with
        | Sfg.Node.Delay _ -> ()
        | _ ->
            if s >= i then
              raise
                (Cannot_compile
                   (Printf.sprintf "node %s reads forward reference %d"
                      nd.Sfg.Node.name s)));
        s
      in
      let emit ins = program := ins :: !program in
      match nd.Sfg.Node.op with
      | Sfg.Node.Input _ ->
          let input = !n_inputs in
          incr n_inputs;
          inputs := nd.Sfg.Node.name :: !inputs;
          emit (Iinput { dst = i; input })
      | Sfg.Node.Const c -> consts := (i, c) :: !consts
      | Sfg.Node.Add -> emit (Iadd { dst = i; a = arg 0; b = arg 1 })
      | Sfg.Node.Sub -> emit (Isub { dst = i; a = arg 0; b = arg 1 })
      | Sfg.Node.Mul -> emit (Imul { dst = i; a = arg 0; b = arg 1 })
      | Sfg.Node.Div -> emit (Idiv { dst = i; a = arg 0; b = arg 1 })
      | Sfg.Node.Neg -> emit (Ineg { dst = i; a = arg 0 })
      | Sfg.Node.Abs -> emit (Iabs { dst = i; a = arg 0 })
      | Sfg.Node.Min -> emit (Imin { dst = i; a = arg 0; b = arg 1 })
      | Sfg.Node.Max -> emit (Imax { dst = i; a = arg 0; b = arg 1 })
      | Sfg.Node.Shift k ->
          emit (Ishift { dst = i; a = arg 0; scale = 2.0 ** Float.of_int k })
      | Sfg.Node.Delay init ->
          let reg = !n_regs in
          incr n_regs;
          inits := init :: !inits;
          (* delay inputs may point anywhere, including forward: the
             register breaks the dependence *)
          let src = List.nth nd.Sfg.Node.inputs 0 in
          commits := src :: !commits;
          emit (Idelay { dst = i; reg })
      | Sfg.Node.Quantize dt ->
          let k = !n_quants in
          incr n_quants;
          quants :=
            ( nd,
              {
                qname = nd.Sfg.Node.name;
                qs = Array.make batch (Fixpt.Quantize.of_dtype dt);
                ovf = Array.make batch 0;
                total = 0;
              } )
            :: !quants;
          emit (Iquant { dst = i; a = arg 0; k })
      | Sfg.Node.Saturate lim ->
          emit
            (Isat
               { dst = i; a = arg 0; lo = Interval.lo lim; hi = Interval.hi lim })
      | Sfg.Node.Select ->
          emit (Isel { dst = i; c = arg 0; a = arg 1; b = arg 2 })
      | Sfg.Node.Alias -> emit (Icopy { dst = i; a = arg 0 }))
    ns;
  let quant_nodes = Array.of_list (List.rev !quants) in
  (* lane-major, so [lane_dtype ~lane] may prepare once per lane *)
  (match lane_dtype with
  | None -> ()
  | Some f ->
      for lane = 0 to batch - 1 do
        let dtype_of = f ~lane in
        Array.iter
          (fun (nd, q) -> q.qs.(lane) <- Fixpt.Quantize.of_dtype (dtype_of nd))
          quant_nodes
      done);
  let nr = !n_regs in
  let t =
    {
      batch;
      dual;
      names;
      program = Array.of_list (List.rev !program);
      input_names = Array.of_list (List.rev !inputs);
      consts = Array.of_list (List.rev !consts);
      quants = Array.map snd quant_nodes;
      commits = Array.of_list (List.rev !commits);
      delay_inits = Array.of_list (List.rev !inits);
      fx = Array.make (Stdlib.max 1 (n * batch)) 0.0;
      regs = Array.make (Stdlib.max 1 (nr * batch)) 0.0;
      regs_nxt = Array.make (Stdlib.max 1 (nr * batch)) 0.0;
      fl = (if dual then Array.make (Stdlib.max 1 (n * batch)) 0.0 else [||]);
      regs_fl =
        (if dual then Array.make (Stdlib.max 1 (nr * batch)) 0.0 else [||]);
      regs_fl_nxt =
        (if dual then Array.make (Stdlib.max 1 (nr * batch)) 0.0 else [||]);
      scratch = Fixpt.Quantize.create_scratch ();
      by_name;
    }
  in
  if spanned then
    Trace.Spans.record ~cat:"compile" ~tid:0 ~name:"compile"
      ~args:
        [
          ("nodes", string_of_int n);
          ("instrs", string_of_int (Array.length t.program));
          ("batch", string_of_int batch);
        ]
      ~t0 ~t1:(Trace.Spans.now ()) ();
  t

let reset t =
  let b = t.batch in
  Array.fill t.fx 0 (Array.length t.fx) 0.0;
  Array.iter
    (fun (slot, v) -> Array.fill t.fx (slot * b) b v)
    t.consts;
  Array.iteri
    (fun reg init -> Array.fill t.regs (reg * b) b init)
    t.delay_inits;
  Array.iter
    (fun q ->
      Array.fill q.ovf 0 b 0;
      q.total <- 0)
    t.quants;
  if t.dual then begin
    Array.fill t.fl 0 (Array.length t.fl) 0.0;
    Array.iter (fun (slot, v) -> Array.fill t.fl (slot * b) b v) t.consts;
    Array.iteri
      (fun reg init -> Array.fill t.regs_fl (reg * b) b init)
      t.delay_inits
  end

(* --- execution --------------------------------------------------------- *)

(* [Float.min]/[Float.max], restated here so their results are never
   boxed: a stdlib call with one boxed operand (an instruction's bound)
   and one unboxed (a lane value) boxes the lane value every time.  NaN
   propagates, and -0 orders below +0. *)
let[@inline] fmin (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

(* [fmax lo (fmin hi v)] for bounds that are never NaN ({!Interval.make}
   rejects it), as compares with no intermediate float: strictly inside
   is the common case; otherwise NaN passes through, and [below] is the
   order [fmin]/[fmax] use, -0 below +0. *)
let[@inline] below (x : float) y =
  x < y || (x = y && Float.sign_bit x && not (Float.sign_bit y))

let[@inline] clamp lo hi v =
  if v > lo && v < hi then v
  else if Float.is_nan v then v
  else if below hi v then if below hi lo then lo else hi
  else if below v lo then lo
  else v

(* [b] lanes, 1 <= b <= 8: the first four by straight-line stores,
   since a loop's per-lane overhead is most of the cost of so short a
   copy. *)
let copy_lanes (src : float array) so (dst : float array) o b =
  Array.unsafe_set dst o (Array.unsafe_get src so);
  if b > 1 then Array.unsafe_set dst (o + 1) (Array.unsafe_get src (so + 1));
  if b > 2 then Array.unsafe_set dst (o + 2) (Array.unsafe_get src (so + 2));
  if b > 3 then Array.unsafe_set dst (o + 3) (Array.unsafe_get src (so + 3));
  for l = 4 to b - 1 do
    Array.unsafe_set dst (o + l) (Array.unsafe_get src (so + l))
  done

(* A row of [b] lanes from [src.(so)] to [dst.(o)].  A narrow lane
   block's rows are copied in OCaml, which costs less than
   [Array.blit]'s C call at a few lanes; wide rows keep its memmove.
   Loop-free, so the compiler inlines the choice at each call. *)
let[@inline] copy_row (src : float array) so (dst : float array) o b =
  if b <= 8 then copy_lanes src so dst o b else Array.blit src so dst o b

(* [Select] into lattice [v] (either one), steered by the fixed
   lattice's condition row [fx.(oc)]. *)
let sel_row (fx : float array) oc (v : float array) o oa ob b =
  for l = 0 to b - 1 do
    Array.unsafe_set v (o + l)
      (if Array.unsafe_get fx (oc + l) >= 0.5 then Array.unsafe_get v (oa + l)
       else Array.unsafe_get v (ob + l))
  done

(* The delay commit: each register's next state from its source row,
   then the buffer swap. *)
let commit t =
  let b = t.batch and src = t.commits in
  let nxt = t.regs_nxt in
  for r = 0 to Array.length src - 1 do
    copy_row t.fx (Array.unsafe_get src r * b) nxt (r * b) b
  done;
  t.regs_nxt <- t.regs;
  t.regs <- nxt;
  if t.dual then begin
    let nxt = t.regs_fl_nxt in
    for r = 0 to Array.length src - 1 do
      copy_row t.fl (Array.unsafe_get src r * b) nxt (r * b) b
    done;
    t.regs_fl_nxt <- t.regs_fl;
    t.regs_fl <- nxt
  end

(* One step: each instruction over every lane of the fixed lattice and,
   when [dual], right after it of the float-reference lattice, then the
   delay commit.  The float lattice runs the same arithmetic, with
   [Quantize]/[Saturate] identities and [Select] steered by the fixed
   lattice's condition (§4.2: decisions follow the implementation).
   The [feeds] are the pre-resolved stimulus row fillers; the input row
   is mirrored into the float lattice, so the stimulus is sampled once
   per step.  Each case reads the lattice arrays from [t] itself: bound
   once for the whole step, they would be spilled across this
   function's calls and reloaded from the stack in every lane loop. *)
let tick t ~step (feeds : feed array) =
  let b = t.batch and dual = t.dual and prog = t.program in
  for i = 0 to Array.length prog - 1 do
    match Array.unsafe_get prog i with
    | Iinput { dst; input } ->
        let fx = t.fx in
        let o = dst * b in
        (Array.unsafe_get feeds input) step fx o;
        if dual then copy_row fx o t.fl o b
    | Iadd { dst; a; b = rb } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b and ob = rb * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l)
            (Array.unsafe_get fx (oa + l) +. Array.unsafe_get fx (ob + l))
        done;
        if dual then
          let fl = t.fl in
          for l = 0 to b - 1 do
            Array.unsafe_set fl (o + l)
              (Array.unsafe_get fl (oa + l) +. Array.unsafe_get fl (ob + l))
          done
    | Isub { dst; a; b = rb } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b and ob = rb * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l)
            (Array.unsafe_get fx (oa + l) -. Array.unsafe_get fx (ob + l))
        done;
        if dual then
          let fl = t.fl in
          for l = 0 to b - 1 do
            Array.unsafe_set fl (o + l)
              (Array.unsafe_get fl (oa + l) -. Array.unsafe_get fl (ob + l))
          done
    | Imul { dst; a; b = rb } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b and ob = rb * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l)
            (Array.unsafe_get fx (oa + l) *. Array.unsafe_get fx (ob + l))
        done;
        if dual then
          let fl = t.fl in
          for l = 0 to b - 1 do
            Array.unsafe_set fl (o + l)
              (Array.unsafe_get fl (oa + l) *. Array.unsafe_get fl (ob + l))
          done
    | Idiv { dst; a; b = rb } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b and ob = rb * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l)
            (Array.unsafe_get fx (oa + l) /. Array.unsafe_get fx (ob + l))
        done;
        if dual then
          let fl = t.fl in
          for l = 0 to b - 1 do
            Array.unsafe_set fl (o + l)
              (Array.unsafe_get fl (oa + l) /. Array.unsafe_get fl (ob + l))
          done
    | Ineg { dst; a } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l) (-.Array.unsafe_get fx (oa + l))
        done;
        if dual then
          let fl = t.fl in
          for l = 0 to b - 1 do
            Array.unsafe_set fl (o + l) (-.Array.unsafe_get fl (oa + l))
          done
    | Iabs { dst; a } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l)
            (Float.abs (Array.unsafe_get fx (oa + l)))
        done;
        if dual then
          let fl = t.fl in
          for l = 0 to b - 1 do
            Array.unsafe_set fl (o + l)
              (Float.abs (Array.unsafe_get fl (oa + l)))
          done
    | Imin { dst; a; b = rb } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b and ob = rb * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l)
            (fmin (Array.unsafe_get fx (oa + l)) (Array.unsafe_get fx (ob + l)))
        done;
        if dual then
          let fl = t.fl in
          for l = 0 to b - 1 do
            Array.unsafe_set fl (o + l)
              (fmin
                 (Array.unsafe_get fl (oa + l))
                 (Array.unsafe_get fl (ob + l)))
          done
    | Imax { dst; a; b = rb } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b and ob = rb * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l)
            (fmax (Array.unsafe_get fx (oa + l)) (Array.unsafe_get fx (ob + l)))
        done;
        if dual then
          let fl = t.fl in
          for l = 0 to b - 1 do
            Array.unsafe_set fl (o + l)
              (fmax
                 (Array.unsafe_get fl (oa + l))
                 (Array.unsafe_get fl (ob + l)))
          done
    | Ishift { dst; a; scale } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l) (Array.unsafe_get fx (oa + l) *. scale)
        done;
        if dual then
          let fl = t.fl in
          for l = 0 to b - 1 do
            Array.unsafe_set fl (o + l) (Array.unsafe_get fl (oa + l) *. scale)
          done
    | Idelay { dst; reg } ->
        let o = dst * b and r = reg * b in
        copy_row t.regs r t.fx o b;
        if dual then copy_row t.regs_fl r t.fl o b
    | Iquant { dst; a; k } ->
        let qq = t.quants.(k) in
        let o = dst * b and oa = a * b in
        if dual then copy_row t.fl oa t.fl o b;
        qq.total <-
          qq.total
          + Fixpt.Quantize.exec_lanes qq.qs t.fx ~src:oa ~dst:o ~ovf:qq.ovf
              t.scratch
    | Isat { dst; a; lo; hi } ->
        let fx = t.fx in
        let o = dst * b and oa = a * b in
        for l = 0 to b - 1 do
          Array.unsafe_set fx (o + l)
            (clamp lo hi (Array.unsafe_get fx (oa + l)))
        done;
        if dual then copy_row t.fl oa t.fl o b
    | Isel { dst; c; a; b = rb } ->
        let o = dst * b and oc = c * b and oa = a * b and ob = rb * b in
        sel_row t.fx oc t.fx o oa ob b;
        if dual then sel_row t.fx oc t.fl o oa ob b
    | Icopy { dst; a } ->
        let o = dst * b and oa = a * b in
        copy_row t.fx oa t.fx o b;
        if dual then copy_row t.fl oa t.fl o b
  done;
  commit t

let run ?on_step t ~steps ~inputs =
  if steps < 0 then invalid_arg "Compile.run: steps < 0";
  let spanned = Trace.Spans.enabled () in
  let t0 = if spanned then Trace.Spans.now () else 0.0 in
  reset t;
  let feeds = Array.map (fun name -> inputs name) t.input_names in
  for step = 0 to steps - 1 do
    tick t ~step feeds;
    match on_step with Some f -> f step | None -> ()
  done;
  if spanned then
    Trace.Spans.record ~cat:"compile" ~tid:0 ~name:"exec"
      ~args:
        [
          ("steps", string_of_int steps);
          ("batch", string_of_int t.batch);
          ("samples", string_of_int (steps * t.batch));
        ]
      ~t0 ~t1:(Trace.Spans.now ()) ();
  ()

(* --- single-step drive ------------------------------------------------- *)

let input_names t = Array.copy t.input_names
let register_count t = Array.length t.delay_inits
let initial_state t = Array.copy t.delay_inits

let read_state t ~lane dst =
  let nr = Array.length t.delay_inits in
  if Array.length dst <> nr then
    invalid_arg "Compile.read_state: destination length <> register_count";
  if lane < 0 || lane >= t.batch then invalid_arg "Compile.read_state: lane";
  let b = t.batch in
  for r = 0 to nr - 1 do
    Array.unsafe_set dst r (Array.unsafe_get t.regs ((r * b) + lane))
  done

let write_state t ~lane src =
  let nr = Array.length t.delay_inits in
  if Array.length src <> nr then
    invalid_arg "Compile.write_state: source length <> register_count";
  if lane < 0 || lane >= t.batch then invalid_arg "Compile.write_state: lane";
  let b = t.batch in
  for r = 0 to nr - 1 do
    Array.unsafe_set t.regs ((r * b) + lane) (Array.unsafe_get src r)
  done

let step_once t ~step ~inputs =
  tick t ~step (Array.map inputs t.input_names)

let traces t ~steps ~inputs =
  let n = node_count t in
  let b = t.batch in
  let out =
    Array.init n (fun _ -> Array.init b (fun _ -> Array.make steps 0.0))
  in
  run t ~steps ~inputs ~on_step:(fun s ->
      for i = 0 to n - 1 do
        let row = Array.unsafe_get out i in
        let base = i * b in
        for l = 0 to b - 1 do
          (Array.unsafe_get row l).(s) <- Array.unsafe_get t.fx (base + l)
        done
      done);
  Array.to_list (Array.mapi (fun i tr -> (t.names.(i), tr)) out)
