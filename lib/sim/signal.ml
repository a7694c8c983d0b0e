(** Signal objects — the paper's [sig] and [reg] (§2.1, §2.3).

    A signal is declared either floating-point ([create env name]) or
    fixed-point ([create env name ~dtype]).  Arithmetic happens on
    {!Value.t} triples via {!Ops}; this module implements the two
    monitored end points:

    - {!value} (reading): counts the access and yields the triple
      [(fx, fl, propagated range)];
    - {!assign} (writing): performs the quantization cast of §2.2 and
      feeds all three monitors — statistic range, propagated range, and
      consumed/produced error statistics (§4).

    The two refinement annotations are {!range} (seed/override for range
    propagation; also the explosion-breaker for feedback signals) and
    {!error} (overrule the produced error of a diverging feedback signal
    with uniform noise, §4.2). *)

type t = Env.entry

let name (t : t) = t.Env.name
let dtype (t : t) = t.Env.dtype
let kind (t : t) = t.Env.kind

(** Declare a combinational signal ([sig]).  Floating-point unless
    [~dtype] is given. *)
let create env ?dtype name : t = Env.register env ~name ~kind:Env.Comb ~dtype

(** Declare a registered signal ([reg]): writes are committed by
    [Env.tick]. *)
let create_reg env ?dtype name : t =
  Env.register env ~name ~kind:Env.Registered ~dtype

(** Retype a signal (the refinement flow rewrites types between
    iterations).  Recompiles the cached quantizer. *)
let set_dtype (t : t) dt = Env.set_entry_dtype t (Some dt)

let clear_dtype (t : t) = Env.set_entry_dtype t None

(** [range t lo hi] — explicit range annotation.  Reads propagate exactly
    [[lo, hi]] regardless of what assignments accumulated; this is the
    §4.1 remedy for feedback-driven MSB explosion. *)
let range (t : t) lo hi = t.Env.explicit_range <- Some (Interval.make lo hi)

let clear_range (t : t) = t.Env.explicit_range <- None

(** [error t h] — overrule the produced difference error with a uniform
    random variable in [[-h, h]] (σ = h/√3): breaks float/fixed
    divergence on sensitive feedback signals (§4.2). *)
let error (t : t) h =
  if h < 0.0 then invalid_arg "Signal.error: negative half-width";
  t.Env.error_inject <- Some h

(* Recording (§4.1 "Analytical", see {!Record}): the graph node a read
   of this signal refers to, creating delay/const placeholders on first
   use.  Reads of a [range()]-annotated signal go through a Saturate
   node, mirroring the interval {!value} propagates. *)
let record_read (r : Record.t) (t : t) =
  match Hashtbl.find_opt r.Record.drivers t.Env.id with
  | Some n -> n
  | None ->
      let g = r.Record.graph in
      let base =
        match t.Env.kind with
        | Env.Registered ->
            let d = Sfg.Graph.delay g t.Env.name in
            Hashtbl.replace r.Record.delays t.Env.id d;
            d
        | Env.Comb ->
            (* read before any recorded assignment: a constant loaded at
               initialization (coefficients) *)
            Sfg.Graph.const g ~name:t.Env.name t.Env.v.Env.fx
      in
      let wrapped =
        match t.Env.explicit_range with
        | Some rr ->
            Sfg.Graph.fresh g
              ~name:(t.Env.name ^ ".range")
              ~op:(Sfg.Node.Saturate rr) ~inputs:[ base ]
        | None -> base
      in
      Hashtbl.replace r.Record.drivers t.Env.id wrapped;
      wrapped

(* Values are [| fx; fl; lo; hi; node |] (Value_repr), the range an
   Interval.Row interval at [iv]. *)
let[@inline] fx (v : Value.t) = Array.unsafe_get v 0
let[@inline] fl (v : Value.t) = Array.unsafe_get v 1
let iv = 2

let[@inline] recording () = Atomic.get Record.sessions <> 0

let[@inline] copy_range (src : float array) i (dst : float array) j =
  dst.(j) <- src.(i);
  dst.(j + 1) <- src.(i + 1)

(** Read the signal as a simulation value (counts as an access).  The
    interval it propagates (see DESIGN.md §"quasi-analytical") is
    computed straight into the value: the explicit annotation wins;
    otherwise the accumulated propagated range, defaulting to the
    declared type's range and then to the current value (a NaN value
    raises, as [Interval.of_point] does); a register read also covers
    the value it holds; a saturating type clamps the result (hardware
    saturation bounds the signal). *)
let value (t : t) : Value.t =
  t.Env.n_access <- t.Env.n_access + 1;
  let vals = t.Env.v in
  let r = [| vals.Env.fx; vals.Env.fl; 0.0; 0.0; -1.0 |] in
  (match t.Env.explicit_range with
  | Some e -> Interval.Row.put r iv e
  | None -> (
      let p = t.Env.range_prop in
      if not (Interval.Row.is_empty p 0) then copy_range p 0 r iv
      else begin
        match t.Env.quant with
        | Some q -> copy_range q.Fixpt.Quantize.bounds 0 r iv
        | None ->
            if Float.is_nan (fl r) then invalid_arg "Interval.make: nan";
            r.(iv) <- fl r;
            r.(iv + 1) <- fl r
      end;
      (* a register read must cover the value it currently holds: the
         initial contents (and a same-cycle staged write's staleness)
         are not in the assignment-accumulated range — the exact
         analogue of the analytical Delay transfer joining its init *)
      match t.Env.kind with
      | Env.Registered ->
          Interval.Row.observe r iv r 0 r iv;
          Interval.Row.observe r iv r 1 r iv
      | Env.Comb -> ()));
  (match t.Env.quant with
  | Some q when q.Fixpt.Quantize.saturating ->
      Interval.Row.clamp q.Fixpt.Quantize.bounds 0 r iv r iv
  | _ -> ());
  if recording () then begin
    match Record.active () with
    | None -> ()
    | Some rc -> r.(4) <- Float.of_int (record_read rc t)
  end;
  r

(** Current fixed-point value without monitoring (for probes/tests). *)
let peek_fx (t : t) = t.Env.v.Env.fx

let peek_fl (t : t) = t.Env.v.Env.fl

(* Finest LSB position (exponent of the lowest set mantissa bit) needed
   to represent [a.(i)] exactly; [max_int] for 0/non-finite (sentinel,
   so the per-assignment hot path allocates no option).  Works directly
   on the IEEE 754 bit pattern: a normal [v] is
   [(2^52 lor frac) * 2^(e-1075)], a subnormal is [frac * 2^-1074]; the
   mantissa fits a native [int]; its lowest set bit, isolated, is a
   power of two below 2^53, exact as a float, whose exponent counts the
   trailing zeros.  The value is read from its row, so it never crosses
   the call boxed. *)
let lsb_exponent (a : float array) i =
  let v = a.(i) in
  if v = 0.0 || not (Float.is_finite v) then max_int
  else begin
    let bits = Int64.bits_of_float v in
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
    let frac = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
    let m = if biased = 0 then frac else frac lor 0x10_0000_0000_0000 in
    let e = if biased = 0 then -1074 else biased - 1075 in
    let low = Float.of_int (m land -m) in
    e + (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float low) 52) - 1023)
  end

(* The environment's monitor row (Env.monitor_row): the cast result,
   the consumed/produced errors, and a saturating signal's clamped
   incoming range. *)
let slot_fx = 0
let slot_err = 2
let slot_clamped = 4

(* Update the range monitors with the incoming ideal value and
   interval, straight from the value's row: nothing is allocated, and
   a range already covered leaves [range_prop] as it is. *)
let monitor_range (t : t) (v : Value.t) row =
  Stats.Running.add_at t.Env.range_stat v 0;
  (let p = lsb_exponent v 0 in
   if p <> max_int then
     match t.Env.grid_lsb with
     | Some q when q <= p -> ()  (* already at least as fine: no update *)
     | _ -> t.Env.grid_lsb <- Some p);
  let prop = t.Env.range_prop in
  match t.Env.quant with
  | Some q when q.Fixpt.Quantize.saturating ->
      Interval.Row.clamp q.Fixpt.Quantize.bounds 0 v iv row slot_clamped;
      Interval.Row.join prop 0 row slot_clamped prop 0
  | _ -> Interval.Row.join prop 0 v iv prop 0

(* Quantize [row.(slot_fx)] in place through the signal's compiled
   quantizer, recording overflow events.  The row and the scratch are
   the environment's own: sweep workers simulate environments on
   several domains at once. *)
let quantize_in (t : t) q row scratch =
  Fixpt.Quantize.exec_at q row slot_fx scratch;
  if scratch.Fixpt.Quantize.flag <> 0.0 then begin
    let raw = scratch.Fixpt.Quantize.raw in
    (* the sink sees the event before the policy may abort the run *)
    (let snk = Env.sink t.Env.env in
     if snk != Trace.Sink.null then
       snk.Trace.Sink.on_overflow ~id:t.Env.id ~time:(Env.time t.Env.env)
         ~raw ~saturating:q.Fixpt.Quantize.saturating);
    if q.Fixpt.Quantize.error_mode then Env.record_overflow t.Env.env t raw
    else begin
      t.Env.n_overflow <- t.Env.n_overflow + 1;
      t.Env.last_overflow <- Some raw
    end
  end

(* Recording: an assignment extends the graph with the signal's
   quantization/saturation pipeline and names the result — comb signals
   get an Alias node, registered signals a Delay (closing feedback). *)
let record_assign (r : Record.t) (t : t) (v : Value.t) =
  let g = r.Record.graph in
  let src =
    if Value.node v >= 0 then Value.node v
    else
      (* external data entering the design through this signal; its
         declared range is the annotation, the type range, or — lacking
         both — the incoming value itself (a literal constant) *)
      let declared =
        match t.Env.explicit_range with
        | Some r -> r
        | None -> (
            match t.Env.dtype with
            | Some dt ->
                let lo, hi = Fixpt.Dtype.range dt in
                Interval.make lo hi
            | None -> Value.iv v)
      in
      Sfg.Graph.fresh g
        ~name:(t.Env.name ^ "_in")
        ~op:(Sfg.Node.Input declared) ~inputs:[]
  in
  let src =
    match t.Env.dtype with
    | Some dt -> Sfg.Graph.quantize g ~name:(t.Env.name ^ "_q") dt src
    | None -> src
  in
  let src =
    match t.Env.explicit_range with
    | Some rr ->
        Sfg.Graph.fresh g
          ~name:(t.Env.name ^ "_sat")
          ~op:(Sfg.Node.Saturate rr) ~inputs:[ src ]
    | None -> src
  in
  match t.Env.kind with
  | Env.Comb ->
      let a = Sfg.Graph.alias g ~name:t.Env.name src in
      Hashtbl.replace r.Record.drivers t.Env.id a
  | Env.Registered -> (
      match Hashtbl.find_opt r.Record.delays t.Env.id with
      | Some d -> (
          try Sfg.Graph.connect_delay g d src
          with Invalid_argument _ ->
            (* already connected (second write this cycle): keep first *)
            ())
      | None ->
          let d = Sfg.Graph.delay_of g t.Env.name src in
          Hashtbl.replace r.Record.delays t.Env.id d;
          Hashtbl.replace r.Record.drivers t.Env.id d)

(** Assign a value to the signal (the paper's overloaded [=]): performs
    the quantization cast, runs all monitors, and — for registered
    signals — stages the result until the next [Env.tick].  The cast
    and the error monitors are fed from the environment's float row, so
    nothing here allocates. *)
let assign (t : t) (v : Value.t) =
  t.Env.n_assign <- t.Env.n_assign + 1;
  (if recording () then
     match Record.active () with
     | Some r -> record_assign r t v
     | None -> ());
  let env = t.Env.env in
  let row = Env.monitor_row env in
  monitor_range t v row;
  row.(slot_fx) <- fx v;
  (match t.Env.quant with
  | None -> ()
  | Some q -> quantize_in t q row (Env.scratch env));
  (* fault-injection hook: disabled injection costs exactly this match —
     the transform (SEU bitflips, forced overflow, …) runs only when a
     plan armed the environment (see Fault.Inject) *)
  (match Env.injector env with
  | None -> ()
  | Some f -> row.(slot_fx) <- f t row.(slot_fx));
  let fx' = row.(slot_fx) in
  let fl' =
    match t.Env.error_inject with
    | Some h -> fx' +. Stats.Rng.uniform_sym (Env.rng env) h
    | None -> fl v
  in
  row.(slot_err) <- fl v -. fx v;
  row.(slot_err + 1) <- fl' -. fx';
  Stats.Err_stats.record_at t.Env.err row slot_err;
  (* disabled tracing costs exactly this pointer compare: argument
     computation (and any allocation) happens only behind the guard *)
  (let snk = Env.sink env in
   if snk != Trace.Sink.null then
     let quantized, rounded =
       match t.Env.quant with
       | Some q -> (true, q.Fixpt.Quantize.round_nearest)
       | None -> (false, false)
     in
     snk.Trace.Sink.on_assign ~id:t.Env.id ~time:(Env.time env)
       ~err:(fl' -. fx') ~quantized ~rounded);
  match t.Env.kind with
  | Env.Comb ->
      t.Env.v.Env.fx <- fx';
      t.Env.v.Env.fl <- fl'
  | Env.Registered ->
      t.Env.v.Env.next_fx <- fx';
      t.Env.v.Env.next_fl <- fl';
      Env.stage env t

(** Force both simulation values directly (initialization — e.g. loading
    filter coefficients or setting a register's reset value before the
    run).  Monitors record the assignment; registered signals commit
    immediately (initial register contents, no clock involved). *)
let init (t : t) c =
  assign t (Value.const c);
  match t.Env.kind with
  | Env.Comb -> ()
  | Env.Registered ->
      t.Env.v.Env.fx <- t.Env.v.Env.next_fx;
      t.Env.v.Env.fl <- t.Env.v.Env.next_fl;
      t.Env.staged <- false

(* --- report accessors ------------------------------------------------ *)

let accesses (t : t) = t.Env.n_access
let assignments (t : t) = t.Env.n_assign
let overflows (t : t) = t.Env.n_overflow
let stat_range (t : t) = Stats.Running.range t.Env.range_stat
let prop_range (t : t) = Interval.bounds (Interval.Row.get t.Env.range_prop 0)
let explicit_range (t : t) = t.Env.explicit_range
let error_injected (t : t) = t.Env.error_inject
let err_stats (t : t) = t.Env.err
let range_stats (t : t) = t.Env.range_stat

(** Finest LSB position needed to represent every assigned value exactly
    ([None] if only zeros were assigned).  The exact-signal escape hatch
    of the LSB rules: a slicer output carrying ±1 needs LSB 0, whatever
    its error statistics say. *)
let grid_lsb (t : t) = t.Env.grid_lsb

(** The propagated range exploded (infinite or astronomically wide):
    the §4.1 failure mode requiring [range] or a saturating type. *)
let exploded (t : t) =
  Interval.is_exploded (Interval.Row.get t.Env.range_prop 0)

let pp ppf (t : t) =
  Format.fprintf ppf "%s%s" t.Env.name
    (match t.Env.dtype with
    | Some dt -> Fixpt.Dtype.to_string dt
    | None -> "<float>")
