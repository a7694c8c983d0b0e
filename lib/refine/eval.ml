(** One-shot candidate evaluation — the inner step of every wordlength
    search, factored out of {!Flow} so sweep engines (and the
    literature baselines) can re-simulate a design under many type
    assignments without re-running the whole refinement loop.

    A "candidate" is a set of per-signal dtype assignments; evaluating
    it means: apply the types, reset the design, run one full stimulus
    set, and read the monitors back as a flat {!metrics} record.  The
    evaluation is deterministic: the same design state and the same
    assignment always yield the same metrics (the simulation RNG is
    rewound by the design's [reset]). *)

(** The monitor read-back of one evaluation.  All fields come from the
    design's own per-signal monitors after a single run. *)
type metrics = {
  sqnr_db : float option;
      (** {!Flow.sqnr_db} at the probe; [None] when the probe recorded
          no samples, [Some infinity] when it is noise-free *)
  total_bits : int;  (** Σ n over all signals with a declared dtype *)
  overflow_count : int;  (** Σ overflow events over all signals *)
  probe_err_max : float;
      (** max |ε_p| at the probe; [0.] without a probe *)
  probe_values : Stats.Running.t option;
      (** copy of the probe's value monitor (mergeable) *)
  probe_err : Stats.Err_stats.t option;
      (** copy of the probe's error monitor (mergeable) *)
  counters : Trace.Counters.t option;
      (** event counters over this evaluation's run (only when requested
          with [~counters:true]; mergeable) *)
}

let total_bits env =
  List.fold_left
    (fun acc s ->
      match Sim.Signal.dtype s with
      | Some dt -> acc + Fixpt.Dtype.n dt
      | None -> acc)
    0 (Sim.Env.signals env)

let overflow_count env =
  List.fold_left
    (fun acc s -> acc + Sim.Signal.overflows s)
    0 (Sim.Env.signals env)

(** Apply per-signal dtype assignments.  Unlike {!Flow.apply_types}
    (which merges derived types into a designer's partial definition),
    a sweep candidate names exactly the signals it retypes, so an
    unknown signal name is a bug in the candidate generator and raises
    [Invalid_argument]. *)
let apply_assigns env assigns =
  List.iter
    (fun (name, dt) -> Sim.Signal.set_dtype (Sim.Env.find_exn env name) dt)
    assigns

let evaluate ?(assigns = []) ?probe ?(counters = false)
    (design : Flow.design) =
  apply_assigns design.Flow.env assigns;
  (* a requested counter set observes exactly this evaluation — reset
     hooks (initialization assigns) included, like the env monitors; it
     is detached before the monitors are read back, and any sink the
     caller attached is restored *)
  let prev_sink =
    if counters then Some (Sim.Env.sink design.Flow.env) else None
  in
  let ctr =
    if counters then begin
      let c = Trace.Counters.create () in
      Sim.Env.set_sink design.Flow.env (Trace.Counters.sink c);
      Some c
    end
    else None
  in
  design.Flow.reset ();
  design.Flow.run ();
  (match prev_sink with
  | Some s -> Sim.Env.set_sink design.Flow.env s
  | None -> ());
  let env = design.Flow.env in
  let probe_entry = Option.map (Sim.Env.find_exn env) probe in
  {
    sqnr_db = Option.bind probe_entry Flow.sqnr_db;
    total_bits = total_bits env;
    overflow_count = overflow_count env;
    probe_err_max =
      (match probe_entry with
      | Some e ->
          Stats.Running.max_abs
            (Stats.Err_stats.produced (Sim.Signal.err_stats e))
      | None -> 0.0);
    probe_values =
      Option.map
        (fun e -> Stats.Running.copy (Sim.Signal.range_stats e))
        probe_entry;
    probe_err =
      Option.map
        (fun e -> Stats.Err_stats.copy (Sim.Signal.err_stats e))
        probe_entry;
    counters = ctr;
  }

(* --- compiled evaluation ----------------------------------------------- *)

type compiled_eval = {
  extract : unit -> Sfg.Graph.t;
  cycles : int;
  stimulus : seeds:int array -> string -> Compile.feed;
}

(* --- the evaluation cache hook ----------------------------------------- *)

type cache = {
  context : string;
  lookup : string -> metrics option;
  insert : string -> metrics -> unit;
}

(* The key source is itself canonical JSON over the canonical-JSON
   pieces: the extracted graph (quantizers fused, so the candidate's
   types are structurally part of it), the explicit assignment list
   (guards against two candidates whose graphs coincide but whose env
   assignment sets differ, e.g. signals outside the extracted cone),
   the probe, the stimulus seed and run length, and the caller-pinned
   context (evaluator version, fault plan).  MD5 over that string is
   the content address. *)
let key_source ~design ~assigns ~probe ~seed ~cycles ~context =
  let b = Buffer.create (String.length design + 1024) in
  Buffer.add_string b "{\"design\": ";
  Buffer.add_string b design;
  Buffer.add_string b ", \"assigns\": [";
  List.iteri
    (fun i (name, dt) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "{\"signal\": %S, \"dtype\": %S}" name
        (Fixpt.Dtype.to_string dt))
    assigns;
  Printf.bprintf b
    "], \"probe\": %s, \"seed\": %d, \"cycles\": %d, \"context\": %S}"
    (match probe with Some p -> Printf.sprintf "%S" p | None -> "null")
    seed cycles context;
  Buffer.contents b

let cache_key ~design ~assigns ~probe ~seed ~cycles ~context =
  Digest.to_hex
    (Digest.string
       (key_source ~design ~assigns ~probe ~seed ~cycles ~context))

(* Internal: any condition that sends the evaluation back to the
   clock-true interpreter. *)
exception Fallback

(* Locate the probe's monitor points in the extracted graph.  The
   recorded assignment pipeline is [expr → name_q (Quantize, if typed)
   → name_sat (Saturate, if annotated) → name (Alias/Delay)]; the env
   monitors observe the {e incoming} expression value ([pre], the range
   monitor and the consumed error) and the {e post-cast} value ([post],
   the produced error) — the saturation annotation never clamps at
   assignment time, so it is peeled. *)
let probe_monitors g prog probe =
  match Compile.find prog probe with
  | None -> None
  | Some pid -> (
      let nd = Sfg.Graph.node g pid in
      match (nd.Sfg.Node.op, nd.Sfg.Node.inputs) with
      | (Sfg.Node.Alias | Sfg.Node.Delay _), [ src ] -> (
          let src =
            let s = Sfg.Graph.node g src in
            match (s.Sfg.Node.op, s.Sfg.Node.inputs) with
            | Sfg.Node.Saturate _, [ inner ]
              when String.equal s.Sfg.Node.name (probe ^ "_sat") ->
                inner
            | _ -> src
          in
          let post = Sfg.Graph.node g src in
          match (post.Sfg.Node.op, post.Sfg.Node.inputs) with
          | Sfg.Node.Quantize _, [ pre ]
            when String.equal post.Sfg.Node.name (probe ^ "_q") ->
              Some (pre, src)
          | _ -> Some (src, src))
      | _ -> None)

(* --- lane blocks ---------------------------------------------------------- *)

type lane = {
  assigns : (string * Fixpt.Dtype.t) list;
  seed : int;
  prepare : unit -> unit;
}

let names_of assigns = List.map fst assigns

(* Per-candidate preparation, on the design itself and in candidate
   order: baseline and stimulus seed (the caller's [prepare]), types,
   reset.  Returns the candidate's Σ n, read while its types are
   applied. *)
let prepare_lane (design : Flow.design) ln =
  ln.prepare ();
  apply_assigns design.Flow.env ln.assigns;
  design.Flow.reset ();
  total_bits design.Flow.env

(* The nodes of an extracted graph whose operation depends on the
   candidate's types, mapped to the index of their signal in the
   block's assigned-signal list [names] (the last entry of a repeated
   name wins, as in [apply_assigns]).  {!Sim.Signal}'s recorder puts a
   signal's type in exactly two places: its [s_q] quantizer, and the
   range of its [s_in] input node when it has no [range()] annotation.
   A constant named after an assigned signal (a coefficient read
   before any assignment) holds a value cast under one candidate's
   type, so lanes cannot share it. *)
let dtype_sites env ~names g =
  let idx = Hashtbl.create 16 in
  List.iteri (fun j s -> Hashtbl.replace idx s j) names;
  let signal_of name suffix =
    if String.ends_with ~suffix name then
      let s =
        String.sub name 0 (String.length name - String.length suffix)
      in
      Option.map (fun j -> (s, j)) (Hashtbl.find_opt idx s)
    else None
  in
  let sites = Hashtbl.create 16 in
  List.iter
    (fun (nd : Sfg.Node.t) ->
      match nd.Sfg.Node.op with
      | Sfg.Node.Quantize _ -> (
          match signal_of nd.Sfg.Node.name "_q" with
          | Some (_, j) -> Hashtbl.replace sites nd.Sfg.Node.id j
          | None -> ())
      | Sfg.Node.Input _ -> (
          match signal_of nd.Sfg.Node.name "_in" with
          | Some (s, j)
            when Sim.Signal.explicit_range (Sim.Env.find_exn env s) = None ->
              Hashtbl.replace sites nd.Sfg.Node.id j
          | _ -> ())
      | Sfg.Node.Const _ when Hashtbl.mem idx nd.Sfg.Node.name ->
          raise Fallback
      | _ -> ())
    (Sfg.Graph.nodes g);
  sites

(* Node [nd]'s operation in the graph of the lane typed [dts]. *)
let lane_op sites (dts : Fixpt.Dtype.t array) (nd : Sfg.Node.t) =
  match Hashtbl.find_opt sites nd.Sfg.Node.id with
  | None -> nd.Sfg.Node.op
  | Some j -> (
      match nd.Sfg.Node.op with
      | Sfg.Node.Quantize _ -> Sfg.Node.Quantize dts.(j)
      | Sfg.Node.Input _ ->
          let lo, hi = Fixpt.Dtype.range dts.(j) in
          Sfg.Node.Input (Interval.make lo hi)
      | op -> op)

let dtypes_of assigns = Array.of_list (List.map snd assigns)

(* --- spliced keys -------------------------------------------------------- *)

(* The keys of one lane block.  [cache_key]'s source is the graph's
   canonical JSON, the assignment list and a tail.  Lanes differ only
   in types and seed, so the graph is rendered once as a template with
   holes at the type sites, and [buf] holds [mark] bytes of design and
   assignment list rendered for the types [dts]; a lane typed like
   that keeps them and rewrites only the tail.  [bytes] is the digest's
   input, reused, so a key does not allocate its source. *)
type lane_keys = {
  tpl : Sfg.Graph.template;
  sites : (int, int) Hashtbl.t;
  signals : string array;
      (** per assignment, its text up to the dtype string *)
  seed_at : string;  (** the tail up to the seed *)
  after_seed : string;
  buf : Buffer.t;
  mutable dts : Fixpt.Dtype.t array;
  mutable mark : int;
  mutable bytes : Bytes.t;
}

(* Design and assignment list for the types [dts], each hole filled
   with [op]. *)
let render ks dts op =
  let b = ks.buf in
  Buffer.clear b;
  Buffer.add_string b "{\"design\": ";
  Sfg.Graph.add_filled b ks.tpl op;
  Buffer.add_string b ", \"assigns\": [";
  Array.iteri
    (fun j s ->
      Buffer.add_string b s;
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped (Fixpt.Dtype.to_string dts.(j)));
      Buffer.add_string b "\"}")
    ks.signals;
  ks.dts <- dts;
  ks.mark <- Buffer.length b

let lane_keys g ~sites ~assigns ~probe ~cycles ~context =
  let ks =
    {
      tpl =
        Sfg.Graph.template g ~hole:(fun nd ->
            Hashtbl.mem sites nd.Sfg.Node.id);
      sites;
      signals =
        Array.of_list
          (List.mapi
             (fun i (name, _) ->
               Printf.sprintf "%s{\"signal\": %S, \"dtype\": "
                 (if i > 0 then ", " else "")
                 name)
             assigns);
      seed_at =
        Printf.sprintf "], \"probe\": %s, \"seed\": "
          (match probe with Some p -> Printf.sprintf "%S" p | None -> "null");
      after_seed =
        Printf.sprintf ", \"cycles\": %d, \"context\": %S}" cycles context;
      buf = Buffer.create 8192;
      dts = [||];
      mark = 0;
      bytes = Bytes.empty;
    }
  in
  render ks (dtypes_of assigns) (fun nd -> nd.Sfg.Node.op);
  ks

(* [buf] holds lane [assigns, seed]'s key source. *)
let splice ks ~assigns ~seed =
  let dts = dtypes_of assigns in
  if
    Array.length dts = Array.length ks.dts
    && Array.for_all2 Fixpt.Dtype.equal dts ks.dts
  then Buffer.truncate ks.buf ks.mark
  else render ks dts (lane_op ks.sites dts);
  Buffer.add_string ks.buf ks.seed_at;
  Buffer.add_string ks.buf (string_of_int seed);
  Buffer.add_string ks.buf ks.after_seed

let splice_source ks ~assigns ~seed =
  splice ks ~assigns ~seed;
  Buffer.contents ks.buf

let splice_key ks ~assigns ~seed =
  splice ks ~assigns ~seed;
  let n = Buffer.length ks.buf in
  if Bytes.length ks.bytes < n then ks.bytes <- Bytes.create (2 * n);
  Buffer.blit ks.buf 0 ks.bytes 0 n;
  Digest.to_hex (Digest.subbytes ks.bytes 0 n)

(* A block's shared structure: the graph extracted right after
   preparing lane [src], (forced only once another lane needs it)
   where that graph holds the types, and (built at the first key) the
   block's keys. *)
type structure = {
  g : Sfg.Graph.t;
  src : int;
  sites : (int, int) Hashtbl.t Lazy.t;
  mutable keys : lane_keys option;
}

(* Lane [i]'s key: its own graph's [cache_key].  The source lane's graph
   is [g] itself, so it is keyed even when no other lane can share [g]
   (its sites raise [Fallback]): then the template has no holes. *)
let lane_key st ~probe ~cycles ~context i ln =
  if i <> st.src then ignore (Lazy.force st.sites);
  let ks =
    match st.keys with
    | Some ks -> ks
    | None ->
        let sites =
          try Lazy.force st.sites with Fallback -> Hashtbl.create 1
        in
        let ks =
          lane_keys st.g ~sites ~assigns:ln.assigns ~probe ~cycles ~context
        in
        st.keys <- Some ks;
        ks
  in
  splice_key ks ~assigns:ln.assigns ~seed:ln.seed

(* Run the cache misses of a block — [(i, Σ n)] in candidate order — as
   the lanes of one dual-lattice program with per-lane quantizers,
   stimulus and probe monitors. *)
let run_misses ?probe (ce : compiled_eval) st ~lane
    (misses : (int * int) array) =
  let g = st.g in
  let b = Array.length misses in
  let retyped = Array.exists (fun (i, _) -> i <> st.src) misses in
  let prog =
    Compile.compile ~batch:b ~dual:true
      ?lane_dtype:
        (if not retyped then None
         else
           let sites = Lazy.force st.sites in
           Some
             (fun ~lane:l ->
               let dts = dtypes_of (lane (fst misses.(l))).assigns in
               fun nd ->
                 match lane_op sites dts nd with
                 | Sfg.Node.Quantize dt -> dt
                 | _ -> raise Fallback))
      g
  in
  let pm =
    match probe with
    | None -> None
    | Some p -> (
        match probe_monitors g prog p with
        | Some pm -> Some pm
        | None -> raise Fallback)
  in
  (* the probe's monitors, one row per step: the value at [pre], the
     consumed error fl − fx at [pre] and the produced error fl(pre) −
     fx(post) *)
  let vals = Stats.Running.Lanes.create b in
  let errs = Stats.Err_stats.Lanes.create b in
  let on_step =
    Option.map
      (fun (pre, post) ->
        let fx = Compile.lattice prog and fl = Compile.ref_lattice prog in
        let opre = Compile.offset prog ~id:pre
        and opost = Compile.offset prog ~id:post in
        fun _step ->
          Stats.Running.Lanes.add_row vals fx opre;
          Stats.Running.Lanes.add_diff
            (Stats.Err_stats.Lanes.consumed errs)
            fl opre fx opre;
          Stats.Running.Lanes.add_diff
            (Stats.Err_stats.Lanes.produced errs)
            fl opre fx opost)
      pm
  in
  let seeds = Array.map (fun (i, _) -> (lane i).seed) misses in
  Compile.run ?on_step prog ~steps:ce.cycles ~inputs:(ce.stimulus ~seeds);
  let monitored = Option.is_some pm in
  Array.mapi
    (fun l (_, tb) ->
      let values = Stats.Running.Lanes.get vals l in
      let err = Stats.Err_stats.Lanes.get errs l in
      let produced = Stats.Err_stats.produced err in
      {
        sqnr_db =
          (if monitored then Flow.sqnr_db_of ~values ~errors:produced
           else None);
        total_bits = tb;
        overflow_count = Compile.lane_overflow_count prog ~lane:l;
        probe_err_max =
          (if monitored then Stats.Running.max_abs produced else 0.0);
        probe_values = (if monitored then Some values else None);
        probe_err = (if monitored then Some err else None);
        counters = None;
      })
    misses

(* The lane-block procedure behind both entry points.  In candidate
   order, each candidate is prepared; the first one prepared fixes the
   structure (one extraction), and with a cache each lane is keyed —
   spliced into the structure's template, bytes equal to a
   one-candidate extraction's — and looked up right away.  The misses
   then run together and are inserted in candidate order.  A candidate
   outside the block's signal list, or whose preparation raises, gets
   [solo i e] in place; if the structure cannot be extracted, keyed or
   run, every miss gets it afterwards.  A cache that raises degrades to a miss/no-insert —
   it must never fail an evaluation. *)
let lane_block ?probe ?cache ce (design : Flow.design) ~count ~lane ~solo =
  let out = Array.make count None in
  let names = names_of (lane 0).assigns in
  let structure = ref None and misses = ref [] in
  let fail e = structure := Some (Error e) in
  for i = 0 to count - 1 do
    let ln = lane i in
    if names_of ln.assigns <> names then out.(i) <- Some (solo i Fallback)
    else
      match prepare_lane design ln with
      | exception e -> out.(i) <- Some (solo i e)
      | tb -> (
          if Option.is_none !structure then begin
            match ce.extract () with
            | g ->
                structure :=
                  Some
                    (Ok
                       {
                         g;
                         src = i;
                         sites = lazy (dtype_sites design.Flow.env ~names g);
                         keys = None;
                       })
            | exception e -> fail e
          end;
          let key =
            match (!structure, cache) with
            | Some (Ok st), Some c -> (
                match
                  lane_key st ~probe ~cycles:ce.cycles ~context:c.context i
                    ln
                with
                | k -> Some (c, k)
                | exception e ->
                    fail e;
                    None)
            | _ -> None
          in
          match key with
          | Some (c, k) -> (
              match try c.lookup k with _ -> None with
              | Some m -> out.(i) <- Some (Ok m)
              | None -> misses := (i, tb, Some k) :: !misses)
          | None -> misses := (i, tb, None) :: !misses)
  done;
  let misses = Array.of_list (List.rev !misses) in
  if Array.length misses > 0 then begin
    match
      match !structure with
      | Some (Ok st) ->
          run_misses ?probe ce st ~lane
            (Array.map (fun (i, tb, _) -> (i, tb)) misses)
      | Some (Error e) -> raise e
      | None -> raise Fallback
    with
    | ms ->
        Array.iteri
          (fun k (i, _, key) ->
            out.(i) <- Some (Ok ms.(k));
            match (cache, key) with
            | Some c, Some key -> ( try c.insert key ms.(k) with _ -> ())
            | _ -> ())
          misses
    | exception e ->
        Array.iter (fun (i, _, _) -> out.(i) <- Some (solo i e)) misses
  end;
  Array.map Option.get out

(* One candidate on its own, as a one-lane block; any condition the
   compiled executor cannot handle sends it to the clock-true
   interpreter, which is never cached (its key would need the
   un-extractable design itself). *)
let one_lane ?probe ?cache ce (design : Flow.design) ln =
  (lane_block ?probe ?cache ce design ~count:1
     ~lane:(fun _ -> ln)
     ~solo:(fun _ e ->
       match e with
       | Compile.Cannot_compile _ | Invalid_argument _ | Not_found | Fallback
         -> (
           try
             ln.prepare ();
             Ok (evaluate ~assigns:ln.assigns ?probe design)
           with e -> Error e)
       | e -> Error e)).(0)

let evaluate_lanes ?probe ?cache ce design ~count ~lane =
  if count = 0 then [||]
  else
    lane_block ?probe ?cache ce design ~count ~lane ~solo:(fun i _ ->
        one_lane ?probe ?cache ce design (lane i))

let evaluate_compiled ?(assigns = []) ?probe ?cache ~seed ce design =
  match
    one_lane ?probe ?cache ce design { assigns; seed; prepare = ignore }
  with
  | Ok m -> m
  | Error e -> raise e
