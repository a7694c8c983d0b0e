(** Seeded, deterministic fault schedules.

    A plan is a pure description: which fault classes to inject, at
    which rates, into which signals.  Whether a particular fault fires
    is a {e pure hash} of [(plan seed, stream tag, key, index)] — never
    the state of an RNG that other code advances — so the schedule is
    independent of evaluation order, worker count, and scheduling.  The
    same [(seed, plan)] replays the identical fault set anywhere, which
    is what lets the oracle's fault gate compare runs byte-for-byte and
    a sweep quarantine the {e same} candidates at any [--jobs].

    The hash is the SplitMix64 finalizer over an FNV-1a digest of the
    stream/key strings — the same mixer as {!Stats.Rng}, reused as a
    stateless function. *)

(** What the fault layer does to the overflow policy of an armed
    environment (see {!Inject.arm_env}). *)
type policy_override =
  | Keep  (** leave the design's own policy in place *)
  | Force_raise  (** {!Sim.Env.Raise}: faults crash the run *)
  | Force_collect
      (** {!Sim.Env.Collect}: faults are recorded and the run
          continues (graceful degradation) *)

type t = {
  seed : int;  (** schedule seed — everything replays from it *)
  nan_rate : float;  (** stimulus sample → NaN *)
  inf_rate : float;  (** stimulus sample → ±∞ *)
  denormal_rate : float;  (** stimulus sample → an IEEE denormal *)
  extreme_rate : float;  (** stimulus sample → ±[extreme_mag] *)
  extreme_mag : float;  (** magnitude of an extreme sample *)
  bitflip_rate : float;  (** post-quantization SEU per assignment *)
  force_overflow_rate : float;  (** forced overflow event per assignment *)
  starve_after : int option;  (** channel produces only this many samples *)
  targets : string list;  (** signal names to inject into; [] = all *)
  on_overflow : policy_override;
}

let make ?(seed = 0) ?(nan_rate = 0.0) ?(inf_rate = 0.0)
    ?(denormal_rate = 0.0) ?(extreme_rate = 0.0) ?(extreme_mag = 1e30)
    ?(bitflip_rate = 0.0) ?(force_overflow_rate = 0.0) ?starve_after
    ?(targets = []) ?(on_overflow = Keep) () =
  let check_rate what r =
    if Float.is_nan r || r < 0.0 || r > 1.0 then
      invalid_arg (Printf.sprintf "Fault.Plan.make: %s not in [0, 1]" what)
  in
  check_rate "nan_rate" nan_rate;
  check_rate "inf_rate" inf_rate;
  check_rate "denormal_rate" denormal_rate;
  check_rate "extreme_rate" extreme_rate;
  check_rate "bitflip_rate" bitflip_rate;
  check_rate "force_overflow_rate" force_overflow_rate;
  if not (Float.is_finite extreme_mag) || extreme_mag <= 0.0 then
    invalid_arg "Fault.Plan.make: extreme_mag must be finite positive";
  (match starve_after with
  | Some n when n < 0 -> invalid_arg "Fault.Plan.make: starve_after < 0"
  | _ -> ());
  {
    seed;
    nan_rate;
    inf_rate;
    denormal_rate;
    extreme_rate;
    extreme_mag;
    bitflip_rate;
    force_overflow_rate;
    starve_after;
    targets;
    on_overflow;
  }

(** A plan that injects nothing (rates 0, no starvation, [Keep]). *)
let none = make ()

let is_target t name = t.targets = [] || List.mem name t.targets

(* --- the pure-hash schedule -------------------------------------------- *)

let fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001B3L)
    s;
  !h

let hash64 t ~stream ~key ~index =
  let z = Stats.Rng.mix (Int64.add (Int64.of_int t.seed) (fnv1a stream)) in
  let z = Stats.Rng.mix (Int64.add z (fnv1a key)) in
  Stats.Rng.mix (Int64.add z (Int64.of_int index))

(** [draw t ~stream ~key ~index] — uniform float in [[0, 1)], a pure
    function of the plan seed and the three coordinates. *)
let draw t ~stream ~key ~index =
  Int64.to_float (Int64.shift_right_logical (hash64 t ~stream ~key ~index) 11)
  *. (1.0 /. 9007199254740992.0)

(** [fires t ~stream ~key ~index ~rate] — does the fault of stream
    [stream] fire at this coordinate?  Pure; scheduling-independent. *)
let fires t ~stream ~key ~index ~rate =
  rate > 0.0 && draw t ~stream ~key ~index < rate

(* Stream tags: one per fault class, so the classes are independent
   coin flips even at the same (key, index). *)
let stream_nan = "stim-nan"
let stream_inf = "stim-inf"
let stream_denormal = "stim-denormal"
let stream_extreme = "stim-extreme"
let stream_bitflip = "bitflip"
let stream_force_overflow = "force-overflow"

(** The assignment-site fault classes firing for signal [key] at cycle
    [index] under tag [tag] (the per-candidate discriminator; "" for a
    standalone run) — short stable kind strings, the vocabulary of
    [on_fault] sink events. *)
let assign_faults t ~tag ~signal ~time =
  if not (is_target t signal) then []
  else begin
    let key = signal ^ "\x00" ^ tag in
    let acc = ref [] in
    if fires t ~stream:stream_force_overflow ~key ~index:time
         ~rate:t.force_overflow_rate
    then acc := "force-overflow" :: !acc;
    if fires t ~stream:stream_bitflip ~key ~index:time ~rate:t.bitflip_rate
    then acc := "bitflip" :: !acc;
    !acc
  end

(** The stimulus fault class (if any) for sample [index] of channel
    [key]: first match in the order NaN, ∞, denormal, extreme. *)
let stimulus_fault t ~tag ~channel ~index =
  if not (is_target t channel) then None
  else
    let key = channel ^ "\x00" ^ tag in
    if fires t ~stream:stream_nan ~key ~index ~rate:t.nan_rate then
      Some `Nan
    else if fires t ~stream:stream_inf ~key ~index ~rate:t.inf_rate then
      Some `Inf
    else if fires t ~stream:stream_denormal ~key ~index ~rate:t.denormal_rate
    then Some `Denormal
    else if fires t ~stream:stream_extreme ~key ~index ~rate:t.extreme_rate
    then Some `Extreme
    else None

(** Render the assignment-site schedule over an explicit grid —
    [(time, signal, kind)] in (time, signal, kind) order.  This is the
    replayable artifact the fault gate compares: it must be identical
    however many times and wherever it is computed. *)
let schedule t ?(tag = "") ~signals ~cycles () =
  List.concat_map
    (fun time ->
      List.concat_map
        (fun signal ->
          List.rev_map
            (fun kind -> (time, signal, kind))
            (assign_faults t ~tag ~signal ~time))
        signals)
    (List.init cycles Fun.id)

(* --- rendering --------------------------------------------------------- *)

let policy_override_to_string = function
  | Keep -> "keep"
  | Force_raise -> "raise"
  | Force_collect -> "collect"

let policy_override_of_string = function
  | "keep" -> Ok Keep
  | "raise" -> Ok Force_raise
  | "collect" -> Ok Force_collect
  | s -> Error (Printf.sprintf "unknown on_overflow %S" s)

(** Canonical flat JSON (fixed key order, {!Trace.Json} formatting) —
    byte-stable, so plans can be compared as strings and round-trip
    through {!of_json}. *)
let to_json t =
  let module J = Trace.Json in
  J.object_lit
    [
      ("seed", J.Int t.seed);
      ("nan_rate", J.Float t.nan_rate);
      ("inf_rate", J.Float t.inf_rate);
      ("denormal_rate", J.Float t.denormal_rate);
      ("extreme_rate", J.Float t.extreme_rate);
      ("extreme_mag", J.Float t.extreme_mag);
      ("bitflip_rate", J.Float t.bitflip_rate);
      ("force_overflow_rate", J.Float t.force_overflow_rate);
      ( "starve_after",
        match t.starve_after with Some n -> J.Int n | None -> J.Null );
      ("targets", J.Strings t.targets);
      ("on_overflow", J.String (policy_override_to_string t.on_overflow));
    ]

(** Parse a plan from its flat JSON object.  Unknown keys are an error
    (they would silently change the experiment); missing keys take the
    {!make} defaults.  Returns [Error msg] on malformed input. *)
let of_json s =
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Fault.Plan.of_json: " ^ m)) fmt
  in
  let num k = function
    | Trace.Json.Float f -> f
    | Trace.Json.Int i -> float_of_int i
    | _ -> fail "%s: expected a number" k
  in
  let int k = function
    | Trace.Json.Int i -> i
    | _ -> fail "%s: expected an integer" k
  in
  let field p (k, v) =
    match (k, v) with
    | "seed", v -> { p with seed = int k v }
    | "nan_rate", v -> { p with nan_rate = num k v }
    | "inf_rate", v -> { p with inf_rate = num k v }
    | "denormal_rate", v -> { p with denormal_rate = num k v }
    | "extreme_rate", v -> { p with extreme_rate = num k v }
    | "extreme_mag", v -> { p with extreme_mag = num k v }
    | "bitflip_rate", v -> { p with bitflip_rate = num k v }
    | "force_overflow_rate", v -> { p with force_overflow_rate = num k v }
    | "starve_after", Trace.Json.Null -> { p with starve_after = None }
    | "starve_after", v -> { p with starve_after = Some (int k v) }
    | "targets", Trace.Json.Strings targets -> { p with targets }
    | "targets", _ -> fail "targets: expected a string array"
    | "on_overflow", Trace.Json.String s -> (
        match policy_override_of_string s with
        | Ok on_overflow -> { p with on_overflow }
        | Error e -> fail "%s" e)
    | "on_overflow", _ -> fail "on_overflow: expected a string"
    | k, _ -> fail "unknown key %S" k
  in
  match Trace.Json.parse_object s with
  | Error m -> Error ("Fault.Plan.of_json: " ^ m)
  | Ok fields -> (
      (* revalidate through make: rates from JSON must obey the same
         bounds as rates from code *)
      match
        let q = List.fold_left field none fields in
        make ~seed:q.seed ~nan_rate:q.nan_rate ~inf_rate:q.inf_rate
          ~denormal_rate:q.denormal_rate ~extreme_rate:q.extreme_rate
          ~extreme_mag:q.extreme_mag ~bitflip_rate:q.bitflip_rate
          ~force_overflow_rate:q.force_overflow_rate
          ?starve_after:q.starve_after ~targets:q.targets
          ~on_overflow:q.on_overflow ()
      with
      | p -> Ok p
      | exception Invalid_argument msg -> Error msg)

let pp ppf t =
  let rate name r =
    if r > 0.0 then Format.fprintf ppf "%s %g; " name r
  in
  Format.fprintf ppf "plan(seed %d; " t.seed;
  rate "nan" t.nan_rate;
  rate "inf" t.inf_rate;
  rate "denormal" t.denormal_rate;
  rate "extreme" t.extreme_rate;
  rate "bitflip" t.bitflip_rate;
  rate "force-overflow" t.force_overflow_rate;
  (match t.starve_after with
  | Some n -> Format.fprintf ppf "starve after %d; " n
  | None -> ());
  (match t.targets with
  | [] -> ()
  | ts -> Format.fprintf ppf "targets %s; " (String.concat "," ts));
  Format.fprintf ppf "overflow %s)"
    (policy_override_to_string t.on_overflow)
