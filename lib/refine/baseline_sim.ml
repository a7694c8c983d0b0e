(** Pure simulation-based wordlength optimization — the comparison
    baseline after Sung & Kum (reference [1] of the paper).

    The method knows nothing about ranges or error propagation; it only
    ever observes an output quality figure (SQNR at a probe signal) from
    complete simulations:

    1. MSBs are taken from an initial monitored run (stimulus min/max —
       the only option a pure simulation approach has);
    2. for each signal, the {e minimum wordlength} is found by searching
       the smallest fractional wordlength that alone keeps the output
       SQNR above the target (all other signals left floating) — one
       full simulation per probe;
    3. all signals are set to their minima simultaneously; because the
       noise sources now add up, the combined configuration usually
       misses the target, so all fractional wordlengths are increased in
       lock-step until it is met.

    The point of the reproduction: the iteration count scales with
    (signals × search steps), versus the hybrid flow's 2–3 monitored
    runs — the trade-off that motivates the paper (§1). *)

type result = {
  lsb_positions : (string * int) list;
  msb_positions : (string * int) list;
  simulation_runs : int;
  achieved_sqnr_db : float;
  uniform_extra_bits : int;  (** lock-step increments needed in step 3 *)
  total_bits : int;
}

let sqnr_at env probe =
  match Sim.Env.find env probe with
  | None -> invalid_arg ("Baseline_sim: no probe signal " ^ probe)
  | Some s -> (
      match Flow.sqnr_db s with Some v -> v | None -> Float.neg_infinity)

(* Set signal [s] to <msb, lsb> two's complement, saturating (the safe
   choice a pure-simulation method must make, §1: overflow for untested
   stimuli cannot be excluded). *)
let set_format s ~msb ~lsb =
  let fmt = Fixpt.Qformat.of_positions ~msb ~lsb:(min lsb msb) Fixpt.Sign_mode.Tc in
  Sim.Signal.set_dtype s
    (Fixpt.Dtype.of_format ~overflow:Fixpt.Overflow_mode.Saturate
       (Sim.Signal.name s) fmt)

(** Optimize the fractional wordlengths of [signals] (names) so the SQNR
    at [probe] exceeds [target_db], searching each signal's LSB position
    from 0 (coarsest) down to -20 (finest). *)
let optimize ~(design : Flow.design) ~signals ~probe ~target_db () =
  let env = design.env in
  let runs = ref 0 in
  let simulate () =
    design.reset ();
    design.run ();
    incr runs
  in
  (* step 1: stimulus-observed MSBs from one float run *)
  List.iter
    (fun name ->
      match Sim.Env.find env name with
      | Some s -> Sim.Signal.clear_dtype s
      | None -> invalid_arg ("Baseline_sim: no signal " ^ name))
    signals;
  simulate ();
  let msb_of name =
    let s = Sim.Env.find_exn env name in
    match Msb_rules.msb_of_range (Sim.Signal.stat_range s) with
    | Some m -> m
    | None -> 0
  in
  let msbs = List.map (fun n -> (n, msb_of n)) signals in
  (* step 2: per-signal minimum wordlength, linear search coarse→fine *)
  let coarsest, finest = (0, -20) in
  let min_lsb_for name =
    let s = Sim.Env.find_exn env name in
    let msb = List.assoc name msbs in
    let rec search lsb =
      if lsb < finest then finest
      else begin
        set_format s ~msb ~lsb;
        simulate ();
        let q = sqnr_at env probe in
        if q >= target_db then lsb else search (lsb - 1)
      end
    in
    let found = search coarsest in
    Sim.Signal.clear_dtype s;
    found
  in
  let lsbs = List.map (fun n -> (n, min_lsb_for n)) signals in
  (* step 3: combine and pad uniformly until the target is met *)
  let apply extra =
    List.iter
      (fun (name, lsb) ->
        let s = Sim.Env.find_exn env name in
        set_format s ~msb:(List.assoc name msbs) ~lsb:(lsb - extra))
      lsbs
  in
  let rec pad extra =
    apply extra;
    simulate ();
    let q = sqnr_at env probe in
    if q >= target_db || extra >= 8 then (extra, q) else pad (extra + 1)
  in
  let extra, achieved = pad 0 in
  let lsb_positions = List.map (fun (n, l) -> (n, l - extra)) lsbs in
  let total_bits =
    List.fold_left
      (fun acc (n, l) -> acc + (List.assoc n msbs - l + 1))
      0 lsb_positions
  in
  {
    lsb_positions;
    msb_positions = msbs;
    simulation_runs = !runs;
    achieved_sqnr_db = achieved;
    uniform_extra_bits = extra;
    total_bits;
  }
