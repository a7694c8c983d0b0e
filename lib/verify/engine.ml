(** Explicit-state verification over the compiled executor — see the
    interface for the soundness contract.

    The search state is the vector of delay-register values.  For a
    refined design those live on a quantizer grid, so the reachable set
    is finite and breadth-first closure under the full input alphabet
    is a {e proof}.  Transitions execute the real compiled program
    ({!Compile.step_once}) over a block of frontier states at once:
    each block state fills one lane per alphabet letter, so a single
    step evaluates every admissible input of every block state, and
    the program's overflow tallies attribute events to the step just
    taken.  Successors are added in (state, letter) order, as a search
    of one state at a time adds them.  When a block's tally fires it is
    redone state by state, and a batch-1 twin program pinpoints the
    exact letter (and quantizer), so counterexamples are rebuilt in
    deterministic first-state/first-letter order.

    The no-limit-cycle scan reuses the same program's lanes: each lane
    walks one explored state under zero input, a block of walks steps in
    lockstep, and the block is then replayed in state-id order against
    the decay memo, so verdicts and counters are those of a scan that
    walks one state at a time. *)

type property = No_overflow | No_limit_cycle

type violation =
  | Overflow of { node : string; step : int }
  | Limit_cycle of { start : int; period : int }

type counterexample = {
  steps : int;
  stimulus : (string * float array) list;
  violation : violation;
}

type verdict = Proved | Refuted of counterexample | Bounded_out of string

type stats = {
  letters : int;
  exhaustive : bool;
  states : int;
  transitions : int;
  truncated : bool;
  crashed : bool;
}

type report = { property : property; verdict : verdict; stats : stats }

let property_name = function
  | No_overflow -> "no-overflow"
  | No_limit_cycle -> "no-limit-cycle"

let property_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "overflow" | "no-overflow" -> Some No_overflow
  | "limit-cycle" | "no-limit-cycle" | "limitcycle" -> Some No_limit_cycle
  | _ -> None

(* --- growable arrays ---------------------------------------------------- *)

module Dyn = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 64 dummy; n = 0; dummy }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) t.dummy in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let get t i = t.a.(i)
  let len t = t.n
end

(* --- register-vector tables -------------------------------------------- *)

(* Register vectors of [nr] floats stored back to back in a growable
   arena, each with its hash, and an open-addressing table over the
   first [indexed] entries.  Equality is bitwise, so [-0.0] and [0.0]
   are distinct states and a NaN equals itself, and neither a lookup
   nor an insertion allocates a key. *)
module Vtab = struct
  type t = {
    nr : int;
    mutable arena : float array;  (* entry [e] at [e * nr] *)
    mutable hashes : int array;
    mutable len : int;  (* entries stored *)
    mutable indexed : int;  (* entries [0, indexed) are in [slots] *)
    mutable slots : int array;  (* -1 = empty, else an entry *)
  }

  let create ~nr ~cap =
    let rec pow2 n = if n >= 2 * cap then n else pow2 (2 * n) in
    {
      nr;
      arena = Array.make (cap * Stdlib.max 1 nr) 0.0;
      hashes = Array.make cap 0;
      len = 0;
      indexed = 0;
      slots = Array.make (pow2 8) (-1);
    }

  let clear t =
    if t.indexed > 0 then Array.fill t.slots 0 (Array.length t.slots) (-1);
    t.len <- 0;
    t.indexed <- 0

  let hash (a : float array) off nr =
    let h = ref nr in
    for i = off to off + nr - 1 do
      let b = Int64.bits_of_float (Array.unsafe_get a i) in
      let x =
        Int64.to_int b lxor Int64.to_int (Int64.shift_right_logical b 32)
      in
      let y = (!h lxor x) * 0x2545F4914F6CDD1D in
      h := y lxor (y lsr 32)
    done;
    !h land max_int

  let equal (a : float array) ia (b : float array) ib nr =
    let i = ref 0 in
    while
      !i < nr
      && (Int64.bits_of_float (Array.unsafe_get a (ia + !i)) : int64)
         = Int64.bits_of_float (Array.unsafe_get b (ib + !i))
    do
      incr i
    done;
    !i = nr

  (* The indexed entry equal to [src.(off) ..], or -1. *)
  let find t (src : float array) off h =
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let i = ref (h land mask) and found = ref (-2) in
    while !found = -2 do
      let e = Array.unsafe_get slots !i in
      if e < 0 then found := -1
      else if equal t.arena (e * t.nr) src off t.nr then found := e
      else i := (!i + 1) land mask
    done;
    !found

  (* Store [src.(off) ..] with hash [h] as entry [len], unindexed. *)
  let push t (src : float array) off h =
    let nr = t.nr and e = t.len in
    if e = Array.length t.hashes then begin
      let a = Array.make (2 * Array.length t.arena) 0.0 in
      Array.blit t.arena 0 a 0 (e * nr);
      t.arena <- a;
      let hs = Array.make (2 * e) 0 in
      Array.blit t.hashes 0 hs 0 e;
      t.hashes <- hs
    end;
    Array.blit src off t.arena (e * nr) nr;
    t.hashes.(e) <- h;
    t.len <- e + 1

  let insert slots e h =
    let mask = Array.length slots - 1 in
    let i = ref (h land mask) in
    while Array.unsafe_get slots !i >= 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- e

  (* Index the next stored entry. *)
  let index t =
    let e = t.indexed in
    t.indexed <- e + 1;
    if 2 * t.indexed > Array.length t.slots then begin
      let slots = Array.make (2 * Array.length t.slots) (-1) in
      for k = 0 to e do
        insert slots k t.hashes.(k)
      done;
      t.slots <- slots
    end
    else insert t.slots e t.hashes.(e)

  let add t src off h =
    if find t src off h < 0 then begin
      push t src off h;
      index t
    end
end

(* --- input alphabet ----------------------------------------------------- *)

(* One input node's admissible sample set.  [values] are {e admissible}
   reals (inside the declared interval); when [grid] they are exactly
   one representative per reachable post-quantization value, which is
   behaviour-complete when the quantizer is the input's sole consumer. *)
type ispec = { iname : string; values : float array; grid : bool; zero : float }

let resolve_alias g id =
  let rec go id =
    let nd = Sfg.Graph.node g id in
    match nd.Sfg.Node.op with
    | Sfg.Node.Alias -> go (List.hd nd.Sfg.Node.inputs)
    | _ -> id
  in
  go id

(* The quantizer directly downstream of input [id] (through aliases),
   provided it is the input's only real consumer — the condition under
   which quantizer-grid representatives cover every behaviour. *)
let sole_quantizer g id =
  let dt = ref None and consumers = ref 0 in
  List.iter
    (fun (nd : Sfg.Node.t) ->
      match nd.Sfg.Node.op with
      | Sfg.Node.Alias -> ()
      | op ->
          List.iter
            (fun s ->
              if resolve_alias g s = id then begin
                incr consumers;
                match op with
                | Sfg.Node.Quantize d when !dt = None -> dt := Some d
                | _ -> ()
              end)
            nd.Sfg.Node.inputs)
    (Sfg.Graph.nodes g);
  if !consumers = 1 then !dt else None

let max_grid_per_input = 4096

(* Admissible representatives of the post-quantization image of
   [lo, hi]: the cast is monotone inside the representable range, so
   the image is every grid point between [cast lo] and [cast hi]; each
   representative is the grid point clamped back into the declared
   interval (so extreme letters stay admissible while quantizing to
   their grid value). *)
let grid_values dt ~lo ~hi =
  let min_v = Fixpt.Dtype.min_value dt and max_v = Fixpt.Dtype.max_value dt in
  if lo < min_v || hi > max_v then None
  else
    let step = Fixpt.Dtype.step dt in
    let code v =
      Int64.to_int (Fixpt.Quantize.nearest_code ~step (Fixpt.Quantize.cast dt v))
    in
    let klo = code lo and khi = code hi in
    let count = khi - klo + 1 in
    if count < 1 || count > max_grid_per_input then None
    else
      Some
        (Array.init count (fun i ->
             let v = Float.of_int (klo + i) *. step in
             Float.max lo (Float.min hi v)))

let corner_values dt ~lo ~hi =
  let with_dt f = match dt with Some d -> [ f d ] | None -> [] in
  let candidates =
    [ lo; hi; 0.0; Float.succ lo; Float.pred hi; 0.5 *. lo; 0.5 *. hi ]
    @ with_dt Fixpt.Dtype.min_value
    @ with_dt Fixpt.Dtype.max_value
    @ with_dt Fixpt.Dtype.step
    @ with_dt (fun d -> -.Fixpt.Dtype.step d)
    @ with_dt (fun d -> lo +. Fixpt.Dtype.step d)
    @ with_dt (fun d -> hi -. Fixpt.Dtype.step d)
  in
  let ok v = Float.is_finite v && v >= lo && v <= hi in
  let vs = List.sort_uniq compare (List.filter ok candidates) in
  match vs with [] -> [| lo |] | _ -> Array.of_list vs

let sanitize dt iv =
  let lo, hi =
    match iv with
    | Interval.Range { lo; hi } -> (lo, hi)
    | Interval.Empty -> (nan, nan)
  in
  let dflt f d = match dt with Some x -> f x | None -> d in
  let lo = if Float.is_finite lo then lo else dflt Fixpt.Dtype.min_value (-1.0) in
  let hi = if Float.is_finite hi then hi else dflt Fixpt.Dtype.max_value 1.0 in
  if lo <= hi then (lo, hi) else (hi, lo)

let input_specs g =
  List.filter_map
    (fun (nd : Sfg.Node.t) ->
      match nd.Sfg.Node.op with
      | Sfg.Node.Input iv ->
          let dt = sole_quantizer g nd.Sfg.Node.id in
          let lo, hi = sanitize dt iv in
          let zero = Float.max lo (Float.min hi 0.0) in
          let values, grid =
            match dt with
            | Some d -> (
                match grid_values d ~lo ~hi with
                | Some vs -> (vs, true)
                | None -> (corner_values dt ~lo ~hi, false))
            | None -> (corner_values dt ~lo ~hi, false)
          in
          Some { iname = nd.Sfg.Node.name; values; grid; zero }
      | _ -> None)
    (Sfg.Graph.nodes g)

let max_corner_letters = 256

(* The alphabet: the cross product of per-input sample sets, input 0
   slowest-varying.  Exhaustive iff every input contributed its full
   grid and the product fits in [2^max_bits]; otherwise the per-input
   sets degrade to corners and the product is capped (refute-only). *)
let build_alphabet ~max_bits specs =
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let cap = 1 lsl max_bits in
  let product limit vs =
    Array.fold_left
      (fun acc (v : float array) ->
        if acc > limit then acc else acc * Stdlib.max 1 (Array.length v))
      1 vs
  in
  let grids = Array.map (fun s -> s.values) specs in
  let exhaustive =
    Array.for_all (fun s -> s.grid) specs && product cap grids <= cap
  in
  let sets =
    if exhaustive then grids
    else
      Array.map
        (fun s ->
          if s.grid && Array.length s.values <= 8 then s.values
          else
            let dt = None in
            let lo = s.values.(0)
            and hi = s.values.(Array.length s.values - 1) in
            corner_values dt ~lo ~hi)
        specs
  in
  let limit = if exhaustive then cap else max_corner_letters in
  let total = Stdlib.min (product limit sets) limit in
  let truncated = (not exhaustive) && product limit sets > limit in
  let counters = Array.make n 0 in
  let letters =
    Array.init total (fun _ ->
        let letter = Array.init n (fun i -> sets.(i).(counters.(i))) in
        (* increment the mixed-radix counter, last input fastest *)
        let rec bump i =
          if i >= 0 then begin
            counters.(i) <- counters.(i) + 1;
            if counters.(i) >= Array.length sets.(i) then begin
              counters.(i) <- 0;
              bump (i - 1)
            end
          end
        in
        bump (n - 1);
        letter)
  in
  (specs, letters, exhaustive, truncated)

(* --- reachable-state closure ------------------------------------------- *)

type search = {
  sts : float array Dyn.t;  (* state id -> register vector *)
  parent : (int * int) Dyn.t;  (* state id -> (pred id, letter) *)
  depth : int Dyn.t;
  mutable transitions : int;
  mutable wide_steps : int;  (* [step_once] calls on the wide program *)
  mutable truncated : bool;
  mutable crashed : bool;
  mutable hit : (int * int * string) option;  (* (state, letter, node) *)
}

(* Step the batch-1 twin from [st] under letter [l]: the first
   quantizer that overflowed (schedule order), or the arithmetic
   escape.  The successor is left in lane 0 of [prog1]. *)
let step1 prog1 ~idx ~letters ~st ~l ~step =
  Compile.write_state prog1 ~lane:0 st;
  let before = Compile.overflows prog1 in
  match
    Compile.step_once prog1 ~step ~inputs:(fun name ->
        let v = letters.(l).(idx name) in
        fun _ dst off -> dst.(off) <- v)
  with
  | exception Invalid_argument _ -> `Crash
  | () ->
      let after = Compile.overflows prog1 in
      `Step
        (List.find_map
           (fun ((n, c0), (_, c1)) -> if c1 > c0 then Some n else None)
           (List.combine before after))

let new_search () =
  {
    sts = Dyn.create [||];
    parent = Dyn.create (-1, -1);
    depth = Dyn.create 0;
    transitions = 0;
    wide_steps = 0;
    truncated = false;
    crashed = false;
    hit = None;
  }

(* The explore program's width for [nl] letters: as many whole letter
   sets as fit in 32 lanes, and at least one.  Narrower programs spend
   their time on per-instruction overhead; wider ones were no faster. *)
let explore_lanes nl = Stdlib.max 1 (32 / nl) * nl

(* Breadth-first closure from the reset state.  [prog] has [lanes] =
   [per * nl] lanes: one [step_once] advances a block of up to [per]
   frontier states, block state [k] in lanes [k * nl, (k + 1) * nl),
   one per letter, and lanes past the block repeat its last state, so
   a lane raises or overflows only if a real state would.  Successors
   are added in (state, letter) order, so ids, parents, depths and
   counters are those of one state at a time.  A block that raises, or
   whose overflow tally moves under [stop_on_overflow], is redone one
   state at a time; a single state that does is replayed letter by
   letter on the batch-1 twin [prog1], which attributes the overflow
   and salvages the letters that do not raise.

   Once the table is full and has refused a state, every successor is
   either known or refused again, so none is read back: the blocks
   still execute, for their overflow hits, raises and transitions. *)
let explore ~prog ~lanes ~prog1 ~idx ~letters ~max_states ~depth_limit
    ~stop_on_overflow =
  let nl = Array.length letters in
  let per = lanes / nl in
  let nr = Compile.register_count prog in
  let s = new_search () in
  let seen = Vtab.create ~nr ~cap:(Stdlib.min max_states 1024) in
  let add ~pred ~letter ~d st =
    let h = Vtab.hash st 0 nr in
    if Vtab.find seen st 0 h < 0 then
      if Dyn.len s.sts >= max_states then s.truncated <- true
      else begin
        Vtab.push seen st 0 h;
        Vtab.index seen;
        Dyn.push s.sts (Array.copy st);
        Dyn.push s.parent (pred, letter);
        Dyn.push s.depth d
      end
  in
  let saturated () = s.truncated && Dyn.len s.sts >= max_states in
  add ~pred:(-1) ~letter:(-1) ~d:0 (Compile.initial_state prog);
  (* lane [l] of every block reads letter [l mod nl] *)
  let feeds =
    Array.init
      (Array.length letters.(0))
      (fun i ->
        let row = Array.init lanes (fun l -> letters.(l mod nl).(i)) in
        fun (_ : int) dst off -> Array.blit row 0 dst off lanes)
  in
  let inputs name = feeds.(idx name) in
  let scratch = Array.make nr 0.0 in
  (* per-letter fallback: replay each letter on the twin to attribute
     overflows / salvage successors around a crash *)
  let slow_path sid st d =
    let l = ref 0 in
    while !l < nl && s.hit = None do
      (match step1 prog1 ~idx ~letters ~st ~l:!l ~step:d with
      | `Crash -> s.crashed <- true
      | `Step (Some n) when stop_on_overflow -> s.hit <- Some (sid, !l, n)
      | `Step _ ->
          if not (saturated ()) then begin
            Compile.read_state prog1 ~lane:0 scratch;
            add ~pred:sid ~letter:!l ~d:(d + 1) scratch
          end);
      incr l
    done
  in
  let blk = Array.make per 0 in
  (* the block [blk.(first), ..., blk.(first + count - 1)] *)
  let rec block ~first ~count =
    for lane = 0 to lanes - 1 do
      let k = Stdlib.min (lane / nl) (count - 1) in
      Compile.write_state prog ~lane (Dyn.get s.sts blk.(first + k))
    done;
    let ovf0 = Compile.overflow_count prog in
    s.wide_steps <- s.wide_steps + 1;
    match
      Compile.step_once prog ~step:(Dyn.get s.depth blk.(first)) ~inputs
    with
    | exception Invalid_argument _ -> redo ~first ~count
    | () ->
        if stop_on_overflow && Compile.overflow_count prog > ovf0 then
          redo ~first ~count
        else begin
          s.transitions <- s.transitions + (count * nl);
          for k = 0 to count - 1 do
            let sid = blk.(first + k) in
            let d = Dyn.get s.depth sid + 1 in
            for l = 0 to nl - 1 do
              if not (saturated ()) then begin
                Compile.read_state prog ~lane:((k * nl) + l) scratch;
                add ~pred:sid ~letter:l ~d scratch
              end
            done
          done
        end
  and redo ~first ~count =
    if count = 1 then begin
      let sid = blk.(first) in
      s.transitions <- s.transitions + nl;
      slow_path sid (Dyn.get s.sts sid) (Dyn.get s.depth sid)
    end
    else begin
      let k = ref 0 in
      while !k < count && s.hit = None do
        block ~first:(first + !k) ~count:1;
        incr k
      done
    end
  in
  let cursor = ref 0 in
  while !cursor < Dyn.len s.sts && s.hit = None do
    (* the next [per] states under the depth limit; [limited] is the
       first one skipped at the limit *)
    let count = ref 0 and limited = ref max_int in
    while !count < per && !cursor < Dyn.len s.sts do
      let sid = !cursor in
      incr cursor;
      if depth_limit < 0 || Dyn.get s.depth sid < depth_limit then begin
        blk.(!count) <- sid;
        incr count
      end
      else if !limited = max_int then limited := sid
    done;
    if !count > 0 then block ~first:0 ~count:!count;
    (* a state at the limit truncates the search unless it comes after
       the state that hit *)
    let stop = match s.hit with Some (sid, _, _) -> sid | None -> max_int in
    if !limited < stop then s.truncated <- true
  done;
  s

(* --- counterexample construction --------------------------------------- *)

let path_letters search sid =
  let rec go acc sid =
    let pred, letter = Dyn.get search.parent sid in
    if pred < 0 then acc else go (letter :: acc) pred
  in
  go [] sid

(* Stimulus arrays: the path's letters, then [tail] extra samples (the
   refuting letter, or the zero-input tail of a limit cycle). *)
let build_stimulus specs letters ~path ~tail =
  let n = Array.length specs in
  let prefix = List.length path in
  let steps = prefix + Array.length tail in
  List.init n (fun i ->
      let arr = Array.make (Stdlib.max 1 steps) 0.0 in
      List.iteri (fun t l -> arr.(t) <- letters.(l).(i)) path;
      Array.iteri
        (fun t (letter : [ `Letter of int | `Zero ]) ->
          arr.(prefix + t) <-
            (match letter with
            | `Letter l -> letters.(l).(i)
            | `Zero -> specs.(i).zero))
        tail;
      (specs.(i).iname, Array.sub arr 0 steps))

(* --- zero-input limit-cycle scan --------------------------------------- *)

type lc_result =
  | Lc_none  (** every scanned state decays within the horizon *)
  | Lc_unknown  (** some walk did not resolve within the horizon *)
  | Lc_found of { sid : int; start : int; period : int }

(* One zero-input walk: position [p] of the trajectory is entry [p] of
   [traj]; the positions before [stop] are indexed. *)
type walk = {
  traj : Vtab.t;
  mutable stop : int;  (* -1 while walking, else the resolving position *)
  mutable back : int;
      (* at [stop]: the revisited position, or [hit_memo] / [hit_horizon] *)
}

let hit_memo = -1
let hit_horizon = -2

(* Walk every explored state under zero input, in state-id order.  A
   walk stops at the first position whose state is in the decay memo,
   revisits its own trajectory, or reaches the horizon; a revisit of a
   cycle through a nonzero state is a limit cycle, and a decayed walk
   adds its trajectory to the memo.

   The walks advance [width] at a time, one per lane of [prog], all
   lanes in lockstep until every walk of the block has stopped against
   the memo as it stood at the block's start.  The block is then
   replayed in state-id order against the memo as the earlier walks
   update it: each walk is cut at its first position in that memo, so
   the outcome, the transition count and the memo are those of one
   walk at a time.  A stopped walk's lane keeps stepping through states
   already stepped, and lanes past the block repeat its last walk, so
   no lane raises unless a walk would.  A block that raises is re-run
   one walk at a time on the batch-1 twin [prog1], where a raise is
   that walk's arithmetic escape.  [zero name] is input [name]'s zero
   sample. *)
let scan_limit_cycles ~prog ~lanes ~prog1 ~zero ~search ~horizon =
  let n = Dyn.len search.sts in
  let width = Stdlib.max 1 (Stdlib.min lanes n) in
  (* one walk at a time needs no more than the batch-1 twin *)
  let prog, lanes = if width = 1 then (prog1, 1) else (prog, lanes) in
  let wide = prog in
  let nr = Compile.register_count prog1 in
  let walks =
    Array.init width (fun _ ->
        {
          traj = Vtab.create ~nr ~cap:(Stdlib.min horizon 16 + 1);
          stop = -1;
          back = hit_memo;
        })
  in
  let memo = Vtab.create ~nr ~cap:64 in
  let scratch = Array.make nr 0.0 in
  (* position [p] of walk [w] holds [src]: record it, and stop the walk
     if it resolves there against the memo as it stands *)
  let observe w src p =
    let h = Vtab.hash src 0 nr in
    Vtab.push w.traj src 0 h;
    if Vtab.find memo src 0 h >= 0 then w.stop <- p
    else
      let j = Vtab.find w.traj src 0 h in
      if j >= 0 then begin
        w.stop <- p;
        w.back <- j
      end
      else if p >= horizon then begin
        w.stop <- p;
        w.back <- hit_horizon
      end
      else Vtab.index w.traj
  in
  (* Step walks [first, first + count) as lanes of [prog] until all
     stop.  [Some t] if step [t] raised.  Steps of [wide] count in
     [search.wide_steps]. *)
  let run_block prog ~lanes ~first ~count =
    let inputs name =
      let z = zero name in
      fun (_ : int) dst off -> Array.fill dst off lanes z
    in
    for l = 0 to lanes - 1 do
      Compile.write_state prog ~lane:l
        (Dyn.get search.sts (first + Stdlib.min l (count - 1)))
    done;
    let active = ref 0 in
    for l = 0 to count - 1 do
      let w = walks.(l) in
      Vtab.clear w.traj;
      w.stop <- -1;
      w.back <- hit_memo;
      observe w (Dyn.get search.sts (first + l)) 0;
      if w.stop < 0 then incr active
    done;
    let t = ref 0 and raised = ref None in
    while !active > 0 && !raised = None do
      if prog == wide then search.wide_steps <- search.wide_steps + 1;
      match Compile.step_once prog ~step:!t ~inputs with
      | exception Invalid_argument _ -> raised := Some !t
      | () ->
          incr t;
          for l = 0 to count - 1 do
            let w = walks.(l) in
            if w.stop < 0 then begin
              Compile.read_state prog ~lane:l scratch;
              observe w scratch !t;
              if w.stop >= 0 then decr active
            end
          done
    done;
    !raised
  in
  let result = ref Lc_none in
  let unknown () = if !result = Lc_none then result := Lc_unknown in
  let found () = match !result with Lc_found _ -> true | _ -> false in
  let decayed w cut =
    for p = 0 to cut - 1 do
      Vtab.add memo w.traj.Vtab.arena (p * nr) w.traj.Vtab.hashes.(p)
    done
  in
  (* the walks of one block, in state-id order: cut each at its first
     position in the memo as the earlier walks left it *)
  let replay ~first ~count =
    let memo0 = memo.Vtab.len in
    let l = ref 0 in
    while !l < count && not (found ()) do
      let w = walks.(!l) in
      let tr = w.traj in
      let cut =
        if memo.Vtab.len = memo0 then
          if w.back = hit_memo then w.stop else -1
        else begin
          let p = ref 0 in
          while
            !p <= w.stop
            && Vtab.find memo tr.Vtab.arena (!p * nr) tr.Vtab.hashes.(!p) < 0
          do
            incr p
          done;
          if !p <= w.stop then !p else -1
        end
      in
      if cut >= 0 then begin
        search.transitions <- search.transitions + cut;
        decayed w cut
      end
      else begin
        let p = w.stop in
        search.transitions <- search.transitions + p;
        if w.back = hit_horizon then unknown ()
        else
          (* revisit: the cycle is positions [back, p).  All-zero states
             form the decayed fixed point; anything else is a sustained
             zero-input oscillation (period 1 = a DC offset) *)
          let zero_state = ref true in
          for r = 0 to nr - 1 do
            if tr.Vtab.arena.((p * nr) + r) <> 0.0 then zero_state := false
          done;
          if !zero_state then decayed w p
          else
            result :=
              Lc_found { sid = first + !l; start = w.back; period = p - w.back }
      end;
      incr l
    done
  in
  let rec block prog ~lanes ~first ~count =
    match run_block prog ~lanes ~first ~count with
    | None -> replay ~first ~count
    | Some t when count = 1 ->
        search.transitions <- search.transitions + t + 1;
        search.crashed <- true;
        unknown ()
    | Some _ ->
        let sid = ref first in
        while !sid < first + count && not (found ()) do
          block prog1 ~lanes:1 ~first:!sid ~count:1;
          incr sid
        done
  in
  let first = ref 0 in
  while !first < n && not (found ()) do
    let count = Stdlib.min width (n - !first) in
    block prog ~lanes ~first:!first ~count;
    first := !first + count
  done;
  (!result, width)

(* --- replay / confirmation --------------------------------------------- *)

let bits = Int64.bits_of_float

let confirm g (ce : counterexample) =
  let ( let* ) = Result.bind in
  let steps = ce.steps in
  if steps <= 0 then Error "empty counterexample"
  else
    let stim name =
      match List.assoc_opt name ce.stimulus with
      | Some arr -> fun step -> arr.(step)
      | None -> fun _ -> 0.0
    in
    let* interp =
      match Sfg.Graph.simulate g ~steps ~inputs:stim with
      | tr -> Ok (Array.of_list tr)
      | exception e ->
          Error (Printf.sprintf "interpreter raised %s" (Printexc.to_string e))
    in
    let* comp =
      match
        let prog = Compile.compile ~batch:1 g in
        Compile.traces prog ~steps ~inputs:(fun name step dst off ->
            dst.(off) <- stim name step)
      with
      | tr -> Ok (Array.of_list tr)
      | exception e ->
          Error (Printf.sprintf "compiled raised %s" (Printexc.to_string e))
    in
    let ns = Array.of_list (Sfg.Graph.nodes g) in
    let* () =
      if Array.length interp <> Array.length comp then
        Error "trace arity mismatch"
      else Ok ()
    in
    let mismatch = ref None in
    Array.iteri
      (fun i (name, (itr : float array)) ->
        let _, ctr = comp.(i) in
        let ctr = ctr.(0) in
        for t = 0 to steps - 1 do
          if !mismatch = None && bits itr.(t) <> bits ctr.(t) then
            mismatch := Some (name, t)
        done)
      interp;
    let* () =
      match !mismatch with
      | Some (name, t) ->
          Error
            (Printf.sprintf "interpreter/compiled diverge at %s step %d" name t)
      | None -> Ok ()
    in
    let tr i = snd interp.(i) in
    match ce.violation with
    | Overflow { node; step } ->
        let id = ref (-1) in
        Array.iteri
          (fun i (nd : Sfg.Node.t) ->
            if nd.Sfg.Node.name = node then id := i)
          ns;
        if !id < 0 then Error (Printf.sprintf "no node named %s" node)
        else if step < 0 || step >= steps then Error "overflow step out of range"
        else begin
          match ns.(!id).Sfg.Node.op with
          | Sfg.Node.Quantize dt ->
              let src = List.hd ns.(!id).Sfg.Node.inputs in
              let v = (tr src).(step) in
              let outcome = Fixpt.Quantize.quantize dt v in
              if outcome.Fixpt.Quantize.overflow <> None then Ok ()
              else
                Error
                  (Printf.sprintf "cast of %h at %s step %d does not overflow"
                     v node step)
          | _ -> Error (Printf.sprintf "%s is not a quantize node" node)
        end
    | Limit_cycle { start; period } ->
        if period <= 0 then Error "non-positive period"
        else if start + (2 * period) > steps then
          Error "stimulus too short to exhibit the cycle"
        else
          let delays = ref [] in
          Array.iteri
            (fun i (nd : Sfg.Node.t) ->
              match nd.Sfg.Node.op with
              | Sfg.Node.Delay _ -> delays := i :: !delays
              | _ -> ())
            ns;
          let delays = List.rev !delays in
          if delays = [] then Error "graph has no registers"
          else
            let recurs =
              List.for_all
                (fun d ->
                  let a = tr d in
                  let ok = ref true in
                  for t = 0 to period - 1 do
                    if bits a.(start + t) <> bits a.(start + period + t) then
                      ok := false
                  done;
                  !ok)
                delays
            in
            let nonzero =
              List.exists
                (fun d ->
                  let a = tr d in
                  let nz = ref false in
                  for t = 0 to period - 1 do
                    if a.(start + t) <> 0.0 then nz := true
                  done;
                  !nz)
                delays
            in
            if not recurs then Error "register state does not recur"
            else if not nonzero then Error "cycle is the zero fixed point"
            else Ok ()

(* --- top-level search --------------------------------------------------- *)

(* [f ()], recorded as a [verify]-category span named [name] when spans
   are on, with [args] of its result as integer arguments. *)
let spanned name args f =
  if not (Trace.Spans.enabled ()) then f ()
  else
    let t0 = Trace.Spans.now () in
    let r = f () in
    Trace.Spans.record ~cat:"verify" ~name ~t0 ~t1:(Trace.Spans.now ())
      ~args:(List.map (fun (k, v) -> (k, string_of_int v)) (args r))
      ();
    r

(* The search programs: [g]'s state cone compiled at [lanes] lanes and
   as the batch-1 twin, both reset. *)
let programs g ~lanes =
  let g = Sfg.Graph.state_cone g in
  let prog = Compile.compile ~batch:lanes g in
  let prog1 = Compile.compile ~batch:1 g in
  Compile.reset prog;
  Compile.reset prog1;
  (prog, prog1)

(* Input name -> its position in a letter. *)
let input_index specs =
  let itbl = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace itbl s.iname i) specs;
  fun name -> try Hashtbl.find itbl name with Not_found -> 0

let bounded_reason ~exhaustive ~truncated ~crashed ~extra =
  let r = ref [] in
  if crashed then r := "arithmetic escape (NaN) on an explored path" :: !r;
  if truncated then r := "state/letter budget exceeded" :: !r;
  if not exhaustive then r := "corner stimuli only (input space too large)" :: !r;
  (match extra with Some e -> r := e :: !r | None -> ());
  match !r with [] -> "search bounded" | rs -> String.concat "; " rs

let verify ?(max_bits = 10) ?(depth = 64) ?(max_states = 65536) property g =
  if max_bits < 0 || max_bits > 20 then
    invalid_arg "Verify.verify: max_bits out of [0, 20]";
  if depth < 1 then invalid_arg "Verify.verify: depth < 1";
  if max_states < 1 then invalid_arg "Verify.verify: max_states < 1";
  let specs, letters, exhaustive, alpha_truncated =
    build_alphabet ~max_bits (input_specs g)
  in
  let nl = Array.length letters in
  let lanes = explore_lanes nl in
  let prog, prog1 = programs g ~lanes in
  let idx = input_index specs in
  let depth_limit = if exhaustive then -1 else depth in
  let stop_on_overflow = property = No_overflow in
  let search =
    spanned "explore"
      (fun s ->
        [
          ("states", Dyn.len s.sts);
          ("transitions", s.transitions);
          ("lanes", lanes);
          ("steps", s.wide_steps);
        ])
      (fun () ->
        explore ~prog ~lanes ~prog1 ~idx ~letters ~max_states ~depth_limit
          ~stop_on_overflow)
  in
  if alpha_truncated then search.truncated <- true;
  let mk_stats () =
    {
      letters = nl;
      exhaustive;
      states = Dyn.len search.sts;
      transitions = search.transitions;
      truncated = search.truncated;
      crashed = search.crashed;
    }
  in
  let refute ce =
    match
      spanned "confirm"
        (fun _ -> [ ("transitions", ce.steps); ("lanes", 1) ])
        (fun () -> confirm g ce)
    with
    | Ok () -> Refuted ce
    | Error why ->
        (* an unconfirmable counterexample is an engine defect, not a
           verdict: stay sound and report the search as inconclusive *)
        Bounded_out (Printf.sprintf "counterexample failed replay: %s" why)
  in
  let verdict =
    match property with
    | No_overflow -> (
        match search.hit with
        | Some (sid, letter, node) ->
            let path = path_letters search sid in
            let stimulus =
              build_stimulus specs letters ~path ~tail:[| `Letter letter |]
            in
            let step = List.length path in
            refute
              { steps = step + 1; stimulus; violation = Overflow { node; step } }
        | None ->
            if
              exhaustive && (not search.truncated) && not search.crashed
            then Proved
            else
              Bounded_out
                (bounded_reason ~exhaustive ~truncated:search.truncated
                   ~crashed:search.crashed ~extra:None))
    | No_limit_cycle -> (
        let closure_complete =
          exhaustive && (not search.truncated) && not search.crashed
        in
        let horizon =
          if closure_complete then Stdlib.max depth (Dyn.len search.sts + 1)
          else depth
        in
        let zero name = specs.(idx name).zero in
        let explored = search.transitions
        and explore_steps = search.wide_steps in
        match
          spanned "scan"
            (fun (r, width) ->
              [
                ( "states",
                  match r with
                  | Lc_found { sid; _ } -> sid + 1
                  | Lc_none | Lc_unknown -> Dyn.len search.sts );
                ("transitions", search.transitions - explored);
                ("lanes", width);
                ("steps", search.wide_steps - explore_steps);
              ])
            (fun () ->
              scan_limit_cycles ~prog ~lanes ~prog1 ~zero ~search ~horizon)
          |> fst
        with
        | Lc_found { sid; start; period } ->
            let path = path_letters search sid in
            let prefix = List.length path in
            let tail = Array.make (start + (2 * period)) `Zero in
            let stimulus = build_stimulus specs letters ~path ~tail in
            refute
              {
                steps = prefix + start + (2 * period);
                stimulus;
                violation = Limit_cycle { start = prefix + start; period };
              }
        | Lc_none ->
            if closure_complete then Proved
            else
              Bounded_out
                (bounded_reason ~exhaustive ~truncated:search.truncated
                   ~crashed:search.crashed ~extra:None)
        | Lc_unknown ->
            Bounded_out
              (bounded_reason ~exhaustive ~truncated:search.truncated
                 ~crashed:search.crashed
                 ~extra:(Some "zero-input walk exceeded the horizon")))
  in
  { property; verdict; stats = mk_stats () }

module For_testing = struct
  type nonrec lc_result = lc_result =
    | Lc_none
    | Lc_unknown
    | Lc_found of { sid : int; start : int; period : int }

  let scan_limit_cycles ~lanes g ~states ~horizon =
    let prog, prog1 = programs g ~lanes in
    let specs = input_specs g in
    let zero name = (List.find (fun s -> s.iname = name) specs).zero in
    let search = new_search () in
    List.iter (Dyn.push search.sts) states;
    let r, _ = scan_limit_cycles ~prog ~lanes ~prog1 ~zero ~search ~horizon in
    (r, search.transitions, search.crashed)

  type explored = {
    states : float array list;
    parents : (int * int) list;
    depths : int list;
    transitions : int;
    truncated : bool;
    crashed : bool;
    hit : (int * int * string) option;
  }

  let explore g ~letters ~max_states ~depth_limit ~stop_on_overflow =
    let lanes = explore_lanes (Array.length letters) in
    let prog, prog1 = programs g ~lanes in
    let idx = input_index (Array.of_list (input_specs g)) in
    let s =
      explore ~prog ~lanes ~prog1 ~idx ~letters ~max_states ~depth_limit
        ~stop_on_overflow
    in
    let list d = List.init (Dyn.len d) (Dyn.get d) in
    {
      states = list s.sts;
      parents = list s.parent;
      depths = list s.depth;
      transitions = s.transitions;
      truncated = s.truncated;
      crashed = s.crashed;
      hit = s.hit;
    }
end

(* --- rendering ---------------------------------------------------------- *)

let str = Trace.Json.string_lit

let violation_to_json b = function
  | Overflow { node; step } ->
      Printf.bprintf b "{\"kind\":\"overflow\",\"node\":%s,\"step\":%d}"
        (str node) step
  | Limit_cycle { start; period } ->
      Printf.bprintf b
        "{\"kind\":\"limit-cycle\",\"start\":%d,\"period\":%d}" start period

let counterexample_to_json b ce =
  Printf.bprintf b "{\"steps\":%d,\"violation\":" ce.steps;
  violation_to_json b ce.violation;
  Buffer.add_string b ",\"stimulus\":{";
  List.iteri
    (fun i (name, arr) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%s:[" (str name);
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b "\"%h\"" v)
        arr;
      Buffer.add_char b ']')
    ce.stimulus;
  Buffer.add_string b "}}"

let report_to_json r =
  let b = Buffer.create 256 in
  Printf.bprintf b "{\"property\":\"%s\",\"verdict\":\"%s\""
    (property_name r.property)
    (match r.verdict with
    | Proved -> "proved"
    | Refuted _ -> "refuted"
    | Bounded_out _ -> "bounded-out");
  (match r.verdict with
  | Proved -> ()
  | Refuted ce ->
      Buffer.add_string b ",\"counterexample\":";
      counterexample_to_json b ce
  | Bounded_out why ->
      Printf.bprintf b ",\"reason\":%s" (str why));
  let s = r.stats in
  Printf.bprintf b
    ",\"stats\":{\"letters\":%d,\"exhaustive\":%b,\"states\":%d,\"transitions\":%d,\"truncated\":%b,\"crashed\":%b}}"
    s.letters s.exhaustive s.states s.transitions s.truncated s.crashed;
  Buffer.contents b

let pp_report ppf r =
  let verdict_str =
    match r.verdict with
    | Proved -> "PROVED"
    | Refuted { violation = Overflow { node; step }; _ } ->
        Printf.sprintf "REFUTED (overflow at %s, step %d)" node step
    | Refuted { violation = Limit_cycle { start; period }; _ } ->
        Printf.sprintf "REFUTED (limit cycle, start %d, period %d)" start
          period
    | Bounded_out why -> Printf.sprintf "BOUNDED OUT (%s)" why
  in
  let s = r.stats in
  Format.fprintf ppf "%s: %s — %d letters%s, %d states, %d transitions%s%s"
    (property_name r.property) verdict_str s.letters
    (if s.exhaustive then " (exhaustive)" else " (corners)")
    s.states s.transitions
    (if s.truncated then ", truncated" else "")
    (if s.crashed then ", crashed" else "")
