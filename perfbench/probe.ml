(* Benchmark-side tracing: wrappers around the closures a sweep calls
   into ({!Sweep.Workload.t}, its instances, the generator and the
   evaluation-cache hook), recording wall-clock stamps from outside the
   library.  Together with the library's own {!Trace.Spans} (candidate,
   compile and exec spans) they attribute a candidate's time to layers.

   Only the traced run installs these wrappers, except [reset_stamps]:
   one clock read per candidate, which is how the untraced run measures
   per-candidate latency. *)

open Common

(* A growable float buffer of timestamps or durations. *)
type buf = { mutable n : int; mutable a : float array }

let buf () = { n = 0; a = Array.make 4096 0.0 }

let push b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0.0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let clear b = b.n <- 0
let to_list b = Array.to_list (Array.sub b.a 0 b.n)
let sum b = List.fold_left ( +. ) 0.0 (to_list b)

(* Every stamp the traced run takes. *)
type t = {
  reset_end : buf;  (** after each [design.reset] *)
  run_dur : buf;  (** each interpreted [design.run] *)
  extract_end : buf;  (** after each [compiled.extract] *)
  extract_dur : buf;
  lookup_start : buf;  (** entering each cache lookup *)
  lookup_dur : buf;
  insert_dur : buf;
  next_dur : buf;  (** each [generator.next] *)
  mutable next_end : float;  (** end of the latest [generator.next] *)
  wave_end : buf;  (** each [on_wave] callback *)
}

let create () =
  {
    reset_end = buf ();
    run_dur = buf ();
    extract_end = buf ();
    extract_dur = buf ();
    lookup_start = buf ();
    lookup_dur = buf ();
    insert_dur = buf ();
    next_dur = buf ();
    next_end = 0.0;
    wave_end = buf ();
  }

let clear_all p =
  List.iter clear
    [
      p.reset_end; p.run_dur; p.extract_end; p.extract_dur; p.lookup_start;
      p.lookup_dur; p.insert_dur; p.next_dur; p.wave_end;
    ]

let timed b f =
  let t0 = now () in
  let r = f () in
  push b (now () -. t0);
  r

(* Per-candidate latency for the untraced run: stamp every
   [design.reset] — the pool issues exactly one per candidate. *)
let reset_stamps (stamps : buf) (w : Sweep.Workload.t) =
  let make_instance () =
    let inst = w.Sweep.Workload.make_instance () in
    let d = inst.Sweep.Workload.design in
    let reset () =
      push stamps (now ());
      d.Refine.Flow.reset ()
    in
    { inst with Sweep.Workload.design = { d with Refine.Flow.reset } }
  in
  { w with Sweep.Workload.make_instance }

let wrap_workload p (w : Sweep.Workload.t) =
  let make_instance () =
    let inst = w.Sweep.Workload.make_instance () in
    let d = inst.Sweep.Workload.design in
    let reset () =
      d.Refine.Flow.reset ();
      push p.reset_end (now ())
    in
    let run () = timed p.run_dur d.Refine.Flow.run in
    let compiled =
      Option.map
        (fun (ce : Refine.Eval.compiled_eval) ->
          let extract () =
            let g = timed p.extract_dur ce.Refine.Eval.extract in
            push p.extract_end (now ());
            g
          in
          { ce with Refine.Eval.extract })
        inst.Sweep.Workload.compiled
    in
    {
      inst with
      Sweep.Workload.design = { d with Refine.Flow.reset; run };
      compiled;
    }
  in
  { w with Sweep.Workload.make_instance }

let wrap_generator p (g : Sweep.Generator.t) =
  let next prev =
    let t0 = now () in
    let r = g.Sweep.Generator.next prev in
    let t1 = now () in
    push p.next_dur (t1 -. t0);
    p.next_end <- t1;
    r
  in
  { g with Sweep.Generator.next }

let wrap_cache p (c : Refine.Eval.cache) =
  {
    c with
    Refine.Eval.lookup =
      (fun k ->
        push p.lookup_start (now ());
        timed p.lookup_dur (fun () -> c.Refine.Eval.lookup k));
    insert = (fun k m -> timed p.insert_dur (fun () -> c.Refine.Eval.insert k m));
  }

let on_wave p (_ : Sweep.Pool.progress) = push p.wave_end (now ())

(* --- attributing the spans ---------------------------------------------- *)

let spans_named ~cat ~prefix spans =
  List.filter
    (fun (s : Trace.Spans.span) ->
      String.equal s.Trace.Spans.cat cat
      && String.starts_with ~prefix s.Trace.Spans.name)
    spans
  |> List.sort (fun a b -> compare a.Trace.Spans.t0 b.Trace.Spans.t0)

let durations spans =
  List.map (fun (s : Trace.Spans.span) -> s.Trace.Spans.t1 -. s.Trace.Spans.t0) spans

(* For each candidate span, the interval from its start (the pool's
   baseline restore) to the first [design.reset] end inside it:
   restore + seed + apply_assigns + reset. *)
let restore_durations p cand_spans =
  let stamps = Array.of_list (List.sort compare (to_list p.reset_end)) in
  let n = Array.length stamps in
  let rec go i acc = function
    | [] -> List.rev acc
    | (s : Trace.Spans.span) :: rest ->
        let rec first j =
          if j < n && stamps.(j) < s.Trace.Spans.t0 then first (j + 1) else j
        in
        let j = first i in
        if j < n && stamps.(j) <= s.Trace.Spans.t1 then
          go (j + 1) ((stamps.(j) -. s.Trace.Spans.t0) :: acc) rest
        else go j acc rest
  in
  go 0 [] cand_spans

(* Canonical JSON + MD5 key time: from the end of a candidate's
   extraction to the cache lookup it leads to. *)
let key_durations p =
  let ends = List.sort compare (to_list p.extract_end) in
  let starts = List.sort compare (to_list p.lookup_start) in
  let rec go acc es ls =
    match (es, ls) with
    | e :: es', l :: ls' ->
        if l < e then go acc es ls'
        else (
          match es' with
          | e2 :: _ when e2 <= l -> go acc es' ls
          | _ -> go ((l -. e) :: acc) es' ls')
    | _ -> List.rev acc
  in
  go [] ends starts

(* Checkpoint record time of each evaluated wave: from the wave's last
   candidate span end to the [on_wave] callback that follows the
   durable write.  Replayed waves have no candidate span in between. *)
let record_durations p cand_spans =
  let ends =
    List.map (fun (s : Trace.Spans.span) -> s.Trace.Spans.t1) cand_spans
    |> List.sort compare
  in
  let waves = List.sort compare (to_list p.wave_end) in
  let rec go acc prev ends waves =
    match waves with
    | [] -> List.rev acc
    | w :: ws ->
        let inside, rest = List.partition (fun e -> e > prev && e <= w) ends in
        let acc =
          match List.rev inside with last :: _ -> (w -. last) :: acc | [] -> acc
        in
        go acc w rest ws
  in
  go [] neg_infinity ends waves

let instrs_of (s : Trace.Spans.span) =
  match List.assoc_opt "instrs" s.Trace.Spans.args with
  | Some v -> float_of_string v
  | None -> nan
