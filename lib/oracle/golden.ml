(* Golden traces: deterministic textual snapshots of workload monitor
   state and refinement outcomes, compared byte-for-byte. *)

type outcome = Match | Created | Updated | Missing | Differ of string
type entry = { file : string; outcome : outcome }
type result = { dir : string; entries : entry list }

let default_dir () =
  match Sys.getenv_opt "FXREFINE_GOLDEN_DIR" with
  | Some d -> d
  | None ->
      if Sys.file_exists "test/conformance/golden" then
        "test/conformance/golden"
      else "golden"

let hex = Printf.sprintf "%h"

let pair_str = function
  | None -> "-"
  | Some (lo, hi) -> Printf.sprintf "[%h, %h]" lo hi

(* --- monitor-state trace ----------------------------------------------- *)

let signal_line buf s =
  let err = Sim.Signal.err_stats s in
  Buffer.add_string buf
    (Printf.sprintf
       "signal %-12s %-24s assigns=%-6d overflows=%-3d stat=%s prop=%s \
        err_consumed_max=%s err_produced_max=%s\n"
       (Sim.Signal.name s)
       (match Sim.Signal.dtype s with
       | Some dt -> Fixpt.Dtype.to_string dt
       | None -> "<float>")
       (Sim.Signal.assignments s)
       (Sim.Signal.overflows s)
       (pair_str (Sim.Signal.stat_range s))
       (pair_str (Sim.Signal.prop_range s))
       (hex (Stats.Running.max_abs (Stats.Err_stats.consumed err)))
       (hex (Stats.Running.max_abs (Stats.Err_stats.produced err))))

let trace_of_built (b : Workloads.built) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "fxrefine golden trace: workload %s\n" b.Workloads.workload);
  Buffer.add_string buf (Printf.sprintf "probe %s\n" b.Workloads.probe);
  let sqnr = b.Workloads.sqnr in
  Buffer.add_string buf
    (Printf.sprintf "sqnr samples=%d db=%s\n" (Stats.Sqnr.count sqnr)
       (hex (Stats.Sqnr.db sqnr)));
  Buffer.add_string buf
    (Printf.sprintf "max_divergence %s\n" (hex (b.Workloads.max_divergence ())));
  Buffer.add_string buf
    (Printf.sprintf "vcd_md5 %s\n"
       (Digest.to_hex (Digest.string (b.Workloads.vcd ()))));
  List.iter (fun s -> signal_line buf s) (Sim.Env.signals b.Workloads.env);
  Buffer.contents buf

(* --- refinement report ------------------------------------------------- *)

let refine_report (w : Workloads.t) =
  let b = w.Workloads.build () in
  match b.Workloads.design with
  | None -> None
  | Some design ->
      let r =
        Refine.Flow.refine ~sqnr_signal:b.Workloads.probe design
      in
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      Format.fprintf ppf "fxrefine golden refine report: workload %s@."
        w.Workloads.name;
      Format.fprintf ppf
        "iterations msb=%d lsb=%d simulation_runs=%d@."
        r.Refine.Flow.msb_iterations r.Refine.Flow.lsb_iterations
        r.Refine.Flow.simulation_runs;
      List.iter
        (fun it -> Format.fprintf ppf "%a@." Refine.Flow.pp_iteration it)
        r.Refine.Flow.iterations;
      (match r.Refine.Flow.sqnr_before_db with
      | Some v -> Format.fprintf ppf "sqnr_before_db %s@." (hex v)
      | None -> ());
      (match r.Refine.Flow.sqnr_after_db with
      | Some v -> Format.fprintf ppf "sqnr_after_db %s@." (hex v)
      | None -> ());
      List.iter
        (fun (name, dt) ->
          Format.fprintf ppf "type %-12s %s@." name (Fixpt.Dtype.to_string dt))
        r.Refine.Flow.types;
      Format.fprintf ppf "%s@."
        (Refine.Report.summary design.Refine.Flow.env r.Refine.Flow.msb_decisions
           r.Refine.Flow.lsb_decisions);
      Format.pp_print_flush ppf ();
      Some (Buffer.contents buf)

(* --- VHDL golden files -------------------------------------------------- *)

(* A small 3-tap FIR flowgraph; coefficients and ranges are exact binary
   fractions so the emitted text is libm-independent. *)
let vhdl_fir_graph () =
  let g = Sfg.Graph.create () in
  let _, y =
    Dsp.Fir.to_sfg g ~coefs:Designs.Fir.conformance_coefs
      ~input_range:(-1.0, 1.0)
  in
  Sfg.Graph.mark_output g "y" y;
  g

let vhdl_formats = Vhdl.Of_sfg.uniform_formats ~n:12 ~f:8

let vhdl_wrap () =
  Vhdl.Emit.entity
    (Vhdl.Of_sfg.entity ~name:"fir_wrap" ~formats:vhdl_formats
       (vhdl_fir_graph ()))

(* Saturation on the accumulator chain (v[_]) — the nodes the MSB rules
   would mark in a real refinement. *)
let vhdl_sat () =
  Vhdl.Emit.entity
    (Vhdl.Of_sfg.entity
       ~saturating:(fun n -> String.length n > 0 && n.[0] = 'v')
       ~name:"fir_sat" ~formats:vhdl_formats (vhdl_fir_graph ()))

(* Self-checking testbench: the same filter as a monitored Sim block
   ({!Designs.Fixtures}); its captured bit-true codes become the
   testbench's golden vectors. *)
let vhdl_testbench () =
  let formats = Vhdl.Of_sfg.uniform_formats ~n:10 ~f:8 in
  let dut = Vhdl.Of_sfg.entity ~name:"fir_dut" ~formats (vhdl_fir_graph ()) in
  Vhdl.Testbench.emit ~latency:1 ~dut ~formats
    (Designs.Fixtures.fir_testbench_vectors ())

(* The synchronizer's refined feedback slice, with the saturating
   integrator the §6.1 flow decides. *)
let vhdl_sync_loop () =
  Vhdl.Emit.entity
    (Vhdl.Of_sfg.entity
       ~saturating:(fun n -> String.equal n "lf_integ")
       ~name:"sync_loop" ~formats:vhdl_formats
       (Designs.Fixtures.sync_loop_graph ()))

let vhdl_cases () =
  [
    ("fir_wrap.vhd", vhdl_wrap ());
    ("fir_sat.vhd", vhdl_sat ());
    ("fir_tb.vhd", vhdl_testbench ());
    ("sync_loop.vhd", vhdl_sync_loop ());
  ]

(* --- file plumbing ------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let rec ensure_dir dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* first differing line, for a readable mismatch message *)
let first_diff expected actual =
  let e = String.split_on_char '\n' expected
  and a = String.split_on_char '\n' actual in
  let rec go i = function
    | [], [] -> "contents differ"
    | x :: _, [] ->
        Printf.sprintf "line %d: golden has %S, trace ends" i x
    | [], y :: _ ->
        Printf.sprintf "line %d: golden ends, trace has %S" i y
    | x :: xs, y :: ys ->
        if String.equal x y then go (i + 1) (xs, ys)
        else Printf.sprintf "line %d: golden %S vs trace %S" i x y
  in
  go 1 (e, a)

let compare_one ~update ~dir file contents =
  let path = Filename.concat dir file in
  let outcome =
    if update then begin
      ensure_dir dir;
      if not (Sys.file_exists path) then begin
        write_file path contents;
        Created
      end
      else if String.equal (Store.Durable.read_file path) contents then Match
      else begin
        write_file path contents;
        Updated
      end
    end
    else if not (Sys.file_exists path) then Missing
    else
      let expected = Store.Durable.read_file path in
      if String.equal expected contents then Match
      else Differ (first_diff expected contents)
  in
  { file; outcome }

(* --- driver ------------------------------------------------------------ *)

let check ?(update = false) ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let entries =
    List.concat_map
      (fun (w : Workloads.t) ->
        let b = w.Workloads.build () in
        b.Workloads.run ();
        let trace =
          compare_one ~update ~dir
            (w.Workloads.name ^ ".trace")
            (trace_of_built b)
        in
        match refine_report w with
        | None -> [ trace ]
        | Some report ->
            [
              trace;
              compare_one ~update ~dir (w.Workloads.name ^ ".refine") report;
            ])
      Workloads.all
  in
  let vhdl_entries =
    List.map
      (fun (file, contents) -> compare_one ~update ~dir file contents)
      (vhdl_cases ())
  in
  { dir; entries = entries @ vhdl_entries }

let passed r =
  List.for_all
    (fun e ->
      match e.outcome with
      | Match | Created | Updated -> true
      | Missing | Differ _ -> false)
    r.entries

let outcome_str = function
  | Match -> "match"
  | Created -> "created"
  | Updated -> "updated"
  | Missing -> "MISSING"
  | Differ d -> "DIFFER: " ^ d

let pp_result ppf r =
  Format.fprintf ppf "golden traces in %s:" r.dir;
  List.iter
    (fun e -> Format.fprintf ppf "@.  %-16s %s" e.file (outcome_str e.outcome))
    r.entries
