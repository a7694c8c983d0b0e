(** Verification-oracle gate: verdicts, determinism, range-analysis
    soundness cross-check and counterexample golden files over the
    conformance workloads and the pinned biquads. *)

type result = { name : string; detail : string; ok : bool }
type report = { results : result list }

let max_bits = 10
let depth = 48
let max_states = 4096

let properties = [ Verify.Engine.No_overflow; Verify.Engine.No_limit_cycle ]

(* Each entry rebuilds its graph from scratch, so a second call
   re-extracts deterministically (fixed seeds). *)
let targets () =
  List.map
    (fun (w : Workloads.t) ->
      ( w.Workloads.name,
        fun () ->
          Option.get (w.Workloads.build ()).Workloads.extract_graph () ))
    Workloads.all
  @ Verify.Designs.all

let verify_target prop mk =
  Verify.Engine.verify ~max_bits ~depth ~max_states prop (mk ())

(* A refuted quantizer where the range analysis claims the input fits
   the type is a soundness bug in the ranges: the verifier's concrete
   counterexample checks the static range analysis. *)
let cross_check_ranges g node =
  let ns = Array.of_list (Sfg.Graph.nodes g) in
  let id = ref (-1) in
  Array.iteri
    (fun i (nd : Sfg.Node.t) -> if nd.Sfg.Node.name = node then id := i)
    ns;
  if !id < 0 then Error (Printf.sprintf "refuted node %s not in graph" node)
  else
    match ns.(!id).Sfg.Node.op with
    | Sfg.Node.Quantize dt ->
        let src = List.hd ns.(!id).Sfg.Node.inputs in
        let res = Sfg.Range_analysis.run g in
        let _, rng = res.Sfg.Range_analysis.ranges.(src) in
        let lo, hi = Fixpt.Dtype.range dt in
        let representable = Interval.make lo hi in
        let analysis_safe =
          match rng with
          | Interval.Empty -> true
          | Interval.Range _ -> Interval.subset rng representable
        in
        if analysis_safe then
          Error
            (Printf.sprintf
               "SOUNDNESS BUG: range analysis claims %s (input range %s fits \
                %s) but verification found a concrete overflow"
               node (Interval.to_string rng)
               (Fixpt.Dtype.to_string dt))
        else
          Ok
            (Printf.sprintf "consistent: analysis range %s exceeds %s"
               (Interval.to_string rng)
               (Fixpt.Dtype.to_string dt))
    | _ -> Error (Printf.sprintf "refuted node %s is not a quantizer" node)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let run ?(update = false) ?dir () =
  let dir = match dir with Some d -> d | None -> Golden.default_dir () in
  (if update && not (Sys.file_exists dir) then
     try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let results = ref [] in
  let push name detail ok = results := { name; detail; ok } :: !results in
  List.iter
    (fun (wname, mk) ->
      List.iter
        (fun prop ->
          let pname = Verify.Engine.property_name prop in
          let rname = Printf.sprintf "verify/%s/%s" wname pname in
          match verify_target prop mk with
          | exception e -> push rname (Printexc.to_string e) false
          | r ->
              push rname (Format.asprintf "%a" Verify.Engine.pp_report r) true;
              (* byte-identical verdicts on a rebuilt graph *)
              (match verify_target prop mk with
              | exception e ->
                  push (rname ^ "/deterministic") (Printexc.to_string e) false
              | r2 ->
                  let j1 = Verify.Engine.report_to_json r
                  and j2 = Verify.Engine.report_to_json r2 in
                  if j1 = j2 then
                    push (rname ^ "/deterministic")
                      (Printf.sprintf "verdict JSON byte-identical (%d bytes)"
                         (String.length j1))
                      true
                  else
                    push (rname ^ "/deterministic")
                      "verdict JSON differs between runs" false);
              (match r.Verify.Engine.verdict with
              | Verify.Engine.Refuted ce ->
                  (match ce.Verify.Engine.violation with
                  | Verify.Engine.Overflow { node; _ } -> (
                      match cross_check_ranges (mk ()) node with
                      | Ok detail -> push (rname ^ "/ranges") detail true
                      | Error detail -> push (rname ^ "/ranges") detail false)
                  | Verify.Engine.Limit_cycle _ -> ());
                  (* the counterexample becomes a permanent conformance
                     input: golden stimulus file + replay from the file *)
                  let file =
                    Filename.concat dir
                      (Printf.sprintf "verify_%s_%s.stim" wname pname)
                  in
                  let text = Verify.Stim.to_string ~property:prop ce in
                  (if update then begin
                     let existed = Sys.file_exists file in
                     write_file file text;
                     push (rname ^ "/stimulus")
                       (Printf.sprintf "%s %s"
                          (if existed then "updated" else "created")
                          file)
                       true
                   end
                   else
                     match
                       if Sys.file_exists file then
                         Some (Store.Durable.read_file file)
                       else None
                     with
                     | None ->
                         push (rname ^ "/stimulus")
                           (Printf.sprintf
                              "golden stimulus %s missing (run with \
                               --update-golden)"
                              file)
                           false
                     | Some old when old = text ->
                         push (rname ^ "/stimulus")
                           (Printf.sprintf "matches %s" file) true
                     | Some _ ->
                         push (rname ^ "/stimulus")
                           (Printf.sprintf "differs from %s" file) false);
                  (match Verify.Stim.of_string text with
                  | Error e ->
                      push (rname ^ "/replay")
                        ("stimulus did not parse back: " ^ e)
                        false
                  | Ok (_, ce') -> (
                      match Verify.Engine.confirm (mk ()) ce' with
                      | Ok () ->
                          push (rname ^ "/replay")
                            (Printf.sprintf
                               "violation reproduced from serialized \
                                stimulus (%d steps), interpreter = compiled"
                               ce'.Verify.Engine.steps)
                            true
                      | Error e ->
                          push (rname ^ "/replay")
                            ("replay failed: " ^ e) false))
              | Verify.Engine.Proved | Verify.Engine.Bounded_out _ -> ()))
        properties)
    (targets ());
  { results = List.rev !results }

let passed r = List.for_all (fun x -> x.ok) r.results

let pp_report ppf r =
  List.iter
    (fun x ->
      Format.fprintf ppf "  [%s] %-42s %s@."
        (if x.ok then "ok" else "XX")
        x.name x.detail)
    r.results
