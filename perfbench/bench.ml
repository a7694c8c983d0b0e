(* The benchmark's measuring process: one workload per process.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --run-dir DIR --fxrefine EXE --pins FILE
   bench.exe pin-sync --pins FILE     (re-pin sweep-sync's digests)

   perfbench/run.py builds this program and the CLI, creates the run
   directory and calls it; see perfbench/WORKLOADS.md. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload sweep-fir|sweep-sync|serve-mix|verify-bounded \
     --seed N --seconds S --trace 0|1 --run-dir DIR --fxrefine EXE --pins FILE\n\
    \       bench.exe pin-sync --pins FILE";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | "pin-sync" :: rest ->
      let o = opts [] rest in
      let pins = try List.assoc "--pins" o with Not_found -> usage () in
      let spec = Sweeps.sync ~pins in
      Out_channel.with_open_text pins (fun oc ->
          output_string oc
            "# sweep-sync: workload seed -> MD5 of Sweep.Report.to_json of its pass.\n\
             # Regenerate with: _build/default/perfbench/bench.exe pin-sync --pins \
             perfbench/sync_pins.txt\n";
          for ws = 0 to Sweeps.sync_sets - 1 do
            let seeds = spec.Sweeps.stim_seeds ws in
            let _, j = Sweeps.pass spec seeds (spec.Sweeps.workload ()) () in
            Printf.fprintf oc "%d %s\n%!" ws (Sweeps.digest j)
          done)
  | _ ->
      (* the first reference-loop runs grow the heap; keep them out of
         every host sample *)
      for _ = 1 to 10 do
        Common.reference_loop ()
      done;
      let o = opts [] args in
      let get k = try List.assoc k o with Not_found -> usage () in
      let workload = get "--workload" in
      let seed = int_of_string (get "--seed") in
      let seconds = float_of_string (get "--seconds") in
      let trace = get "--trace" = "1" in
      let run_dir = get "--run-dir" in
      let pins = get "--pins" in
      let fxrefine = get "--fxrefine" in
      let result =
        match (workload, trace) with
        | "sweep-fir", false ->
            Sweeps.run_e2e ~spec:Sweeps.fir ~seed ~seconds ~run_dir
        | "sweep-fir", true -> Sweeps.run_traced ~spec:Sweeps.fir ~seed ~seconds
        | "sweep-sync", false ->
            Sweeps.run_e2e ~spec:(Sweeps.sync ~pins) ~seed ~seconds ~run_dir
        | "sweep-sync", true ->
            Sweeps.run_traced ~spec:(Sweeps.sync ~pins) ~seed ~seconds
        | "serve-mix", false -> Mix.run_e2e ~seed ~seconds ~run_dir ~fxrefine
        | "serve-mix", true -> Mix.run_traced ~seed ~seconds ~run_dir
        | "verify-bounded", false -> Verifyb.run_e2e ~seed ~seconds ~run_dir
        | "verify-bounded", true -> Verifyb.run_traced ~seed ~seconds
        | w, _ ->
            Printf.eprintf "unknown workload %S\n" w;
            exit 2
      in
      Common.print_result result
