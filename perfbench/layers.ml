(* The metric names every run prints, in BENCHMARK.json order.  Every
   workload prints every name: a layer a workload never enters reads 0
   in the traced run, which is itself the prediction "this workload
   cannot move it". *)

let end_to_end =
  [
    ("setup_s", "s");
    ("cand_per_s", "1/s");
    ("jobs_per_s", "1/s");
    ("job_p50_ms", "ms");
    ("job_p99_ms", "ms");
    ("peak_rss_mb", "MB");
    ("disk_mb", "MB");
    ("verify_s", "s");
    ("decided_frac", "1");
  ]

let per_layer =
  [
    ("sim.restore_us", "us");
    ("sim.extract_us", "us");
    ("sim.run_us", "us");
    ("sfg.key_us", "us");
    ("compile.compile_us", "us");
    ("compile.exec_us", "us");
    ("compile.instrs", "count");
    ("sweep.generate_ms", "ms");
    ("sweep.report_ms", "ms");
    ("sweep.minor_words_per_cand", "words");
    ("sweep.major_gcs", "count");
    ("sweep.checkpoint_record_us", "us");
    ("sweep.replayed_waves", "count");
    ("serve.wire_us", "us");
    ("serve.report_kb", "KB");
    ("serve.lookup_us", "us");
    ("serve.insert_us", "us");
    ("serve.lookups", "count");
    ("serve.hits", "count");
    ("serve.misses", "count");
    ("serve.inserts", "count");
    ("serve.evictions", "count");
    ("serve.hit_ratio", "1");
    ("serve.service_ms.hit", "ms");
    ("serve.service_ms.miss", "ms");
    ("serve.service_ms.replay", "ms");
    ("serve.service_ms.interp", "ms");
    ("serve.cache_mb", "MB");
    ("serve.journal_mb", "MB");
    ("verify.graph_ms", "ms");
    ("verify.states", "count");
    ("verify.transitions", "count");
    ("verify.transitions_per_s", "1/s");
    ("verify.confirm_ms", "ms");
    ("verify.proved", "count");
    ("verify.refuted", "count");
    ("verify.bounded", "count");
    ("trace.overhead_pct", "%");
    ("trace.exact_mismatches", "count");
  ]

(* The full metric list for [names], taking each value from [values]
   (missing names read 0). *)
let fill names values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then failwith ("unknown metric " ^ n))
    values;
  List.map
    (fun (name, unit_) ->
      Common.m name unit_ (Option.value (List.assoc_opt name values) ~default:0.0))
    names

(* Compare the exact counts of two repetitions; each differing name is
   a note and one mismatch. *)
let exact_check a b =
  List.fold_left
    (fun (n, notes) (name, va) ->
      match List.assoc_opt name b with
      | Some vb when Float.equal va vb -> (n, notes)
      | Some vb ->
          ( n + 1,
            Printf.sprintf "exact count %s did not repeat: %s vs %s" name
              (Common.num va) (Common.num vb)
            :: notes )
      | None -> (n + 1, ("exact count missing: " ^ name) :: notes))
    (0, []) a
