(** The cache's payload codec and the glue binding a {!Cache} into the
    evaluator's {!Refine.Eval.cache} hook — see the .mli. *)

(* Bump on ANY change to what an evaluation computes (or to the payload
   format): the string is folded into every cache key, so old entries
   simply stop being addressable — invalidation without deletion. *)
let evaluator_version = "fxeval/1"

let encode = Store.Monitor.encode
let decode = Store.Monitor.decode
let context () = evaluator_version

let eval_cache cache =
  {
    Refine.Eval.context = context ();
    lookup = (fun key -> Option.bind (Cache.lookup cache key) decode);
    insert =
      (fun key m ->
        (* the compiled path never produces counters, but the hook
           stays total: a counter-carrying record is simply not cached *)
        if m.Refine.Eval.counters = None then
          Cache.insert cache key (encode m));
  }
