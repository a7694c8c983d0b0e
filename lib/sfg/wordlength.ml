(** Analytical wordlength assignment — the pure-analysis baseline
    (reference [3] in the paper: Willems et al.'s interpolative
    approach, reconstructed at the level of detail the comparison
    needs).

    Given a graph, an output node and an output noise budget (target
    σ at the output), assign every internal signal:

    - an MSB position from the worst-case {!Range_analysis} ranges
      (conservative by construction — this is exactly the overestimation
      the paper's §1 attributes to analytical methods);
    - an LSB position by distributing the noise budget over the
      quantization points, weighted by each point's {e noise gain} to
      the output (measured by adding a unit variance at the point and
      propagating it analytically).

    The hybrid flow ({!Refine.Flow}) is benchmarked against this
    assignment in the §"compare" experiment. *)

type assignment = {
  name : string;
  msb : int option;  (** None — range exploded, no finite MSB *)
  lsb : int option;
      (** None — node needs no quantization (const/control); a register
          takes the LSB of the signal it holds *)
}

type result = {
  assignments : assignment list;
  total_bits : int option;  (** None if any signal has no finite format *)
  exploded : string list;
}

(* Noise gain of node [src] to node [out]: propagate a unit variance
   added at [src] through the moment system. *)
let noise_gain graph ~ranges ~src ~out =
  let unit_at_src name =
    if String.equal name src then
      { Noise_analysis.zero_m with Noise_analysis.var = 1.0 }
    else Noise_analysis.zero_m
  in
  (* A unit variance at arbitrary (non-input) nodes: model by treating the node
     as if it quantized with unit variance — we reuse the input mechanism
     by wrapping the transfer: simplest sound approach is to run the
     moment system with an extra additive unit variance at [src]. *)
  let ns = Array.of_list (Graph.nodes graph) in
  let cur = Array.make (Array.length ns) Noise_analysis.zero_m in
  let changed = ref true in
  let iter = ref 0 in
  while !changed && !iter < 64 do
    changed := false;
    incr iter;
    Array.iteri
      (fun i (n : Node.t) ->
        let args = List.map (fun j -> cur.(j)) n.Node.inputs in
        let next =
          Noise_analysis.transfer ranges.Range_analysis.ranges n args
            ~input_noise:unit_at_src
        in
        let next =
          (* non-input source points get the unit variance added here;
             input nodes already received it through [unit_at_src] *)
          match n.Node.op with
          | Node.Input _ -> next
          | _ ->
              if String.equal n.Node.name src then
                { next with Noise_analysis.var = next.Noise_analysis.var +. 1.0 }
              else next
        in
        let next =
          (* only the bound moments are monotone; the signed mean is
             left free (see {!Noise_analysis.run}) — irrelevant here
             anyway, the gain probe reads variances *)
          {
            next with
            Noise_analysis.mag =
              Float.max next.Noise_analysis.mag cur.(i).Noise_analysis.mag;
            var = Float.max next.Noise_analysis.var cur.(i).Noise_analysis.var;
          }
        in
        if
          Float.abs (next.Noise_analysis.var -. cur.(i).Noise_analysis.var)
          > 1e-12 *. (1.0 +. cur.(i).Noise_analysis.var)
        then begin
          cur.(i) <- next;
          changed := true
        end)
      ns
  done;
  match
    Array.to_list ns
    |> List.find_opt (fun (n : Node.t) -> String.equal n.Node.name out)
  with
  | Some n -> cur.(n.Node.id).Noise_analysis.var
  | None -> invalid_arg (Printf.sprintf "Wordlength.noise_gain: no node %s" out)

(** Summed width of [assignments]: [None] when one has no finite
    format or an inverted one. *)
let total_bits assignments =
  List.fold_left
    (fun acc a ->
      match (acc, a.msb, a.lsb) with
      (* an inverted format (msb < lsb) has no representable width:
         refuse to total it instead of summing a negative count *)
      | Some _, Some m, Some l when m < l -> None
      | Some total, Some m, Some l -> Some (total + (m - l + 1))
      | Some total, Some _, None -> Some total (* no quantizer here *)
      | _, None, _ -> None
      | None, _, _ -> None)
    (Some 0) assignments

(* Nodes that carry a datapath value needing a format (not constants-only
   controls). *)
let needs_format (n : Node.t) =
  match n.Node.op with
  | Node.Const _ -> false
  | _ -> true

(** [assign graph ~output ~sigma_budget] — compute the analytical
    wordlength assignment such that the accumulated quantization noise
    at [output] stays below [sigma_budget] (standard deviation). *)
let assign ?(widen_after = Range_analysis.default_widen_after) graph ~output
    ~sigma_budget =
  if sigma_budget <= 0.0 then invalid_arg "Wordlength.assign: budget <= 0";
  let ranges = Range_analysis.run ~widen_after graph in
  let ns = List.filter needs_format (Graph.nodes graph) in
  let q_points = List.filter (fun (n : Node.t) -> not (Node.is_stateful n.Node.op)) ns in
  let nq = max 1 (List.length q_points) in
  let var_budget_each = sigma_budget *. sigma_budget /. Float.of_int nq in
  let q_lsb = Hashtbl.create 64 in
  List.iter
    (fun (n : Node.t) ->
      let gain = noise_gain graph ~ranges ~src:n.Node.name ~out:output in
      let lsb =
        if gain <= 0.0 || not (Float.is_finite gain) then None
        else
          (* q²/12 · gain ≤ budget_each  ⇒  q ≤ sqrt(12·budget/gain) *)
          let q = sqrt (12.0 *. var_budget_each /. gain) in
          (* a huge gain underflows q to 0 and log2 to −∞, whose int
             conversion is unspecified: clamp to the float exponent
             range, like [Err_stats.precision_of] *)
          let p = Float.floor (Float.log2 q) in
          Some (Float.to_int (Float.max (-1074.0) (Float.min 1023.0 p)))
      in
      Hashtbl.replace q_lsb n.Node.id lsb)
    q_points;
  (* A register holds its source's value, so it takes the source's LSB,
     found through aliases and chained registers (a loop of registers
     and aliases alone has none). *)
  let rec held_lsb seen id =
    let n = Graph.node graph id in
    match (n.Node.op, n.Node.inputs) with
    | (Node.Alias | Node.Delay _), [ src ] when not (List.mem id seen) ->
        held_lsb (id :: seen) src
    | (Node.Alias | Node.Delay _), _ -> None
    | _ -> Option.join (Hashtbl.find_opt q_lsb id)
  in
  let assignments =
    List.map
      (fun (n : Node.t) ->
        let name = n.Node.name in
        let msb = Range_analysis.msb_of ranges name in
        let lsb =
          match n.Node.op with
          | Node.Delay _ -> held_lsb [] n.Node.id
          | _ -> Option.join (Hashtbl.find_opt q_lsb n.Node.id)
        in
        { name; msb; lsb })
      ns
  in
  let exploded = ranges.Range_analysis.exploded in
  { assignments; total_bits = total_bits assignments; exploded }

let pp ppf result =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun a ->
      Format.fprintf ppf "%-12s msb=%s lsb=%s@," a.name
        (match a.msb with Some m -> string_of_int m | None -> "∞")
        (match a.lsb with Some l -> string_of_int l | None -> "-"))
    result.assignments;
  (match result.total_bits with
  | Some b -> Format.fprintf ppf "total bits: %d@," b
  | None -> Format.fprintf ppf "total bits: unbounded@,");
  Format.fprintf ppf "@]"
