(** Direct-form FIR filter as a monitored hardware block.

    Declares the paper-style signal structure — a coefficient [sigarray],
    a delay-line [regarray] and an accumulator-chain [sigarray]
    ([v[i] = v[i-1] + d[i-1]*c[i-1]], §3) — so every internal node is
    individually range- and error-monitored, exactly like the FIR inside
    the motivational example.

    A pure float reference implementation is provided for tests and SQNR
    scoring. *)

type t = {
  env : Sim.Env.t;
  coefs : Sim.Sig_array.t;  (** c[0..n-1], constants *)
  delay : Sim.Sig_array.t;  (** d[0..n-1], registered *)
  acc : Sim.Sig_array.t;  (** v[0..n], combinational accumulator chain *)
  n : int;
}

(** [create env ~prefix ~coefs ()] declares the block's signals with
    names [<prefix>c], [<prefix>d], [<prefix>v].  Optional dtypes type
    the delay line and accumulators from the start. *)
let create env ?(prefix = "") ?coef_dtype ?delay_dtype ?acc_dtype ~coefs () =
  let n = Array.length coefs in
  if n = 0 then invalid_arg "Fir.create: empty coefficients";
  let c = Sim.Sig_array.create env ?dtype:coef_dtype (prefix ^ "c") n in
  let d = Sim.Sig_array.create_reg env ?dtype:delay_dtype (prefix ^ "d") n in
  let v = Sim.Sig_array.create env ?dtype:acc_dtype (prefix ^ "v") (n + 1) in
  (* coefficient loading is constructor initialization: re-executed by
     every fresh simulation run (Env reset hook) *)
  Sim.Env.at_reset env (fun () -> Sim.Sig_array.init_values c coefs);
  { env; coefs = c; delay = d; acc = v; n }

let length t = t.n
let coefs t = t.coefs
let delay_line t = t.delay
let accumulators t = t.acc

(** One clock cycle: shift the input into the delay line and fold the
    accumulator chain; returns the filter output value [v[n]]. *)
let step t (input : Sim.Value.t) : Sim.Value.t =
  let open Sim.Ops in
  Sim.Sig_array.get t.delay 0 <-- input;
  for i = t.n - 1 downto 1 do
    Sim.Sig_array.get t.delay i <-- !!(Sim.Sig_array.get t.delay (i - 1))
  done;
  Sim.Sig_array.get t.acc 0 <-- cst 0.0;
  for i = 1 to t.n do
    Sim.Sig_array.get t.acc i
    <-- !!(Sim.Sig_array.get t.acc (i - 1))
        +: (!!(Sim.Sig_array.get t.delay (i - 1))
            *: !!(Sim.Sig_array.get t.coefs (i - 1)));
  done;
  !!(Sim.Sig_array.get t.acc t.n)

(** Pure float reference: [output.(i) = Σ_j coefs.(j)·input.(i-j)]. *)
let reference ~coefs input =
  let n = Array.length input and k = Array.length coefs in
  Array.init n (fun i ->
      let acc = ref 0.0 in
      for j = 0 to k - 1 do
        if i - j >= 0 then acc := !acc +. (coefs.(j) *. input.(i - j))
      done;
      !acc)

(** Worst-case output bound for inputs within ±[peak]:
    [peak · Σ|c|] — what the analytical range propagation must find. *)
let worst_case_gain coefs =
  Array.fold_left (fun acc c -> acc +. Float.abs c) 0.0 coefs

(** The same filter as a hand-built flowgraph.  Only the VHDL fixtures
    use it: the emitter cannot yet take the extracted graph, whose
    literal [v[0]] is a free input.  Every analysis runs on the graph
    extracted from the design. *)
let to_sfg ~coefs ~input_range:(lo, hi) g =
  let n = Array.length coefs in
  let x = Sfg.Graph.input g "x" ~lo ~hi in
  let d = Array.make n x in
  d.(0) <- Sfg.Graph.delay_of g "d[0]" x;
  for i = 1 to n - 1 do
    d.(i) <- Sfg.Graph.delay_of g (Printf.sprintf "d[%d]" i) d.(i - 1)
  done;
  let acc = ref (Sfg.Graph.const g ~name:"v[0]" 0.0) in
  Array.iteri
    (fun i c ->
      let ci = Sfg.Graph.const g ~name:(Printf.sprintf "c[%d]" i) c in
      let p = Sfg.Graph.mul g ~name:(Printf.sprintf "p[%d]" i) d.(i) ci in
      acc := Sfg.Graph.add g ~name:(Printf.sprintf "v[%d]" (i + 1)) !acc p)
    coefs;
  (x, !acc)
