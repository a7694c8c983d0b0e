(** Radix-2 decimation-in-time FFT as a monitored hardware block.

    The canonical wordlength-refinement workload beyond the paper's two
    examples: every butterfly stage grows the signal magnitude by up to
    a factor of two (the √2 average / 2 worst-case bit-growth problem),
    so the MSB rules award one extra integer bit per stage — unless the
    architecture scales by ½ per stage, which instead pushes the
    quantization-noise question to the LSB side.  Both variants are
    built here; the bench's scaling ablation quantifies the trade-off.

    Every stage's real/imaginary intermediate is an individually
    monitored signal, so the refinement tables show the growth profile
    directly.  Twiddle factors are design-time constants. *)

type t = {
  n : int;
  stages : int;
  scale : bool;  (** divide by 2 after each stage (total 1/N gain) *)
  re : Sim.Sig_array.t array;  (** stage s values, s = 0 .. stages *)
  im : Sim.Sig_array.t array;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(** [create env ~n ()] — an [n]-point (power of two) transform.
    [~scale:true] selects the ½-per-stage architecture. *)
let create env ?(prefix = "fft_") ?(scale = false) ~n () =
  if not (is_pow2 n) then invalid_arg "Fft.create: size must be a power of 2";
  if n < 2 || n > 4096 then invalid_arg "Fft.create: size out of range";
  let stages = ilog2 n in
  let mk part s =
    Sim.Sig_array.create env (Printf.sprintf "%s%s%d" prefix part s) n
  in
  {
    n;
    stages;
    scale;
    re = Array.init (stages + 1) (mk "re");
    im = Array.init (stages + 1) (mk "im");
  }

let size t = t.n
let stage_count t = t.stages

(** Signals of stage [s] (0 = bit-reversed input, [stages] = output). *)
let stage_signals t s =
  Sim.Sig_array.to_list t.re.(s) @ Sim.Sig_array.to_list t.im.(s)

let bit_reverse ~bits i =
  let r = ref 0 in
  for b = 0 to bits - 1 do
    if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
  done;
  !r

let twiddle ~m j =
  let angle = -2.0 *. Float.pi *. Float.of_int j /. Float.of_int m in
  (cos angle, sin angle)

(** Run one transform over simulation values.  [input] is an array of
    [n] complex pairs; returns the [n] output pairs (values of the last
    stage's signals). *)
let transform t (input : (Sim.Value.t * Sim.Value.t) array) =
  if Array.length input <> t.n then invalid_arg "Fft.transform: size mismatch";
  let open Sim.Ops in
  (* load stage 0 in bit-reversed order *)
  for i = 0 to t.n - 1 do
    let src = bit_reverse ~bits:t.stages i in
    let vr, vi = input.(src) in
    Sim.Sig_array.get t.re.(0) i <-- vr;
    Sim.Sig_array.get t.im.(0) i <-- vi
  done;
  for s = 0 to t.stages - 1 do
    let m = 1 lsl (s + 1) in
    let half = 1 lsl s in
    let rin = t.re.(s) and iin = t.im.(s) in
    let rout = t.re.(s + 1) and iout = t.im.(s + 1) in
    let k = ref 0 in
    while !k < t.n do
      for j = 0 to half - 1 do
        let wr, wi = twiddle ~m j in
        let ar = !!(Sim.Sig_array.get rin (!k + j))
        and ai = !!(Sim.Sig_array.get iin (!k + j))
        and br = !!(Sim.Sig_array.get rin (!k + j + half))
        and bi = !!(Sim.Sig_array.get iin (!k + j + half)) in
        (* complex product t = w * b *)
        let tr = (cst wr *: br) -: (cst wi *: bi) in
        let ti = (cst wr *: bi) +: (cst wi *: br) in
        let post v = if t.scale then shift_right v 1 else v in
        Sim.Sig_array.get rout (!k + j) <-- post (ar +: tr);
        Sim.Sig_array.get iout (!k + j) <-- post (ai +: ti);
        Sim.Sig_array.get rout (!k + j + half) <-- post (ar -: tr);
        Sim.Sig_array.get iout (!k + j + half) <-- post (ai -: ti)
      done;
      k := !k + m
    done
  done;
  Array.init t.n (fun i ->
      ( !!(Sim.Sig_array.get t.re.(t.stages) i),
        !!(Sim.Sig_array.get t.im.(t.stages) i) ))

(** Direct-evaluation DFT reference, [X_k = Σ_j x_j e^{-2πi jk/n}],
    optionally with the same 1/n gain as the scaled architecture. *)
let reference ?(scale = false) (x : (float * float) array) =
  let n = Array.length x in
  let g = if scale then 1.0 /. Float.of_int n else 1.0 in
  Array.init n (fun k ->
      let acc_r = ref 0.0 and acc_i = ref 0.0 in
      for j = 0 to n - 1 do
        let xr, xi = x.(j) in
        let a = -2.0 *. Float.pi *. Float.of_int (j * k) /. Float.of_int n in
        let c = cos a and s = sin a in
        acc_r := !acc_r +. ((xr *. c) -. (xi *. s));
        acc_i := !acc_i +. ((xr *. s) +. (xi *. c))
      done;
      (g *. !acc_r, g *. !acc_i))

(** Apply a dtype to every signal of every stage (for uniform-format
    baseline experiments). *)
let set_dtype t dt =
  Array.iter (fun a -> Sim.Sig_array.set_dtype a dt) t.re;
  Array.iter (fun a -> Sim.Sig_array.set_dtype a dt) t.im
