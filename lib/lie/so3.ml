open Orianna_linalg

let small = 1e-8

let hat v =
  if Vec.dim v <> 3 then invalid_arg "So3.hat: expected a 3-vector";
  Mat.of_rows
    [|
      [| 0.0; -.v.(2); v.(1) |];
      [| v.(2); 0.0; -.v.(0) |];
      [| -.v.(1); v.(0); 0.0 |];
    |]

let vee m =
  let r, c = Mat.dims m in
  if r <> 3 || c <> 3 then invalid_arg "So3.vee: expected a 3x3 matrix";
  [| Mat.get m 2 1; Mat.get m 0 2; Mat.get m 1 0 |]

(* I + a * W + b * W^2, the shape shared by exp, jr and jr_inv. *)
let rodrigues_combination ~a ~b w =
  let w2 = Mat.mul w w in
  Mat.add (Mat.identity 3) (Mat.add (Mat.scale a w) (Mat.scale b w2))

let exp phi =
  if Vec.dim phi <> 3 then invalid_arg "So3.exp: expected a 3-vector";
  Macs.add 12;
  let theta = Vec.norm phi in
  let w = hat phi in
  if theta < small then
    (* Second-order Taylor expansion. *)
    rodrigues_combination ~a:1.0 ~b:0.5 w
  else begin
    let a = sin theta /. theta in
    let b = (1.0 -. cos theta) /. (theta *. theta) in
    rodrigues_combination ~a ~b w
  end

let log r =
  let m, n = Mat.dims r in
  if m <> 3 || n <> 3 then invalid_arg "So3.log: expected a 3x3 matrix";
  Macs.add 15;
  let tr = Mat.trace r in
  let cos_theta = Float.max (-1.0) (Float.min 1.0 ((tr -. 1.0) /. 2.0)) in
  let theta = acos cos_theta in
  if theta < small then
    (* phi ~ vee(R - Rᵀ) / 2 near identity. *)
    Vec.scale 0.5 (vee (Mat.sub r (Mat.transpose r)))
  else if Float.pi -. theta < 1e-3 then begin
    (* Near pi, R = cos θ·I + sin θ·[a]× + (1 - cos θ)·a aᵀ with sin θ
       small: the general branch divides a vanishing antisymmetric part
       by a vanishing sine.  Take the axis from the symmetric part
       instead, (R + Rᵀ)/2 - cos θ·I = (1 - cos θ)·a aᵀ, whose column
       with the largest diagonal entry is the best-conditioned multiple
       of a, and θ from atan2 (acos loses half the digits near pi). *)
    let anti = vee (Mat.sub r (Mat.transpose r)) in
    let theta = atan2 (0.5 *. Vec.norm anti) cos_theta in
    let b =
      Mat.sub (Mat.scale 0.5 (Mat.add r (Mat.transpose r))) (Mat.scale cos_theta (Mat.identity 3))
    in
    let k = ref 0 in
    for i = 1 to 2 do
      if Mat.get b i i > Mat.get b !k !k then k := i
    done;
    let axis = Array.init 3 (fun i -> Mat.get b i !k) in
    let axis = Vec.scale (1.0 /. Vec.norm axis) axis in
    (* The antisymmetric part, while nonzero, fixes the sign. *)
    let sign = if Vec.dot anti axis < 0.0 then -1.0 else 1.0 in
    Vec.scale (sign *. theta) axis
  end
  else begin
    let scale = theta /. (2.0 *. sin theta) in
    Vec.scale scale (vee (Mat.sub r (Mat.transpose r)))
  end

let jr phi =
  Macs.add 10;
  let theta = Vec.norm phi in
  let w = hat phi in
  if theta < small then rodrigues_combination ~a:(-0.5) ~b:(1.0 /. 6.0) w
  else begin
    let t2 = theta *. theta in
    let a = -.(1.0 -. cos theta) /. t2 in
    let b = (theta -. sin theta) /. (t2 *. theta) in
    rodrigues_combination ~a ~b w
  end

let jr_inv phi =
  Macs.add 10;
  let theta = Vec.norm phi in
  let w = hat phi in
  if theta < small then rodrigues_combination ~a:0.5 ~b:(1.0 /. 12.0) w
  else begin
    let t2 = theta *. theta in
    let b = (1.0 /. t2) -. ((1.0 +. cos theta) /. (2.0 *. theta *. sin theta)) in
    rodrigues_combination ~a:0.5 ~b w
  end

let jl phi = jr (Vec.neg phi)
let jl_inv phi = jr_inv (Vec.neg phi)

let normalize r =
  (* Modified Gram-Schmidt on the columns, then rebuild. *)
  let c0 = Mat.col r 0 in
  let c0 = Vec.scale (1.0 /. Vec.norm c0) c0 in
  let c1 = Mat.col r 1 in
  let c1 = Vec.sub c1 (Vec.scale (Vec.dot c0 c1) c0) in
  let c1 = Vec.scale (1.0 /. Vec.norm c1) c1 in
  (* c2 = c0 x c1 guarantees det = +1. *)
  let c2 =
    [|
      (c0.(1) *. c1.(2)) -. (c0.(2) *. c1.(1));
      (c0.(2) *. c1.(0)) -. (c0.(0) *. c1.(2));
      (c0.(0) *. c1.(1)) -. (c0.(1) *. c1.(0));
    |]
  in
  Mat.init 3 3 (fun i j -> match j with 0 -> c0.(i) | 1 -> c1.(i) | _ -> c2.(i))

let is_rotation ?(eps = 1e-6) r =
  let m, n = Mat.dims r in
  m = 3 && n = 3
  && Mat.equal ~eps (Mat.mul (Mat.transpose r) r) (Mat.identity 3)
  &&
  (* det = +1: use the scalar triple product of the columns. *)
  let c0 = Mat.col r 0 and c1 = Mat.col r 1 and c2 = Mat.col r 2 in
  let cross =
    [|
      (c0.(1) *. c1.(2)) -. (c0.(2) *. c1.(1));
      (c0.(2) *. c1.(0)) -. (c0.(0) *. c1.(2));
      (c0.(0) *. c1.(1)) -. (c0.(1) *. c1.(0));
    |]
  in
  Float.abs (Vec.dot cross c2 -. 1.0) < eps

let random rng =
  let open Orianna_util in
  let axis = [| Rng.gaussian rng; Rng.gaussian rng; Rng.gaussian rng |] in
  let norm = Vec.norm axis in
  if norm < 1e-9 then Mat.identity 3
  else begin
    let angle = Rng.uniform rng ~lo:(-.Float.pi) ~hi:Float.pi in
    exp (Vec.scale (angle /. norm) axis)
  end

let angle_between r1 r2 = Vec.norm (log (Mat.mul (Mat.transpose r1) r2))
