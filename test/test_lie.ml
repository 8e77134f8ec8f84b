open Orianna_linalg
open Orianna_lie
open Orianna_util

let check_mat msg ?(eps = 1e-8) a b =
  if not (Mat.equal ~eps a b) then
    Alcotest.failf "%s:@.%a@.vs@.%a" msg (fun ppf -> Mat.pp ppf) a (fun ppf -> Mat.pp ppf) b

let check_vec msg ?(eps = 1e-8) a b =
  if not (Vec.equal ~eps a b) then
    Alcotest.failf "%s: %a vs %a" msg (fun ppf -> Vec.pp ppf) a (fun ppf -> Vec.pp ppf) b

let check_float = Alcotest.(check (float 1e-9))

(* ---------- SO(2) ---------- *)

let test_so2_roundtrip () =
  List.iter
    (fun theta -> check_float "log(exp)" theta (So2.log (So2.exp theta)))
    [ 0.0; 0.5; -1.2; 3.0; -3.0 ]

let test_so2_wrap () =
  check_float "wrap 2pi+1" 1.0 (So2.wrap_angle ((2.0 *. Float.pi) +. 1.0));
  check_float "wrap -2pi-1" (-1.0) (So2.wrap_angle ((-2.0 *. Float.pi) -. 1.0));
  check_float "wrap pi" Float.pi (So2.wrap_angle Float.pi)

let test_so2_hat_vee () =
  check_float "vee(hat)" 0.7 (So2.vee (So2.hat 0.7))

let test_so2_perp () =
  (* d(R v)/dtheta = R perp(v): finite differences. *)
  let theta = 0.8 and v = [| 1.5; -0.3 |] in
  let eps = 1e-6 in
  let f t = Mat.mul_vec (So2.exp t) v in
  let numeric = Vec.scale (1.0 /. (2.0 *. eps)) (Vec.sub (f (theta +. eps)) (f (theta -. eps))) in
  check_vec "perp derivative" ~eps:1e-6 numeric (Mat.mul_vec (So2.exp theta) (So2.perp v))

(* ---------- SO(3) ---------- *)

let rng () = Rng.of_int 99

let test_so3_hat_vee () =
  let v = [| 1.0; -2.0; 3.0 |] in
  check_vec "vee(hat)" v (So3.vee (So3.hat v));
  let h = So3.hat v in
  check_mat "antisymmetric" (Mat.neg h) (Mat.transpose h)

let test_so3_exp_is_rotation () =
  let r = rng () in
  for _ = 1 to 20 do
    let phi = Array.init 3 (fun _ -> Rng.uniform r ~lo:(-3.0) ~hi:3.0) in
    Alcotest.(check bool) "is rotation" true (So3.is_rotation (So3.exp phi))
  done

let test_so3_exp_log_roundtrip () =
  let r = rng () in
  for _ = 1 to 50 do
    (* Keep |phi| < pi so the log is unique. *)
    let phi = Array.init 3 (fun _ -> Rng.uniform r ~lo:(-1.7) ~hi:1.7) in
    let phi = if Vec.norm phi >= Float.pi then Vec.scale (3.0 /. Vec.norm phi) phi else phi in
    check_vec "log(exp)" ~eps:1e-7 phi (So3.log (So3.exp phi))
  done

let test_so3_log_exp_roundtrip () =
  let r = rng () in
  for _ = 1 to 50 do
    let rot = So3.random r in
    check_mat "exp(log)" ~eps:1e-7 rot (So3.exp (So3.log rot))
  done

let test_so3_log_small_angle () =
  let phi = [| 1e-10; -2e-10; 5e-11 |] in
  check_vec "tiny angle" ~eps:1e-15 phi (So3.log (So3.exp phi))

let test_so3_log_near_pi () =
  List.iter
    (fun axis ->
      let a = Vec.scale (1.0 /. Vec.norm axis) axis in
      let phi = Vec.scale (Float.pi -. 1e-7) a in
      let back = So3.log (So3.exp phi) in
      (* Near pi the sign of the axis may flip; compare rotations. *)
      check_mat "rotation preserved" ~eps:1e-5 (So3.exp phi) (So3.exp back))
    [ [| 1.0; 0.0; 0.0 |]; [| 0.0; 1.0; 0.0 |]; [| 1.0; 1.0; 1.0 |]; [| -0.3; 0.4; 0.86 |] ]

(* Exp(Log R) = R as pi - theta shrinks to 0, on random axes.  The
   near-pi branch (pi - theta < 1e-3) must hold 1e-12 in Frobenius
   norm; the general branch's error grows towards its edge (2.9e-9 at
   1e-3), so the two outer points get 1e-8. *)
let test_so3_log_near_pi_sweep () =
  let r = rng () in
  List.iter
    (fun gap ->
      for _ = 1 to 50 do
        let axis = [| Rng.gaussian r; Rng.gaussian r; Rng.gaussian r |] in
        let a = Vec.scale (1.0 /. Vec.norm axis) axis in
        let rot = So3.exp (Vec.scale (Float.pi -. gap) a) in
        let d = Mat.sub (So3.exp (So3.log rot)) rot in
        let err = ref 0.0 in
        for i = 0 to 2 do
          for j = 0 to 2 do
            err := !err +. (Mat.get d i j *. Mat.get d i j)
          done
        done;
        let bound = if gap < 1e-3 then 1e-12 else 1e-8 in
        if sqrt !err > bound then
          Alcotest.failf "pi - theta = %g: |Exp(Log R) - R|_F = %g > %g" gap (sqrt !err) bound
      done)
    [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7; 1e-8; 0.0 ]

let test_so3_jr_numeric () =
  (* Exp(phi + d) ~ Exp(phi) Exp(Jr(phi) d). *)
  let r = rng () in
  for _ = 1 to 20 do
    let phi = Array.init 3 (fun _ -> Rng.uniform r ~lo:(-1.5) ~hi:1.5) in
    let jr = So3.jr phi in
    let eps = 1e-6 in
    for k = 0 to 2 do
      let d = Vec.create 3 in
      d.(k) <- eps;
      let lhs = So3.exp (Vec.add phi d) in
      let rhs = Mat.mul (So3.exp phi) (So3.exp (Mat.mul_vec jr d)) in
      check_mat "jr column" ~eps:1e-9 lhs rhs
    done
  done

let test_so3_jr_inv () =
  let r = rng () in
  for _ = 1 to 20 do
    let phi = Array.init 3 (fun _ -> Rng.uniform r ~lo:(-1.5) ~hi:1.5) in
    check_mat "jr_inv * jr = I" ~eps:1e-9 (Mat.identity 3) (Mat.mul (So3.jr_inv phi) (So3.jr phi))
  done

let test_so3_jl_identities () =
  let r = rng () in
  for _ = 1 to 20 do
    let phi = Array.init 3 (fun _ -> Rng.uniform r ~lo:(-1.5) ~hi:1.5) in
    (* Jl(phi) = Jr(phi)^T = Jr(-phi). *)
    check_mat "jl = jr^T" (Mat.transpose (So3.jr phi)) (So3.jl phi);
    check_mat "jl_inv inverts" ~eps:1e-9 (Mat.identity 3) (Mat.mul (So3.jl_inv phi) (So3.jl phi))
  done

let test_so3_normalize () =
  let r = rng () in
  let rot = So3.random r in
  let drifted = Mat.map (fun x -> x +. 1e-4) rot in
  let fixed = So3.normalize drifted in
  Alcotest.(check bool) "normalized is rotation" true (So3.is_rotation ~eps:1e-9 fixed)

(* ---------- Pose3 <so(3), T(3)> ---------- *)

let random_pose3 r = Pose3.random r ~scale:2.0

let test_pose3_group_laws () =
  let r = rng () in
  for _ = 1 to 20 do
    let a = random_pose3 r and b = random_pose3 r in
    (* (a + b) - a = b  (Equ. 2 consistency). *)
    Alcotest.(check bool) "oplus/ominus" true
      (Pose3.equal ~eps:1e-9 b (Pose3.ominus (Pose3.oplus a b) a));
    (* a + a^-1 = identity. *)
    Alcotest.(check bool) "inverse" true
      (Pose3.equal ~eps:1e-9 Pose3.identity (Pose3.oplus a (Pose3.inverse a)));
    (* identity is neutral. *)
    Alcotest.(check bool) "neutral" true (Pose3.equal ~eps:1e-12 a (Pose3.oplus a Pose3.identity))
  done

let test_pose3_associativity () =
  let r = rng () in
  let a = random_pose3 r and b = random_pose3 r and c = random_pose3 r in
  Alcotest.(check bool) "assoc" true
    (Pose3.equal ~eps:1e-9 (Pose3.oplus (Pose3.oplus a b) c) (Pose3.oplus a (Pose3.oplus b c)))

let test_pose3_retract_local () =
  let r = rng () in
  for _ = 1 to 20 do
    let a = random_pose3 r and b = random_pose3 r in
    Alcotest.(check bool) "retract(local)" true
      (Pose3.equal ~eps:1e-8 b (Pose3.retract a (Pose3.local a b)))
  done

(* The case QCheck drew as seed 808501 for the property
   "pose3: retract(a, local(a,b)) = b": a relative rotation 7.6e-5
   short of pi. *)
let test_pose3_retract_local_seed_808501 () =
  let r = Rng.of_int 808501 in
  let a = Pose3.random r ~scale:3.0 and b = Pose3.random r ~scale:3.0 in
  Alcotest.(check bool) "retract(local)" true
    (Pose3.equal ~eps:1e-7 b (Pose3.retract a (Pose3.local a b)))

let test_pose3_act_matches_se3 () =
  let r = rng () in
  let p = random_pose3 r in
  let x = [| 0.3; -1.2; 2.0 |] in
  check_vec "act" (Se3.act (Convert.se3_of_pose3 p) x) (Pose3.act p x)

let test_pose3_compose_matches_se3 () =
  let r = rng () in
  let a = random_pose3 r and b = random_pose3 r in
  let via_se3 = Convert.pose3_of_se3 (Se3.compose (Convert.se3_of_pose3 a) (Convert.se3_of_pose3 b)) in
  Alcotest.(check bool) "compose matches" true (Pose3.equal ~eps:1e-9 via_se3 (Pose3.oplus a b))

(* ---------- Pose2 ---------- *)

let test_pose2_group_laws () =
  let r = rng () in
  for _ = 1 to 20 do
    let a = Pose2.random r ~scale:3.0 and b = Pose2.random r ~scale:3.0 in
    Alcotest.(check bool) "oplus/ominus" true
      (Pose2.equal ~eps:1e-9 b (Pose2.ominus (Pose2.oplus a b) a));
    Alcotest.(check bool) "inverse" true
      (Pose2.equal ~eps:1e-9 Pose2.identity (Pose2.oplus a (Pose2.inverse a)))
  done

let test_pose2_retract_local () =
  let r = rng () in
  for _ = 1 to 20 do
    let a = Pose2.random r ~scale:3.0 and b = Pose2.random r ~scale:3.0 in
    Alcotest.(check bool) "retract(local)" true
      (Pose2.equal ~eps:1e-9 b (Pose2.retract a (Pose2.local a b)))
  done

(* ---------- SE(3) ---------- *)

let random_xi r = Array.init 6 (fun _ -> Rng.uniform r ~lo:(-1.0) ~hi:1.0)

let test_se3_exp_log () =
  let r = rng () in
  for _ = 1 to 30 do
    let xi = random_xi r in
    check_vec "log(exp)" ~eps:1e-7 xi (Se3.log (Se3.exp xi))
  done

let test_se3_compose_inverse () =
  let r = rng () in
  let a = Se3.exp (random_xi r) and b = Se3.exp (random_xi r) in
  Alcotest.(check bool) "assoc identity" true
    (Se3.equal ~eps:1e-9 Se3.identity (Se3.compose a (Se3.inverse a)));
  let c = Se3.compose a b in
  Alcotest.(check bool) "inverse of product" true
    (Se3.equal ~eps:1e-8 (Se3.inverse c) (Se3.compose (Se3.inverse b) (Se3.inverse a)))

let test_se3_adjoint () =
  (* T Exp(xi) T^-1 = Exp(Ad_T xi). *)
  let r = rng () in
  for _ = 1 to 10 do
    let t = Se3.exp (random_xi r) in
    let xi = Vec.scale 0.3 (random_xi r) in
    let lhs = Se3.compose (Se3.compose t (Se3.exp xi)) (Se3.inverse t) in
    let rhs = Se3.exp (Mat.mul_vec (Se3.adjoint t) xi) in
    check_mat "adjoint" ~eps:1e-7 (Se3.to_matrix lhs) (Se3.to_matrix rhs)
  done

let test_se3_jacobians_numeric () =
  (* Exp(xi + d) ~ Exp(xi) Exp(Jr(xi) d): check all 6 columns. *)
  let r = rng () in
  for _ = 1 to 5 do
    let xi = Vec.scale 0.8 (random_xi r) in
    let jr = Se3.jr xi in
    let eps = 1e-6 in
    for k = 0 to 5 do
      let d = Vec.create 6 in
      d.(k) <- eps;
      let lhs = Se3.exp (Vec.add xi d) in
      let rhs = Se3.compose (Se3.exp xi) (Se3.exp (Mat.mul_vec jr d)) in
      check_mat "jr column" ~eps:1e-8 (Se3.to_matrix lhs) (Se3.to_matrix rhs)
    done
  done

let test_se3_jr_inv () =
  let r = rng () in
  for _ = 1 to 10 do
    let xi = random_xi r in
    check_mat "jr_inv * jr" ~eps:1e-8 (Mat.identity 6) (Mat.mul (Se3.jr_inv xi) (Se3.jr xi));
    check_mat "jl_inv * jl" ~eps:1e-8 (Mat.identity 6) (Mat.mul (Se3.jl_inv xi) (Se3.jl xi))
  done

let test_se3_retract_local () =
  let r = rng () in
  for _ = 1 to 10 do
    let a = Se3.exp (random_xi r) and b = Se3.exp (random_xi r) in
    check_mat "retract(local)" ~eps:1e-7 (Se3.to_matrix b)
      (Se3.to_matrix (Se3.retract a (Se3.local a b)))
  done

let test_se3_bad_matrix () =
  Alcotest.check_raises "bad bottom row"
    (Invalid_argument "Se3.of_matrix: bottom row is not [0 0 0 1]") (fun () ->
      ignore (Se3.of_matrix (Mat.create 4 4)))

(* ---------- Quaternions ---------- *)

let test_quat_roundtrip () =
  let r = rng () in
  for _ = 1 to 30 do
    let rot = So3.random r in
    check_mat "to_rotation(of_rotation)" ~eps:1e-9 rot (Quat.to_rotation (Quat.of_rotation rot))
  done

let test_quat_mul_matches_matrix () =
  let r = rng () in
  let r1 = So3.random r and r2 = So3.random r in
  let q = Quat.mul (Quat.of_rotation r1) (Quat.of_rotation r2) in
  check_mat "product" ~eps:1e-9 (Mat.mul r1 r2) (Quat.to_rotation q)

let test_quat_rotate () =
  let r = rng () in
  let rot = So3.random r in
  let v = [| 0.3; -0.7; 1.1 |] in
  check_vec "rotate" ~eps:1e-9 (Mat.mul_vec rot v) (Quat.rotate (Quat.of_rotation rot) v)

let test_quat_slerp_endpoints () =
  let r = rng () in
  let a = Quat.of_rotation (So3.random r) and b = Quat.of_rotation (So3.random r) in
  Alcotest.(check bool) "slerp 0 = a" true (Quat.equal_up_to_sign ~eps:1e-9 a (Quat.slerp a b 0.0));
  Alcotest.(check bool) "slerp 1 = b" true (Quat.equal_up_to_sign ~eps:1e-6 b (Quat.slerp a b 1.0))

(* ---------- Conversions (Fig. 8) ---------- *)

let test_convert_roundtrips () =
  let r = rng () in
  for _ = 1 to 20 do
    let p = random_pose3 r in
    Alcotest.(check bool) "se3 roundtrip" true
      (Pose3.equal ~eps:1e-9 p (Convert.pose3_of_se3 (Convert.se3_of_pose3 p)));
    Alcotest.(check bool) "se3-vec roundtrip" true
      (Pose3.equal ~eps:1e-7 p (Convert.pose3_of_se3_vec (Convert.se3_vec_of_pose3 p)));
    let q, t = Convert.quat_of_pose3 p in
    Alcotest.(check bool) "quat roundtrip" true
      (Pose3.equal ~eps:1e-9 p (Convert.pose3_of_quat q t))
  done

let test_convert_pose2_embed () =
  let r = rng () in
  let p2 = Pose2.random r ~scale:2.0 in
  let p3 = Convert.pose3_of_pose2 p2 in
  let back = Convert.pose2_of_pose3 p3 in
  Alcotest.(check bool) "pose2 embed roundtrip" true (Pose2.equal ~eps:1e-9 p2 back)

(* ---------- MAC comparison teaser (Sec. 4.3) ---------- *)

let test_pose_cheaper_than_se3 () =
  let r = rng () in
  let a = random_pose3 r and b = random_pose3 r in
  let sa = Convert.se3_of_pose3 a and sb = Convert.se3_of_pose3 b in
  Macs.reset ();
  let _ = Pose3.oplus a b in
  let unified = Macs.count () in
  Macs.reset ();
  let _ = Se3.compose sa sb in
  let se3 = Macs.count () in
  Alcotest.(check bool)
    (Printf.sprintf "compose: unified %d <= se3 %d MACs" unified se3)
    true (unified <= se3)

let () =
  Alcotest.run "lie"
    [
      ( "so2",
        [
          Alcotest.test_case "roundtrip" `Quick test_so2_roundtrip;
          Alcotest.test_case "wrap" `Quick test_so2_wrap;
          Alcotest.test_case "hat/vee" `Quick test_so2_hat_vee;
          Alcotest.test_case "perp derivative" `Quick test_so2_perp;
        ] );
      ( "so3",
        [
          Alcotest.test_case "hat/vee" `Quick test_so3_hat_vee;
          Alcotest.test_case "exp is rotation" `Quick test_so3_exp_is_rotation;
          Alcotest.test_case "exp-log roundtrip" `Quick test_so3_exp_log_roundtrip;
          Alcotest.test_case "log-exp roundtrip" `Quick test_so3_log_exp_roundtrip;
          Alcotest.test_case "log small angle" `Quick test_so3_log_small_angle;
          Alcotest.test_case "log near pi" `Quick test_so3_log_near_pi;
          Alcotest.test_case "log near pi sweep" `Quick test_so3_log_near_pi_sweep;
          Alcotest.test_case "jr numeric" `Quick test_so3_jr_numeric;
          Alcotest.test_case "jr_inv" `Quick test_so3_jr_inv;
          Alcotest.test_case "jl identities" `Quick test_so3_jl_identities;
          Alcotest.test_case "normalize" `Quick test_so3_normalize;
        ] );
      ( "pose3",
        [
          Alcotest.test_case "group laws" `Quick test_pose3_group_laws;
          Alcotest.test_case "associativity" `Quick test_pose3_associativity;
          Alcotest.test_case "retract/local" `Quick test_pose3_retract_local;
          Alcotest.test_case "retract/local seed 808501" `Quick
            test_pose3_retract_local_seed_808501;
          Alcotest.test_case "act matches se3" `Quick test_pose3_act_matches_se3;
          Alcotest.test_case "compose matches se3" `Quick test_pose3_compose_matches_se3;
        ] );
      ( "pose2",
        [
          Alcotest.test_case "group laws" `Quick test_pose2_group_laws;
          Alcotest.test_case "retract/local" `Quick test_pose2_retract_local;
        ] );
      ( "se3",
        [
          Alcotest.test_case "exp-log" `Quick test_se3_exp_log;
          Alcotest.test_case "compose/inverse" `Quick test_se3_compose_inverse;
          Alcotest.test_case "adjoint" `Quick test_se3_adjoint;
          Alcotest.test_case "jacobians numeric" `Quick test_se3_jacobians_numeric;
          Alcotest.test_case "jr_inv/jl_inv" `Quick test_se3_jr_inv;
          Alcotest.test_case "retract/local" `Quick test_se3_retract_local;
          Alcotest.test_case "bad matrix" `Quick test_se3_bad_matrix;
        ] );
      ( "quat",
        [
          Alcotest.test_case "roundtrip" `Quick test_quat_roundtrip;
          Alcotest.test_case "mul" `Quick test_quat_mul_matches_matrix;
          Alcotest.test_case "rotate" `Quick test_quat_rotate;
          Alcotest.test_case "slerp endpoints" `Quick test_quat_slerp_endpoints;
        ] );
      ( "convert",
        [
          Alcotest.test_case "roundtrips" `Quick test_convert_roundtrips;
          Alcotest.test_case "pose2 embed" `Quick test_convert_pose2_embed;
        ] );
      ("macs", [ Alcotest.test_case "unified cheaper" `Quick test_pose_cheaper_than_se3 ]);
    ]
