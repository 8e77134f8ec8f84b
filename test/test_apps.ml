open Orianna_linalg
open Orianna_fg
open Orianna_apps
open Orianna_util

(* ---------- sphere benchmark ---------- *)

let small_sphere =
  {
    Sphere.default_config with
    Sphere.rings = 4;
    poses_per_ring = 10;
    seed = 5;
  }

let test_sphere_dataset_shape () =
  let ds = Sphere.generate small_sphere in
  Alcotest.(check int) "poses" 40 (Array.length ds.Sphere.truth);
  Alcotest.(check int) "odometry edges" 39 (Array.length ds.Sphere.odometry);
  Alcotest.(check int) "loops" 30 (Array.length ds.Sphere.loops);
  (* Positions actually lie on the sphere. *)
  Array.iter
    (fun p ->
      let r = Vec.norm (Orianna_lie.Pose3.translation p) in
      Alcotest.(check bool) "on sphere" true (Float.abs (r -. small_sphere.Sphere.radius) < 1e-6))
    ds.Sphere.truth

let test_sphere_initial_drifts () =
  let ds = Sphere.generate small_sphere in
  let e = Sphere.ate ~truth:ds.Sphere.truth ~estimate:ds.Sphere.initial in
  Alcotest.(check bool) "drifted" true (e.Sphere.mean > 0.3);
  Alcotest.(check (float 0.0)) "starts anchored" 0.0 e.Sphere.min

let test_sphere_run_improves_and_matches () =
  let r = Sphere.run ~config:small_sphere () in
  Alcotest.(check bool) "unified improves 10x" true
    (r.Sphere.unified.Sphere.errors.Sphere.mean < r.Sphere.initial_errors.Sphere.mean /. 10.0);
  (* Both representations land on (nearly) the same accuracy. *)
  let u = r.Sphere.unified.Sphere.errors.Sphere.mean in
  let s = r.Sphere.se3.Sphere.errors.Sphere.mean in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy matches (%.4f vs %.4f)" u s)
    true
    (Float.abs (u -. s) < 0.2 *. Float.max u s);
  Alcotest.(check bool) "unified construction cheaper" true (r.Sphere.mac_saving > 0.2)

let test_sphere_ate_mismatch () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Sphere.ate: length mismatch")
    (fun () ->
      ignore
        (Sphere.ate ~truth:[| Orianna_lie.Pose3.identity |] ~estimate:[||]))

let test_sphere_robust_extension () =
  let config = { Sphere.default_config with Sphere.rings = 4; poses_per_ring = 10; seed = 3 } in
  let r = Sphere.run_robust ~config ~outlier_fraction:0.2 () in
  Alcotest.(check bool) "outliers injected" true (r.Sphere.outliers > 0);
  Alcotest.(check bool) "plain degraded" true
    (r.Sphere.plain.Sphere.mean > 5.0 *. r.Sphere.clean.Sphere.mean);
  Alcotest.(check bool) "robust recovers" true
    (r.Sphere.robust.Sphere.mean < 3.0 *. r.Sphere.clean.Sphere.mean)

(* ---------- application graphs ---------- *)

let test_all_apps_build_three_graphs () =
  List.iter
    (fun (a : App.t) ->
      let graphs = a.App.graphs (Rng.of_int 3) in
      Alcotest.(check (list string)) (a.App.name ^ " algorithms")
        [ "localization"; "planning"; "control" ]
        (List.map fst graphs);
      List.iter
        (fun (alg, g) ->
          Alcotest.(check bool) (a.App.name ^ "/" ^ alg ^ " nonempty") true
            (Graph.num_variables g > 0 && Graph.num_factors g > 0))
        graphs)
    App.all

let test_graphs_deterministic_per_seed () =
  List.iter
    (fun (a : App.t) ->
      let g1 = a.App.graphs (Rng.of_int 9) and g2 = a.App.graphs (Rng.of_int 9) in
      List.iter2
        (fun (_, x) (_, y) ->
          Alcotest.(check int) "same factors" (Graph.num_factors x) (Graph.num_factors y);
          Alcotest.(check (float 1e-12)) "same error" (Graph.error x) (Graph.error y))
        g1 g2)
    App.all

let test_table4_dimensions () =
  (* The variable dimensions of the built graphs match Tbl. 4. *)
  let check_app (a : App.t) expected_loc_dim =
    let graphs = a.App.graphs (Rng.of_int 1) in
    let loc = List.assoc "localization" graphs in
    (* First variable of the localization graph is a pose/joint. *)
    let first = List.hd (Graph.variables loc) in
    Alcotest.(check int) (a.App.name ^ " loc dim") expected_loc_dim (Graph.dims loc first)
  in
  check_app App.mobile_robot 3;
  check_app App.manipulator 2;
  check_app App.auto_vehicle 3;
  check_app App.quadrotor 6

let test_solvable_by_software () =
  (* Every graph of every app must be solvable (no underconstrained
     variables, converging GN). *)
  List.iter
    (fun (a : App.t) ->
      List.iter
        (fun (alg, g) ->
          let before = Graph.error g in
          Scenario.solve `Software g;
          let after = Graph.error g in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s improves (%.3g -> %.3g)" a.App.name alg before after)
            true (after <= before +. 1e-9))
        (a.App.graphs (Rng.of_int 11)))
    App.all

let test_mission_solver_agreement () =
  (* The compiled path must reach the same verdicts as the software
     path (the Tbl. 5 claim), spot-checked per app. *)
  List.iter
    (fun (a : App.t) ->
      List.iter
        (fun seed ->
          let sw = a.App.mission ~seed ~solver:`Software in
          let hw = a.App.mission ~seed ~solver:`Compiled in
          Alcotest.(check bool) (Printf.sprintf "%s seed %d" a.App.name seed) sw hw)
        [ 1; 2 ])
    App.all

let test_app_find () =
  Alcotest.(check string) "case insensitive" "Quadrotor" (App.find "quadrotor").App.name;
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (App.find "submarine");
       false
     with Not_found -> true)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_app_select () =
  let ok spec expected =
    Alcotest.(check (result (list string) string)) spec (Ok expected) (App.select spec)
  in
  ok "all" App.names;
  ok " ALL " App.names;
  ok "quadrotor, MobileRobot" [ "Quadrotor"; "MobileRobot" ];
  ok "manipulator,,autovehicle," [ "Manipulator"; "AutoVehicle" ];
  let error spec =
    match App.select spec with
    | Ok apps -> Alcotest.failf "%S selected %s" spec (String.concat "," apps)
    | Error msg ->
        (* The message lists every registered app. *)
        List.iter
          (fun name ->
            if not (contains msg name) then
              Alcotest.failf "%S: error %S does not mention %s" spec msg name)
          App.names
  in
  List.iter error [ "foo"; "mobilerobot,foo,bar"; " , "; "" ];
  Alcotest.(check bool) "names the first unknown app" true
    (match App.select "mobilerobot,foo,bar" with
    | Error msg -> contains msg "\"foo\""
    | Ok _ -> false)

(* ---------- g2o format ---------- *)

let sample_g2o = String.concat "\n" [
  "# a tiny 2D pose graph";
  "VERTEX_SE2 0 0.0 0.0 0.0";
  "VERTEX_SE2 1 1.1 0.1 0.05";
  "VERTEX_SE2 2 2.0 -0.1 -0.02";
  "EDGE_SE2 0 1 1.0 0.0 0.0 100 0 0 100 0 400";
  "EDGE_SE2 1 2 1.0 0.0 0.0 100 0 0 100 0 400";
  "EDGE_SE2 0 2 2.0 0.0 0.0 100 0 0 100 0 400";
  "";
]

let test_g2o_parse_2d () =
  let entries = G2o.parse sample_g2o in
  Alcotest.(check int) "entries" 6 (List.length entries);
  match List.hd entries with
  | G2o.Vertex2 (0, p) -> Alcotest.(check (float 1e-12)) "x" 0.0 (Orianna_lie.Pose2.translation p).(0)
  | _ -> Alcotest.fail "first entry"

let test_g2o_solve_2d () =
  let g, report = G2o.solve_file sample_g2o in
  Alcotest.(check bool) "improves" true
    (report.Optimizer.final_error < report.Optimizer.initial_error);
  (* With consistent unit odometry, x2 lands near (2, 0). *)
  match Graph.value g "x2" with
  | Var.Pose2 p ->
      let t = Orianna_lie.Pose2.translation p in
      Alcotest.(check bool) "x2 near (2,0)" true (Float.abs (t.(0) -. 2.0) < 0.05 && Float.abs t.(1) < 0.05)
  | _ -> Alcotest.fail "kind"

let test_g2o_roundtrip_3d () =
  let ds = Sphere.generate small_sphere in
  let entries = G2o.of_sphere ds in
  let reparsed = G2o.parse (G2o.to_string entries) in
  Alcotest.(check int) "entry count" (List.length entries) (List.length reparsed);
  (* Vertices survive the quaternion round trip. *)
  List.iter2
    (fun a b ->
      match (a, b) with
      | G2o.Vertex3 (i, p), G2o.Vertex3 (j, q) ->
          Alcotest.(check int) "id" i j;
          Alcotest.(check bool) "pose" true (Orianna_lie.Pose3.equal ~eps:1e-6 p q)
      | G2o.Edge3 (i1, j1, z1, inf1), G2o.Edge3 (i2, j2, z2, inf2) ->
          Alcotest.(check bool) "edge ids" true (i1 = i2 && j1 = j2);
          Alcotest.(check bool) "edge pose" true (Orianna_lie.Pose3.equal ~eps:1e-6 z1 z2);
          Alcotest.(check bool) "info" true (Vec.equal ~eps:1e-6 inf1 inf2)
      | _ -> Alcotest.fail "entry kind changed")
    entries reparsed

let test_g2o_solves_sphere_export () =
  let ds = Sphere.generate small_sphere in
  let contents = G2o.to_string (G2o.of_sphere ds) in
  let g, report = G2o.solve_file contents in
  Alcotest.(check bool) "solved" true (report.Optimizer.final_error < report.Optimizer.initial_error);
  (* The solved trajectory approaches the (withheld) ground truth. *)
  let errs =
    Array.mapi
      (fun i truth ->
        match Graph.value g (Printf.sprintf "x%d" i) with
        | Var.Pose3 p -> Orianna_lie.Pose3.distance truth p
        | _ -> infinity)
      ds.Sphere.truth
  in
  let init = Sphere.ate ~truth:ds.Sphere.truth ~estimate:ds.Sphere.initial in
  Alcotest.(check bool) "beats initialization 5x" true
    (Stats.mean errs < init.Sphere.mean /. 5.0)

let test_g2o_rejects_malformed () =
  (* Malformed instances of the supported record types still fail hard
     (unknown tags like WOBBLE are tolerated, see below). *)
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (try
           ignore (G2o.parse bad);
           false
         with G2o.Parse_error _ -> true))
    [ "VERTEX_SE2 0 1.0"; "EDGE_SE2 0 1 1 2"; "VERTEX_SE3:QUAT 0 0 0 0 0 0 0 0 extra" ]

let test_g2o_tolerates_foreign_records () =
  let contents =
    String.concat "\n"
      [
        "VERTEX_SE2 0 0 0 0";
        "FIX 0";
        "VERTEX_SE2 1 1 0 0";
        "WOBBLE 1 2 3";
        "EDGE_SE2 0 1 1 0 0 100 0 0 100 0 400";
      ]
  in
  let entries, warnings = G2o.parse_verbose contents in
  Alcotest.(check int) "entries" 3 (List.length entries);
  Alcotest.(check (list string))
    "warnings name line and tag"
    [ "line 2: ignored FIX"; "line 4: ignored WOBBLE" ]
    warnings;
  (* parse is parse_verbose minus the warnings. *)
  Alcotest.(check int) "parse agrees" 3 (List.length (G2o.parse contents));
  (* The surviving entries still build a solvable graph. *)
  let g = G2o.to_graph entries in
  Alcotest.(check int) "variables" 2 (Graph.num_variables g)

let test_g2o_errors_carry_line_numbers () =
  let contents = "VERTEX_SE2 0 0 0 0\nEDGE_SE2 0 1 1 2" in
  match G2o.parse contents with
  | _ -> Alcotest.fail "malformed edge accepted"
  | exception G2o.Parse_error msg ->
      Alcotest.(check bool) ("mentions line 2: " ^ msg) true (contains msg "line 2:")

(* ---------- measurement streams ---------- *)

let test_stream_structure () =
  let s = Stream.of_g2o ~name:"tiny" (G2o.parse sample_g2o) in
  Alcotest.(check int) "ticks" 3 (Stream.length s);
  Alcotest.(check int) "variables" 3 (Stream.total_variables s);
  (* The gauge anchor rides tick 0; each edge arrives with its later
     endpoint, so tick 2 carries both edges incident on x2. *)
  Alcotest.(check int) "tick 0 factors" 1 (List.length s.Stream.ticks.(0).Stream.tfactors);
  Alcotest.(check int) "tick 1 factors" 1 (List.length s.Stream.ticks.(1).Stream.tfactors);
  Alcotest.(check int) "tick 2 factors" 2 (List.length s.Stream.ticks.(2).Stream.tfactors);
  let g = Stream.prefix_graph s ~n:3 and gb = G2o.to_graph (G2o.parse sample_g2o) in
  Alcotest.(check int) "prefix vars = batch" (Graph.num_variables gb) (Graph.num_variables g);
  Alcotest.(check int) "prefix factors = batch" (Graph.num_factors gb) (Graph.num_factors g)

let test_stream_rejects_dangling_edge () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Stream.of_g2o ~name:"bad"
            (G2o.parse "VERTEX_SE2 0 0 0 0\nEDGE_SE2 0 7 1 0 0 100 0 0 100 0 400"));
       false
     with Invalid_argument _ -> true)

let gn_params = { Smoother.relin_threshold = 1e-5; max_relin_passes = 10; window = None }

(* The differential harness of the streaming tentpole: replay a stream
   through the incremental smoother and, at a few prefixes, check every
   live estimate against a batch Gauss-Newton solve of the same prefix
   graph. *)
let check_stream_matches_batch_gn name (s : Stream.t) =
  let sm = Smoother.create ~params:gn_params () in
  let len = Stream.length s in
  let prefixes = List.sort_uniq compare [ len / 3; 2 * len / 3; len ] in
  let applied = ref 0 in
  List.iter
    (fun n ->
      for k = !applied to n - 1 do
        ignore (Stream.apply_tick sm s.Stream.ticks.(k));
        Smoother.update sm
      done;
      applied := n;
      let g = Stream.prefix_graph s ~n in
      let report = Optimizer.optimize g in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%d batch converged" name n)
        true report.Optimizer.converged;
      let worst = ref 0.0 in
      List.iter
        (fun v ->
          let d = Vec.norm (Var.local (Graph.value g v) (Smoother.estimate sm v)) in
          if d > !worst then worst := d)
        (Smoother.live_variables sm);
      Alcotest.(check bool)
        (Printf.sprintf "%s prefix %d within 1e-6 (worst %.2e)" name n !worst)
        true (!worst < 1e-6))
    prefixes

let test_stream_manhattan_matches_gn () =
  check_stream_matches_batch_gn "manhattan"
    (Stream.manhattan ~cfg:{ Datasets.default_config with Datasets.steps = 60 } ())

let test_stream_loopy_matches_gn () =
  check_stream_matches_batch_gn "loopy"
    (Stream.loopy ~cfg:{ Stream.default_loopy_config with Stream.laps = 2 } ())

let test_stream_affected_stays_small () =
  (* The incremental claim: on a long mostly-chain stream the median
     re-eliminated set stays below 10% of the live variables. *)
  let s = Stream.manhattan ~cfg:{ Datasets.default_config with Datasets.steps = 150 } () in
  let sm = Smoother.create ~params:gn_params () in
  let fractions = ref [] in
  Array.iter
    (fun tk ->
      ignore (Stream.apply_tick sm tk);
      Smoother.update sm;
      let st = Smoother.stats sm in
      if st.Smoother.total_variables > 20 then
        fractions :=
          (float_of_int st.Smoother.affected_last /. float_of_int st.Smoother.total_variables)
          :: !fractions)
    s.Stream.ticks;
  let med = Stats.median (Array.of_list !fractions) in
  Alcotest.(check bool) (Printf.sprintf "median affected %.1f%%" (100.0 *. med)) true (med <= 0.10)

(* ---------- closed-loop MPC ---------- *)

let test_mpc_converges () =
  let r = Mpc.track_unicycle ~solver:`Software ~e0:[| 0.5; -0.4; 0.3 |] () in
  Alcotest.(check bool)
    (Printf.sprintf "converges (final %.4f)" r.Mpc.final_error)
    true (Mpc.converges r);
  Alcotest.(check bool) "inputs bounded" true (r.Mpc.max_input < 5.0)

let test_mpc_solver_agreement () =
  let run solver = Mpc.track_unicycle ~solver ~e0:[| 0.3; 0.2; -0.1 |] () in
  let sw = run `Software and hw = run `Compiled in
  Alcotest.(check bool) "same final error" true
    (Float.abs (sw.Mpc.final_error -. hw.Mpc.final_error) < 1e-6)

let test_mpc_bad_dim () =
  Alcotest.(check bool) "rejects" true
    (try
       ignore (Mpc.track_unicycle ~solver:`Software ~e0:[| 1.0 |] ());
       false
     with Invalid_argument _ -> true)

(* ---------- manipulator kinematics ---------- *)

let test_manipulator_fk () =
  let l1, l2 = Manipulator.link_lengths in
  (* Straight arm along x. *)
  let ee = Manipulator.forward_kinematics [| 0.0; 0.0 |] in
  Alcotest.(check (float 1e-12)) "x" (l1 +. l2) ee.(0);
  Alcotest.(check (float 1e-12)) "y" 0.0 ee.(1);
  (* Elbow at 90 degrees. *)
  let ee = Manipulator.forward_kinematics [| 0.0; Float.pi /. 2.0 |] in
  Alcotest.(check (float 1e-9)) "x" l1 ee.(0);
  Alcotest.(check (float 1e-9)) "y" l2 ee.(1)

(* ---------- scenario helpers ---------- *)

let test_lerp_states () =
  let states = Scenario.lerp_states ~start:[| 0.0; 0.0 |] ~goal:[| 4.0; 2.0 |] ~steps:4 ~dt:0.5 in
  Alcotest.(check int) "count" 5 (Array.length states);
  Alcotest.(check (float 1e-12)) "start" 0.0 states.(0).(0);
  Alcotest.(check (float 1e-12)) "end x" 4.0 states.(4).(0);
  (* velocity = (goal - start) / total time = (4,2)/2 = (2,1). *)
  Alcotest.(check (float 1e-12)) "vx" 2.0 states.(2).(2);
  Alcotest.(check (float 1e-12)) "vy" 1.0 states.(2).(3)

let test_min_clearance () =
  let obstacles = [ { Orianna_factors.Motion_factors.center = [| 0.0; 0.0 |]; radius = 1.0 } ] in
  let states = [| [| 3.0; 0.0; 0.0; 0.0 |]; [| 1.5; 0.0; 0.0; 0.0 |] |] in
  Alcotest.(check (float 1e-12)) "clearance" 0.5 (Scenario.min_clearance ~states ~obstacles)

let () =
  Alcotest.run "apps"
    [
      ( "sphere",
        [
          Alcotest.test_case "dataset shape" `Quick test_sphere_dataset_shape;
          Alcotest.test_case "initial drifts" `Quick test_sphere_initial_drifts;
          Alcotest.test_case "run improves + matches" `Slow test_sphere_run_improves_and_matches;
          Alcotest.test_case "ate mismatch" `Quick test_sphere_ate_mismatch;
          Alcotest.test_case "robust extension" `Slow test_sphere_robust_extension;
        ] );
      ( "applications",
        [
          Alcotest.test_case "three graphs" `Quick test_all_apps_build_three_graphs;
          Alcotest.test_case "deterministic" `Quick test_graphs_deterministic_per_seed;
          Alcotest.test_case "table4 dims" `Quick test_table4_dimensions;
          Alcotest.test_case "solvable" `Quick test_solvable_by_software;
          Alcotest.test_case "solver agreement" `Slow test_mission_solver_agreement;
          Alcotest.test_case "find" `Quick test_app_find;
          Alcotest.test_case "select" `Quick test_app_select;
        ] );
      ( "g2o",
        [
          Alcotest.test_case "parse 2d" `Quick test_g2o_parse_2d;
          Alcotest.test_case "solve 2d" `Quick test_g2o_solve_2d;
          Alcotest.test_case "roundtrip 3d" `Quick test_g2o_roundtrip_3d;
          Alcotest.test_case "solves sphere export" `Slow test_g2o_solves_sphere_export;
          Alcotest.test_case "rejects malformed" `Quick test_g2o_rejects_malformed;
          Alcotest.test_case "tolerates foreign records" `Quick test_g2o_tolerates_foreign_records;
          Alcotest.test_case "errors carry line numbers" `Quick test_g2o_errors_carry_line_numbers;
        ] );
      ( "stream",
        [
          Alcotest.test_case "structure" `Quick test_stream_structure;
          Alcotest.test_case "dangling edge" `Quick test_stream_rejects_dangling_edge;
          Alcotest.test_case "manhattan matches GN" `Slow test_stream_manhattan_matches_gn;
          Alcotest.test_case "loopy matches GN" `Slow test_stream_loopy_matches_gn;
          Alcotest.test_case "affected stays small" `Slow test_stream_affected_stays_small;
        ] );
      ( "mpc",
        [
          Alcotest.test_case "converges" `Quick test_mpc_converges;
          Alcotest.test_case "solver agreement" `Slow test_mpc_solver_agreement;
          Alcotest.test_case "bad dim" `Quick test_mpc_bad_dim;
        ] );
      ("manipulator", [ Alcotest.test_case "forward kinematics" `Quick test_manipulator_fk ]);
      ( "scenario",
        [
          Alcotest.test_case "lerp states" `Quick test_lerp_states;
          Alcotest.test_case "min clearance" `Quick test_min_clearance;
        ] );
    ]
