(* ORIANNA benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (the experiment index of DESIGN.md): Tbl. 1/4/5, Figs. 13-20 and
   the Sec. 7.3 latency breakdown, printed as text tables with the
   paper's reported numbers alongside.

   Part 2 runs Bechamel micro-benchmarks of the kernels the whole
   system is built from: Lie-group maps, small QR, factor
   linearization, variable elimination, compilation and cycle-level
   simulation. *)

open Bechamel
open Toolkit
open Orianna_linalg
open Orianna_lie
open Orianna_fg
open Orianna_factors
open Orianna_util
module App = Orianna_apps.App
module Compile = Orianna_compiler.Compile
module Schedule = Orianna_sim.Schedule
module Accel = Orianna_hw.Accel

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures (built once, outside the timed regions).   *)

let rng = Rng.of_int 987

(* Shared provenance header for every BENCH_*.json artifact.  It is
   the only job-count- or machine-dependent part of the files, and it
   lives at the top level only, so the payload sections still diff
   byte-for-byte across job counts once "meta" is stripped. *)
let bench_meta () =
  Orianna_obs.Report.meta_json
    (Orianna_obs.Report.standard_meta ~jobs:(Orianna_par.Pool.default_jobs ()) ())

let m8 = Mat.random rng 8 8
let m24x13 = Mat.random rng 24 13
let phi = [| 0.3; -0.2; 0.5 |]
let rot = So3.exp phi

let between =
  Pose_factors.between3 ~name:"b" ~a:"a" ~b:"b"
    ~z:(Pose3.of_phi_t [| 0.0; 0.1; 0.0 |] [| 1.0; 0.0; 0.0 |])
    ~sigma:0.1

let between_lookup =
  let pa = Pose3.of_phi_t [| 0.1; 0.0; 0.2 |] [| 0.5; 0.2; 0.0 |] in
  let pb = Pose3.of_phi_t [| 0.0; 0.1; 0.3 |] [| 1.4; 0.3; 0.1 |] in
  function "a" -> Var.Pose3 pa | _ -> Var.Pose3 pb

let loc_graph = App.mobile_robot.App.graphs (Rng.of_int 11) |> List.assoc "localization"
let loc_order =
  Ordering.compute Ordering.Min_degree ~vars:(Graph.variables loc_graph)
    ~factor_scopes:(Graph.factor_scopes loc_graph)
let loc_lin = Graph.linearize loc_graph

let app_graphs = App.mobile_robot.App.graphs (Rng.of_int 12)
let app_program = Compile.compile_application app_graphs
let accel = Accel.base ()

let tests =
  Test.make_grouped ~name:"orianna"
    [
      Test.make ~name:"mat-mul-8x8" (Staged.stage (fun () -> ignore (Mat.mul m8 m8)));
      Test.make ~name:"qr-24x13" (Staged.stage (fun () -> ignore (Qr.triangularize m24x13)));
      Test.make ~name:"so3-exp" (Staged.stage (fun () -> ignore (So3.exp phi)));
      Test.make ~name:"so3-log" (Staged.stage (fun () -> ignore (So3.log rot)));
      Test.make ~name:"so3-jr-inv" (Staged.stage (fun () -> ignore (So3.jr_inv phi)));
      Test.make ~name:"between-linearize"
        (Staged.stage (fun () -> ignore (Factor.linearize between between_lookup)));
      Test.make ~name:"eliminate-localization"
        (Staged.stage (fun () ->
             ignore (Elimination.solve ~order:loc_order ~dims:(Graph.dims loc_graph) loc_lin)));
      Test.make ~name:"compile-mobile-robot"
        (Staged.stage (fun () -> ignore (Compile.compile_application app_graphs)));
      Test.make ~name:"interpret-program"
        (Staged.stage (fun () -> ignore (Orianna_isa.Program.run app_program)));
      Test.make ~name:"simulate-ooo"
        (Staged.stage (fun () ->
             ignore (Schedule.run ~accel ~policy:Schedule.Ooo_full app_program)));
      Test.make ~name:"eliminate-cholesky"
        (Staged.stage (fun () ->
             ignore
               (Elimination.solve ~method_:Elimination.Cholesky ~order:loc_order
                  ~dims:(Graph.dims loc_graph) loc_lin)));
      Test.make ~name:"incremental-odometry-update"
        (Staged.stage (fun () ->
             let inc = Incremental.create () in
             Incremental.add_variable inc "a" 3;
             Incremental.add_variable inc "b" 3;
             Incremental.update inc
               [
                 {
                   Linear_system.vars = [ "a" ];
                   blocks = [ ("a", Mat.identity 3) ];
                   rhs = Vec.create 3;
                 };
                 {
                   Linear_system.vars = [ "a"; "b" ];
                   blocks = [ ("a", Mat.neg (Mat.identity 3)); ("b", Mat.identity 3) ];
                   rhs = [| 1.0; 0.0; 0.0 |];
                 };
               ]));
      Test.make ~name:"encode-program"
        (Staged.stage (fun () -> ignore (Orianna_isa.Encode.encode app_program)));
    ]

let run_micro_benchmarks () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "Micro-benchmarks (monotonic clock, ns per run):";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-38s %12.1f ns\n" name ns)
    (List.sort compare !rows);
  print_newline ()

(* Serving-runtime macro-benchmark: one fixed-seed campaign over all
   four applications, summarized to BENCH_serve.json so regressions in
   cache hit rate, latency percentiles or deadline misses diff cleanly
   across commits (the campaign is deterministic — any change in the
   file is a behaviour change, not noise). *)
let emit_serve_bench () =
  let module Serve = Orianna_serve.Serve in
  let module Request = Orianna_serve.Request in
  let trace = Request.default_trace ~rng:(Rng.of_int 42) ~apps:App.names ~n:300 in
  let report = Serve.run ~trace () in
  let path = "BENCH_serve.json" in
  let oc = open_out path in
  output_string oc
    (Orianna_obs.Json.to_string
       (Orianna_obs.Json.Obj
          [ ("meta", bench_meta ()); ("serve", Serve.report_json report) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "Serving campaign (seed 42, 300 requests, 4 apps) -> %s\n" path;
  Printf.printf "  completed %d/%d, cache hit rate %.3f, p99 %.3f ms, deadline misses %d\n\n"
    report.Serve.completed report.Serve.total
    (Orianna_serve.Cache.hit_rate report.Serve.cache)
    report.Serve.p99_ms report.Serve.deadline_misses

(* Fault-tolerance macro-benchmark: the fleet chaos campaign swept over
   fault intensities (fixed seed, all four applications), summarized to
   BENCH_chaos.json.  The campaign is deterministic at any job count,
   so any diff in the payload is a behaviour change; the fixed-seed
   serve runs are checked against ci/chaos_baseline.json by
   test/test_serve.ml. *)
let emit_chaos_bench () =
  let module Json = Orianna_obs.Json in
  let module FC = Orianna_fault.Fleet_chaos in
  let apps = List.map (fun (a : App.t) -> a.App.name) App.all in
  let intensities = [ 0.0; 0.05; 0.1; 0.2 ] in
  let silent = ref false in
  Printf.printf "Fleet chaos sweep (seed 42, %d runs x %d requests, 4 apps, retries 2):\n"
    FC.default_config.FC.runs FC.default_config.FC.requests;
  let entries =
    List.map
      (fun intensity ->
        let config = { FC.default_config with FC.apps; intensity } in
        let s = FC.run ~config ~rng:(Rng.of_int 42) () in
        if FC.silent_loss s then silent := true;
        Printf.printf
          "  intensity %.2f: avail %.4f/%.4f (min/mean), done %.4f, p99 %.3f/%.3f/%.3f ms, \
           retries %d, failed %d%s\n"
          intensity s.FC.availability_min s.FC.availability_mean s.FC.completion_mean
          s.FC.p99_min_ms s.FC.p99_mean_ms s.FC.p99_max_ms s.FC.total_retries s.FC.total_failed
          (if s.FC.all_conserved then "" else "  SILENT LOSS");
        (Printf.sprintf "%.2f" intensity, FC.json s))
      intensities
  in
  let path = "BENCH_chaos.json" in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("meta", bench_meta ()); ("seed", Json.int 42); ("sweep", Json.Obj entries) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "-> %s\n" path;
  if !silent then begin
    print_endline "CHAOS BENCH: conservation violated (silent request loss)";
    exit 1
  end

(* Streaming-sessions macro-benchmark: the incremental smoother driven
   tick-by-tick over Manhattan streams of growing length, against a
   batch Gauss-Newton re-solve of the full prefix at each length.  MAC
   counts are deterministic (fixed seed, no wall clock), so the
   payload diffs byte-for-byte across commits; the headline is that
   the sliding-window smoother's per-tick cost stays flat as the
   trajectory grows while the batch re-solve cost keeps climbing
   (full-history smoothing sits in between: loop closures against old
   poses drag ever-larger affected sets back in).  Emitted to
   BENCH_sessions.json. *)
let emit_sessions_bench () =
  let module Json = Orianna_obs.Json in
  let module Stream = Orianna_apps.Stream in
  let module Datasets = Orianna_apps.Datasets in
  let lengths = [ 60; 120; 240; 480 ] in
  let feed params stream =
    let sm = Smoother.create ~params () in
    let tick_macs = ref [] and affected = ref [] in
    Array.iter
      (fun tick ->
        ignore (Stream.apply_tick sm tick);
        let (), macs = Macs.measure (fun () -> Smoother.update sm) in
        let st = Smoother.stats sm in
        tick_macs := float_of_int macs :: !tick_macs;
        if st.Smoother.total_variables > 20 then
          affected :=
            (float_of_int st.Smoother.affected_last
            /. float_of_int st.Smoother.total_variables)
            :: !affected)
      stream.Stream.ticks;
    (Array.of_list (List.rev !tick_macs), Array.of_list (List.rev !affected))
  in
  Printf.printf
    "Streaming sessions (Manhattan, seed 7): incremental (full / windowed) vs batch re-solve\n";
  let entries =
    List.map
      (fun steps ->
        let stream =
          Stream.manhattan ~cfg:{ Datasets.default_config with Datasets.steps; seed = 7 } ()
        in
        let full_macs, affected = feed Smoother.default_params stream in
        let win_macs, _ =
          feed { Smoother.default_params with Smoother.window = Some 40 } stream
        in
        let g = Stream.prefix_graph stream ~n:(Stream.length stream) in
        let _, batch_macs = Macs.measure (fun () -> ignore (Optimizer.optimize g)) in
        let med = Stats.median full_macs and wmed = Stats.median win_macs in
        Printf.printf
          "  %4d ticks: per-tick MACs median %9.0f full / %8.0f windowed(40), batch re-solve \
           %10d MACs, median affected %.3f\n"
          (Stream.length stream) med wmed batch_macs (Stats.median affected);
        ( string_of_int (Stream.length stream),
          Json.Obj
            [
              ("ticks", Json.int (Stream.length stream));
              ("incremental_total_macs", Json.Num (Stats.sum full_macs));
              ("incremental_median_tick_macs", Json.Num med);
              ("incremental_p90_tick_macs", Json.Num (Stats.percentile full_macs 90.0));
              ("windowed_total_macs", Json.Num (Stats.sum win_macs));
              ("windowed_median_tick_macs", Json.Num wmed);
              ("windowed_p90_tick_macs", Json.Num (Stats.percentile win_macs 90.0));
              ("batch_solve_macs", Json.int batch_macs);
              ("median_affected_fraction", Json.Num (Stats.median affected));
            ] ))
      lengths
  in
  let path = "BENCH_sessions.json" in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("meta", bench_meta ());
            ("seed", Json.int 7);
            ("dataset", Json.Str "manhattan");
            ("lengths", Json.Obj entries);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "-> %s\n" path

(* Instruction-stream optimizer macro-benchmark: every app's O0..O3
   stream (fixed seed, so deterministic), built as every entry point
   builds it, simulated on the base accelerator and summarized to
   BENCH_isa_opt.json.  The bounds in ci/isa_opt_baseline.json are
   checked on the same streams by test/test_isa_opt.ml's cycle
   reduction floor, not on this file. *)
let emit_isa_opt_bench () =
  let module Json = Orianna_obs.Json in
  let module Program = Orianna_isa.Program in
  let module Opt_loop = Orianna_sim.Opt_loop in
  let policy = Schedule.Ooo_full in
  let entries =
    List.map
      (fun (a : App.t) ->
        let graphs = a.App.graphs (Rng.of_int 42) in
        let runs =
          List.map
            (fun l ->
              let p =
                Opt_loop.optimize ~accel ~policy ~level:l (Compile.compile_application ~opt_level:l graphs)
              in
              (l, p, Schedule.run ~accel ~policy p))
            [ 0; 1; 2; 3 ]
        in
        let _, p0, r0 = List.nth runs 0 in
        let _, p3, r3 = List.nth runs 3 in
        let i0 = Program.length p0 and i3 = Program.length p3 in
        let instruction_reduction = 1.0 -. (float_of_int i3 /. float_of_int i0) in
        let cycle_reduction =
          1.0 -. (float_of_int r3.Schedule.cycles /. float_of_int r0.Schedule.cycles)
        in
        Printf.printf "  %-13s" a.App.name;
        List.iter
          (fun (l, p, (r : Schedule.result)) ->
            Printf.printf " | O%d %4d instrs %6d cyc %9.2e J" l (Program.length p)
              r.Schedule.cycles r.Schedule.energy_j)
          runs;
        Printf.printf " | -%.1f%% cycles\n" (100.0 *. cycle_reduction);
        ( a.App.name,
          Json.Obj
            (List.concat_map
               (fun (l, p, (r : Schedule.result)) ->
                 [
                   (Printf.sprintf "instructions_o%d" l, Json.int (Program.length p));
                   (Printf.sprintf "cycles_o%d" l, Json.int r.Schedule.cycles);
                   (Printf.sprintf "energy_o%d_j" l, Json.Num r.Schedule.energy_j);
                 ])
               runs
            @ [
                ("instruction_reduction", Json.Num instruction_reduction);
                ("cycle_reduction", Json.Num cycle_reduction);
              ]) ))
      App.all
  in
  let path = "BENCH_isa_opt.json" in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("meta", bench_meta ());
            ("seed", Json.int 42);
            ("policy", Json.Str (Schedule.policy_name policy));
            ("apps", Json.Obj entries);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "Instruction-stream optimizer bench (seed 42, 4 apps) -> %s\n\n" path

(* Multicore macro-benchmark: the three top-level fan-out sites (DSE
   candidate sweep, fault campaign, per-app x policy schedule matrix)
   timed fully sequential (jobs = 1) and on the domain pool (jobs = 4),
   with a structural-equality check that both runs produced the same
   result — the determinism contract, enforced as part of the perf
   artifact.  Emitted to BENCH_par.json.  [--check] gates the determinism
   check, the noise-aware wall-clock regression band, and (on runners
   with at least [par_jobs] cores) a hard speedup floor per workload —
   the work-stealing pool is expected to be genuinely fast now, so a
   sweep that stops scaling is a regression, not a known wart. *)
let par_jobs = 4

let emit_par_bench ?(repeat = 1) () =
  let module Json = Orianna_obs.Json in
  let module Pool = Orianna_par.Pool in
  let module Campaign = Orianna_fault.Campaign in
  let module Pipeline = Orianna.Pipeline in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (* K timed runs of [f]; returns (first result, median wall clock).
     The median absorbs scheduler noise on shared CI machines. *)
  let time_median f =
    let r0, t0 = time f in
    let rest = List.init (repeat - 1) (fun _ -> snd (time f)) in
    (r0, median (t0 :: rest))
  in
  (* Each workload returns a structural digest of its full result, so
     the sequential-vs-parallel comparison is exact without keeping
     heterogeneous result types around. *)
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  let auto_frame = Pipeline.frame App.auto_vehicle ~seed:42 in
  let mobile_frame = Pipeline.frame App.mobile_robot ~seed:42 in
  let mobile_accel = (Pipeline.generate mobile_frame.Pipeline.program).Orianna_hw.Dse.best in
  let workloads =
    [
      ( "dse_sweep",
        fun () ->
          let r = Pipeline.generate auto_frame.Pipeline.program in
          digest (r.Orianna_hw.Dse.best, r.Orianna_hw.Dse.objective, r.Orianna_hw.Dse.trace) );
      ( "fault_campaign",
        fun () ->
          let config = { Campaign.default_config with Campaign.missions = 48 } in
          let s =
            Campaign.run ~config ~rng:(Rng.of_int 42) ~graphs:mobile_frame.Pipeline.graphs
              ~program:mobile_frame.Pipeline.program ~accel:mobile_accel ()
          in
          digest (s.Campaign.events, s.Campaign.totals, s.Campaign.worst_slowdown) );
      ( "app_matrix",
        fun () ->
          digest
            (Pool.parallel_map_list ~chunk:1
               (fun ((a : App.t), policy) ->
                 let graphs = a.App.graphs (Rng.of_int 42) in
                 let p = Compile.compile_application graphs in
                 let r = Schedule.run ~accel ~policy p in
                 (a.App.name, Schedule.policy_name policy, r.Schedule.cycles, r.Schedule.energy_j))
               (List.concat_map
                  (fun a ->
                    List.map
                      (fun pol -> (a, pol))
                      [ Schedule.Ooo_full; Schedule.Ooo_fine; Schedule.In_order ])
                  App.all)) );
    ]
  in
  Printf.printf "Parallel sweep bench (sequential vs 4-job domain pool, median of %d):\n" repeat;
  let timings = ref [] in
  let entries =
    List.map
      (fun (name, work) ->
        Pool.set_default_jobs 1;
        let seq_result, seq_s = time_median work in
        Pool.set_default_jobs par_jobs;
        let par_result, par_s = time_median work in
        Pool.set_default_jobs 1;
        let identical = String.equal seq_result par_result in
        let speedup = seq_s /. par_s in
        Printf.printf "  %-16s seq %7.3f s | par %7.3f s | %.2fx %s\n" name seq_s par_s
          speedup
          (if identical then "(identical results)" else "(RESULTS DIFFER!)");
        timings := (name, seq_s, par_s, identical) :: !timings;
        ( name,
          Json.Obj
            [
              ("sequential_s", Json.Num seq_s);
              ("parallel_s", Json.Num par_s);
              ("speedup", Json.Num speedup);
              ("identical", Json.Bool identical);
            ] ))
      workloads
  in
  let path = "BENCH_par.json" in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("meta", bench_meta ());
            ("jobs", Json.int par_jobs);
            ("repeat", Json.int repeat);
            ("workloads", Json.Obj entries);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "-> %s\n\n" path;
  List.rev !timings

(* ------------------------------------------------------------------ *)
(* Noise-aware wall-clock regression gate.

   Checked-in absolute timings are worthless across machines, so the
   baseline stores each workload normalized by a calibration kernel
   (a fixed amount of pure floating-point work timed on the same
   machine, same process).  At check time the current normalized
   medians must sit inside a tolerance band around the baseline's —
   wide enough for CI-runner noise the calibration cannot cancel,
   tight enough to catch a real 2x regression. *)

let calibrate () =
  let spin () =
    let acc = ref m8 in
    for _ = 1 to 5000 do
      acc := Mat.mul !acc m8;
      acc := m8
    done;
    ignore !acc
  in
  (* Minimum of several runs: a pure CPU kernel's true cost is its
     fastest observed time; everything above that is scheduler noise,
     which the median would smear into the normalization. *)
  spin ();
  List.fold_left
    (fun acc () ->
      let t0 = Unix.gettimeofday () in
      spin ();
      Float.min acc (Unix.gettimeofday () -. t0))
    infinity
    (List.init 9 (fun _ -> ()))

(* +100%: calibration cancels raw CPU speed but not parallel-contention
   differences between runner core counts, so the band is wide; the
   gate exists to catch the >2x accidents (quadratic blowups, lock
   convoys), not 20% drift. *)
let bench_tolerance = 1.0

(* Minimum parallel speedup the [par_jobs]-lane pool must deliver on
   every swept workload.  Enforced only on runners with at least
   [par_jobs] cores: on a smaller machine the pool cannot physically
   scale, so the floor would measure the container, not the code. *)
let bench_speedup_floor = 3.0

let record_baseline ~repeat path =
  let module Json = Orianna_obs.Json in
  let calib = calibrate () in
  let timings = emit_par_bench ~repeat () in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("meta", bench_meta ());
            ("calibration_s", Json.Num calib);
            ("tolerance", Json.Num bench_tolerance);
            ("speedup_floor", Json.Num bench_speedup_floor);
            ( "workloads",
              Json.Obj
                (List.map
                   (fun (name, seq_s, par_s, _) ->
                     ( name,
                       Json.Obj
                         [ ("sequential_s", Json.Num seq_s); ("parallel_s", Json.Num par_s) ]
                     ))
                   timings) );
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "recorded bench baseline (calibration %.4f s) -> %s\n" calib path

let check_baseline ~repeat path =
  let module Json = Orianna_obs.Json in
  let contents =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let baseline = Json.parse contents in
  let num j key =
    match Json.member key j with
    | Some (Json.Num v) -> v
    | _ -> failwith (Printf.sprintf "bench baseline %s: missing numeric %S" path key)
  in
  let base_calib = num baseline "calibration_s" in
  let tolerance =
    match Json.member "tolerance" baseline with Some (Json.Num t) -> t | _ -> bench_tolerance
  in
  let floor =
    match Json.member "speedup_floor" baseline with
    | Some (Json.Num f) -> f
    | _ -> bench_speedup_floor
  in
  let calib = calibrate () in
  let timings = emit_par_bench ~repeat () in
  Printf.printf "Bench regression check vs %s (calibration %.4f s baseline / %.4f s now):\n"
    path base_calib calib;
  let cores = Domain.recommended_domain_count () in
  let gate_speedup = cores >= par_jobs in
  if not gate_speedup then
    Printf.printf "  (speedup floor %.1fx skipped: %d core(s) < %d jobs)\n" floor cores par_jobs;
  let failures = ref 0 in
  List.iter
    (fun (name, seq_s, par_s, identical) ->
      if not identical then begin
        Printf.printf "  %-16s FAIL: sequential and parallel results differ\n" name;
        incr failures
      end;
      if gate_speedup then begin
        let speedup = seq_s /. par_s in
        if speedup < floor then begin
          Printf.printf "  %-16s FAIL speedup: %.2fx below the %.1fx floor at %d jobs\n" name
            speedup floor par_jobs;
          incr failures
        end
        else Printf.printf "  %-16s ok   speedup: %.2fx >= %.1fx\n" name speedup floor
      end;
      match Json.member "workloads" baseline with
      | Some wl -> (
          match Json.member name wl with
          | None -> Printf.printf "  %-16s (not in baseline, skipped)\n" name
          | Some entry ->
              List.iter
                (fun (key, now_s) ->
                  let base_norm = num entry key /. base_calib in
                  let now_norm = now_s /. calib in
                  let limit = base_norm *. (1.0 +. tolerance) in
                  if now_norm > limit then begin
                    Printf.printf
                      "  %-16s FAIL %s: %.1f calib units exceeds baseline %.1f (+%.0f%%)\n"
                      name key now_norm base_norm (100.0 *. tolerance);
                    incr failures
                  end
                  else
                    Printf.printf "  %-16s ok   %s: %.1f calib units <= %.1f (+%.0f%%)\n" name
                      key now_norm base_norm (100.0 *. tolerance))
                [ ("sequential_s", seq_s); ("parallel_s", par_s) ])
      | None -> failwith (Printf.sprintf "bench baseline %s: no workloads section" path))
    timings;
  if !failures > 0 then begin
    Printf.printf "BENCH REGRESSION: %d check(s) outside the tolerance band\n" !failures;
    exit 1
  end
  else print_endline "bench regression check passed"

(* ------------------------------------------------------------------ *)
(* Observability overhead smoke.

   The registry's contract is that the {e disabled} entry points cost
   nothing on hot paths.  Measure the disabled per-call cost directly,
   count how many registry calls one cycle-level schedule actually
   makes (by running it once {e enabled} and reading the snapshot
   back), and require  calls x per-call-cost < 1% of the disabled
   schedule wall clock. *)
let obs_overhead_smoke () =
  let module Obs = Orianna_obs.Obs in
  Obs.disable ();
  Obs.reset ();
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let sched () = ignore (Schedule.run ~accel ~policy:Schedule.Ooo_full app_program) in
  sched ();
  let t_sched =
    let runs = List.init 5 (fun _ -> time sched) in
    let a = Array.of_list runs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (* Disabled per-call cost, averaged over the three metric entry
     points (1M calls each). *)
  let calls = 1_000_000 in
  let t_count = time (fun () -> for _ = 1 to calls do Obs.count "smoke.c" done) in
  let t_observe = time (fun () -> for _ = 1 to calls do Obs.observe "smoke.h" 1.0 done) in
  let t_gauge = time (fun () -> for _ = 1 to calls do Obs.set_gauge "smoke.g" 1.0 done) in
  let per_call = (t_count +. t_observe +. t_gauge) /. float_of_int (3 * calls) in
  (* How many registry calls does one schedule make?  Run it enabled
     and read the snapshot: histogram samples + counter bumps + gauge
     writes (counters are bumped with ~n batching, so counting names
     under-counts; each name is still one call site per run). *)
  Obs.enable ();
  sched ();
  let n_calls =
    List.fold_left (fun acc (_, (h : Obs.histogram)) -> acc + h.Obs.samples) 0 (Obs.histograms ())
    + List.length (Obs.counters ())
    + List.length (Obs.gauges ())
    + List.length (Obs.spans ())
  in
  Obs.disable ();
  Obs.reset ();
  let overhead_s = float_of_int n_calls *. per_call in
  let frac = overhead_s /. t_sched in
  Printf.printf
    "obs overhead smoke: schedule %.4f s, %d registry calls x %.1f ns disabled = %.6f s (%.3f%%)\n"
    t_sched n_calls (per_call *. 1e9) overhead_s (100.0 *. frac);
  if frac >= 0.01 then begin
    print_endline "OBS OVERHEAD: disabled registry costs >= 1% of the schedule hot path";
    exit 1
  end
  else print_endline "obs overhead smoke passed (< 1%)"

(* Flag parsing: --par-only / --isa-opt-only / --chaos-only /
   --sessions-only / --obs-overhead select a
   sub-benchmark; --repeat K, --check FILE and --record FILE drive the
   noise-aware regression gate over the parallel sweep workloads. *)
let flag name = Array.exists (( = ) name) Sys.argv

let flag_value name =
  let n = Array.length Sys.argv in
  let rec find i =
    if i >= n - 1 then None else if Sys.argv.(i) = name then Some Sys.argv.(i + 1) else find (i + 1)
  in
  find 1

let () =
  let repeat =
    match flag_value "--repeat" with
    | Some s -> ( match int_of_string_opt s with Some k when k >= 1 -> k | _ -> 1)
    | None -> 1
  in
  if flag "--obs-overhead" then obs_overhead_smoke ()
  else
    match (flag_value "--check", flag_value "--record") with
    | Some path, _ -> check_baseline ~repeat path
    | None, Some path -> record_baseline ~repeat path
    | None, None ->
  if flag "--par-only" then ignore (emit_par_bench ~repeat ())
  else if flag "--isa-opt-only" then emit_isa_opt_bench ()
  else if flag "--chaos-only" then emit_chaos_bench ()
  else if flag "--sessions-only" then emit_sessions_bench ()
  else begin
    print_endline "=====================================================================";
    print_endline " ORIANNA evaluation reproduction (one entry per paper table/figure)";
    print_endline "=====================================================================";
    print_newline ();
    Orianna.Experiments.run_all ~missions:30 ();
    print_endline "=====================================================================";
    emit_serve_bench ();
    emit_isa_opt_bench ();
    run_micro_benchmarks ()
  end
