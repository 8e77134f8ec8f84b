(* Differential-equivalence harness for the instruction-stream
   optimizer (Orianna_isa.Opt).

   Every pass — and the whole pipeline — must produce programs whose
   execution yields identical final variable estimates (within 1e-9).
   The checks use the old->new register maps the passes return, so a
   failure names the *first diverging instruction* and its value
   delta, not just a mismatched output.

   Golden snapshots: per-app per-opcode instruction histograms at O0
   and O1 live in test/golden/isa_opt_<app>.json, and the content
   hashes and base-accelerator cycles of the five -O 3 frame streams
   in test/golden/o3_streams_<app>.json.  After an intentional
   compiler or optimizer change, regenerate them from the repo root
   with

     ORIANNA_UPDATE_GOLDEN=1 ORIANNA_GOLDEN_DIR=test/golden \
       dune exec test/test_isa_opt.exe

   and commit the diff (both are deterministic: fixed seed,
   deterministic RNG, deterministic passes). *)

open Orianna_linalg
open Orianna_isa
open Orianna_util
module Compile = Orianna_compiler.Compile
module App = Orianna_apps.App
module Schedule = Orianna_sim.Schedule
module Opt_loop = Orianna_sim.Opt_loop
module Accel = Orianna_hw.Accel
module Json = Orianna_obs.Json
module Cache = Orianna_serve.Cache
module Graph = Orianna_fg.Graph
module Var = Orianna_fg.Var

let eps = 1e-9
let bench_seed = 42

(* ------------------------------------------------------------------ *)
(* Differential equivalence                                            *)

let max_delta a b =
  let ra, ca = Mat.dims a and rb, cb = Mat.dims b in
  if ra <> rb || ca <> cb then infinity
  else begin
    let d = ref 0.0 in
    for i = 0 to ra - 1 do
      for j = 0 to ca - 1 do
        d := Float.max !d (Float.abs (Mat.get a i j -. Mat.get b i j))
      done
    done;
    !d
  end

(* Execute both programs and compare every surviving intermediate
   value through the register map; on divergence, fail naming the
   first diverging instruction and the value delta. *)
let check_equivalent ~what p (p', map) =
  Program.validate p';
  let v = Program.execute p and v' = Program.execute p' in
  Array.iteri
    (fun i (ins : Instr.t) ->
      let m = map.(i) in
      if m >= 0 then begin
        let d = max_delta v.(i) v'.(m) in
        if not (d <= eps) then
          Alcotest.failf "%s: first diverging instruction i%d (%s %dx%d%s) -> new i%d: |delta| = %g"
            what i
            (Instr.opcode_name ins.Instr.op)
            ins.Instr.rows ins.Instr.cols
            (if ins.Instr.tag = "" then "" else ", " ^ ins.Instr.tag)
            m d
      end)
    p.Program.instrs;
  let out = Program.run p and out' = Program.run p' in
  List.iter
    (fun (name, va) ->
      match List.assoc_opt name out' with
      | None -> Alcotest.failf "%s: output %s missing after optimization" what name
      | Some vb ->
          if not (Vec.equal ~eps va vb) then
            Alcotest.failf "%s: final estimate %s diverges by %g" what name
              (max_delta (Mat.of_vec va) (Mat.of_vec vb)))
    out

(* Boolean form for QCheck (QCheck prints the shrunk (seed, nvars)
   counterexample itself). *)
let equivalent p (p', map) =
  let v = Program.execute p and v' = Program.execute p' in
  let ok = ref true in
  Array.iteri (fun i _ -> if map.(i) >= 0 && max_delta v.(i) v'.(map.(i)) > eps then ok := false) p.Program.instrs;
  let out = Program.run p and out' = Program.run p' in
  List.iter
    (fun (name, va) ->
      match List.assoc_opt name out' with
      | None -> ok := false
      | Some vb -> if not (Vec.equal ~eps va vb) then ok := false)
    out;
  !ok

(* ------------------------------------------------------------------ *)
(* Per-app differential tests (the four registered applications)       *)

let compiled_at_levels (app : App.t) =
  let graphs = app.App.graphs (Rng.of_int bench_seed) in
  let p0 = Compile.compile_application ~opt_level:0 graphs in
  let p1 = Compile.compile_application ~opt_level:1 graphs in
  (graphs, p0, p1)

let test_app_differential (app : App.t) () =
  let _, p0, p1 = compiled_at_levels app in
  (* The compiler wiring must be exactly the pass pipeline applied to
     the O0 stream — so the traced map from re-running the pipeline
     here is valid for the wired O1 program too. *)
  let p1', map, report = Opt.optimize_traced ~level:1 p0 in
  Alcotest.(check int32) "compile ~opt_level:1 = optimize (compile ~opt_level:0)"
    (Program.hash p1') (Program.hash p1);
  check_equivalent ~what:app.App.name p0 (p1', map);
  Alcotest.(check bool) "never grows" true (report.Opt.after <= report.Opt.before);
  (* Simulated execution: issued-instruction count at O1 <= O0. *)
  let accel = Accel.base () in
  List.iter
    (fun policy ->
      let r0 = Schedule.run ~accel ~policy p0 in
      let r1 = Schedule.run ~accel ~policy p1 in
      Alcotest.(check bool)
        (Printf.sprintf "%s issued O1 (%d) <= O0 (%d)" (Schedule.policy_name policy)
           r1.Schedule.instructions r0.Schedule.instructions)
        true
        (r1.Schedule.instructions <= r0.Schedule.instructions))
    [ Schedule.In_order; Schedule.Ooo_fine; Schedule.Ooo_full ]

let test_reduction_floor () =
  (* The CI gate's invariant, asserted in-tree as well: O1 removes at
     least 5% of instructions on at least two of the four apps. *)
  let reduced =
    List.filter
      (fun (a : App.t) ->
        let _, p0, p1 = compiled_at_levels a in
        float_of_int (Program.length p1) <= 0.95 *. float_of_int (Program.length p0))
      App.all
  in
  Alcotest.(check bool)
    (Printf.sprintf ">= 5%% reduction on >= 2 apps (got %d)" (List.length reduced))
    true
    (List.length reduced >= 2)

let test_schedule_invariants_on_optimized () =
  (* The reorder pass must stay schedule-safe: the scheduler's own
     accounting invariants (causality, stall decomposition, latency
     conformance) re-derive cleanly on an optimized stream under every
     issue policy. *)
  let p = Compile.compile_application (App.mobile_robot.App.graphs (Rng.of_int 7)) in
  let accel = Accel.base () in
  List.iter
    (fun policy ->
      let r = Schedule.run ~accel ~policy p in
      match Schedule.check_invariants ~accel p r with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" (Schedule.policy_name policy) msg)
    [ Schedule.In_order; Schedule.Ooo_fine; Schedule.Ooo_full ]

let test_stall_weighted_reorder_equivalent () =
  (* The O2 path: reorder again with measured stall attribution. *)
  let p = Compile.compile_application (App.auto_vehicle.App.graphs (Rng.of_int 3)) in
  let accel = Accel.base () in
  let r = Schedule.run ~accel ~policy:Schedule.In_order p in
  let stalls = Orianna_sim.Trace.operand_stalls p r in
  Alcotest.(check int) "stall vector length" (Program.length p) (Array.length stalls);
  check_equivalent ~what:"stall-weighted reorder" p (Opt.reorder ~stalls p);
  Alcotest.(check bool) "rejects wrong length" true
    (try
       ignore (Opt.reorder ~stalls:[| 0 |] p);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* One stream per -O level, whatever the entry point                   *)

let same_outputs_within_eps ~what p0 p =
  Program.validate p;
  let out = Program.run p in
  List.iter
    (fun (name, va) ->
      match List.assoc_opt name out with
      | None -> Alcotest.failf "%s: output %s missing" what name
      | Some vb ->
          if not (Vec.equal ~eps va vb) then
            Alcotest.failf "%s: final estimate %s diverges from O0" what name)
    (Program.run p0)

let test_levels_agree (app : App.t) () =
  (* -O N is Opt_loop.optimize ~level:N over the compiler's lowering at
     N, at every entry point: Pipeline.frame's five streams and the
     serving compile path must be exactly that composition.  Every
     level computes what O0 computes, and cycles on the base
     accelerator never rise from O1 to O3 nor end above O0. *)
  let graphs = app.App.graphs (Rng.of_int bench_seed) in
  let composed n =
    let level p = Opt_loop.optimize ~level:n p in
    (level (Compile.compile_application ~opt_level:n graphs)
    :: List.mapi (fun i (_, g) -> level (Compile.compile ~algo:i ~opt_level:n g)) graphs)
    @ [ level (Compile.compile_dense_application ~opt_level:n graphs) ]
  in
  let names = ("application" :: List.map (fun (name, _) -> "algo:" ^ name) graphs) @ [ "dense" ] in
  let stream_at n =
    let f = Orianna.Pipeline.frame ~opt_level:n app ~seed:bench_seed in
    let streams =
      (f.Orianna.Pipeline.program :: List.map snd f.Orianna.Pipeline.algo_programs)
      @ [ f.Orianna.Pipeline.dense_program ]
    in
    List.iter2
      (fun name (p, q) ->
        Alcotest.(check int32)
          (Printf.sprintf "%s -O %d %s: frame = composition" app.App.name n name)
          (Program.hash q) (Program.hash p))
      names
      (List.combine streams (composed n));
    let served, _ =
      Orianna_serve.Serve.Testing.compile_graphs
        ~budget:Orianna_serve.Serve.default_config.Orianna_serve.Serve.budget ~opt_level:n graphs
    in
    Alcotest.(check int32)
      (Printf.sprintf "%s -O %d: serve = frame" app.App.name n)
      (Program.hash f.Orianna.Pipeline.program) (Program.hash served);
    streams
  in
  let levels = List.map stream_at [ 0; 1; 2; 3 ] in
  let accel = Accel.base () in
  let cycles p = (Schedule.run ~accel ~policy:Schedule.Ooo_full p).Schedule.cycles in
  List.iteri
    (fun k name ->
      let at n = List.nth (List.nth levels n) k in
      List.iter
        (fun n ->
          same_outputs_within_eps ~what:(Printf.sprintf "%s -O %d %s" app.App.name n name) (at 0) (at n))
        [ 1; 2; 3 ];
      let c0 = cycles (at 0) and c1 = cycles (at 1) and c2 = cycles (at 2) and c3 = cycles (at 3) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: O1 %d >= O2 %d >= O3 %d, O3 <= O0 %d" app.App.name name c1 c2 c3 c0)
        true
        (c1 >= c2 && c2 >= c3 && c3 <= c0))
    names

(* ------------------------------------------------------------------ *)
(* O3: superword batching and the profile-guided fixpoint              *)

let test_superword_app_equivalent () =
  (* Superword batching alone: merged members become one wide kernel
     plus per-member extract slices; every surviving register must
     read back identically through the map (the kernels evaluate their
     members with Program.eval_op, so equality is bit-exact). *)
  List.iter
    (fun (app : App.t) ->
      let p = Compile.compile_application ~opt_level:1 (app.App.graphs (Rng.of_int bench_seed)) in
      List.iter
        (fun (kinds, label) ->
          check_equivalent
            ~what:(Printf.sprintf "%s: superword %s" app.App.name label)
            p (Opt.superword ~kinds p))
        [ (`Mul, "mul"); (`All, "all") ])
    App.all

let test_o3_differential (app : App.t) () =
  (* The full measured O3 loop against the O0 stream, value-by-value
     through the composed map (1e-9, same bar as every other pass). *)
  let p0 = Compile.compile_application ~opt_level:0 (app.App.graphs (Rng.of_int bench_seed)) in
  let p3, map, _ = Opt_loop.optimize_traced ~level:3 p0 in
  check_equivalent ~what:(app.App.name ^ " O0 vs O3") p0 (p3, map)

let test_o3_monotone_cycles () =
  (* Levels only ever help: the measured loop's accept-if-better guard
     makes cycles non-increasing in the level on the probing
     accelerator/policy, for every app and from any input — here O0,
     where level 1 is the identity (O1 is the compiler's; the real O1
     streams are checked in "levels agree"). *)
  let accel = Accel.base () in
  List.iter
    (fun (app : App.t) ->
      let p0 = Compile.compile_application ~opt_level:0 (app.App.graphs (Rng.of_int bench_seed)) in
      let cycles p = (Schedule.run ~accel ~policy:Schedule.Ooo_full p).Schedule.cycles in
      let cs =
        List.map
          (fun l -> cycles (if l = 0 then p0 else Opt_loop.optimize ~accel ~level:l p0))
          [ 0; 1; 2; 3 ]
      in
      match cs with
      | [ c0; c1; c2; c3 ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: cycles monotone O0 %d >= O1 %d >= O2 %d >= O3 %d" app.App.name
               c0 c1 c2 c3)
            true
            (c0 >= c1 && c1 >= c2 && c2 >= c3)
      | _ -> assert false)
    App.all

(* ci/isa_opt_baseline.json's bounds: each app's O0 -> O3 cycle
   reduction at or above its entry minus the tolerance, and at least
   [min_apps_at_5pct] apps at a 5% cut. *)
let isa_opt_violations baseline reductions =
  let at5 = List.length (List.filter (fun (_, r) -> r >= 0.05) reductions) in
  let want_at5 = int_of_float (Util_ci.num baseline [ "min_apps_at_5pct" ]) in
  let tolerance = Util_ci.num baseline [ "tolerance" ] in
  Util_ci.violations
    ((at5 < want_at5, Printf.sprintf "%d apps reach a 5%% cycle cut, need %d" at5 want_at5)
    :: List.map
         (fun (app, got) ->
           let want = Util_ci.num baseline [ "apps"; app; "cycle_reduction" ] in
           ( got < want -. tolerance,
             Printf.sprintf "%s: cycle reduction %.4f below baseline %.4f - %.2f" app got want
               tolerance ))
         reductions)

let test_cycle_reduction_floor () =
  (* The -O 3 stream never schedules any app slower than its O0 stream,
     and the cycle cuts hold ci/isa_opt_baseline.json's bounds; a
     mutated bound must fail. *)
  let accel = Accel.base () in
  let reductions =
    List.map
      (fun (a : App.t) ->
        let graphs = a.App.graphs (Rng.of_int bench_seed) in
        let p0 = Compile.compile_application ~opt_level:0 graphs in
        let p3 = Opt_loop.optimize ~accel ~level:3 (Compile.compile_application ~opt_level:3 graphs) in
        let c p = (Schedule.run ~accel ~policy:Schedule.Ooo_full p).Schedule.cycles in
        let c0 = c p0 and c3 = c p3 in
        Alcotest.(check bool)
          (Printf.sprintf "%s: O3 (%d) <= O0 (%d) cycles" a.App.name c3 c0)
          true (c3 <= c0);
        (a.App.name, 1.0 -. (float_of_int c3 /. float_of_int c0)))
      App.all
  in
  let baseline = Util_ci.load "isa_opt_baseline.json" in
  (match isa_opt_violations baseline reductions with
  | [] -> ()
  | vs -> Alcotest.failf "ci/isa_opt_baseline.json: %s" (String.concat "; " vs));
  let mutated =
    Util_ci.mutate [ "apps"; "MobileRobot"; "cycle_reduction" ] (fun v -> v +. 0.05) baseline
  in
  Alcotest.(check bool) "cycle_reduction + 0.05 fails" true
    (isa_opt_violations mutated reductions <> [])

let test_o3_measures_each_stream_once () =
  (* The fixpoint keeps the accepted stream's measurement next to the
     stream, and a proposer that failed on the accepted stream is not
     run on it again, so no two probe calls see equal streams (by
     content hash): not the same program object twice, not a reorder
     candidate that moved nothing (it is the current stream), not a
     candidate rejected in an earlier round, and not the input twice —
     when fusion, CSE and DCE change nothing, the first measurement is
     the input's.  Checked on each app's O0 stream and on the five O1
     streams of a frame, the measured loop's inputs. *)
  let accel = Accel.base () in
  let measure = Opt_loop.probe ~accel () in
  List.iter
    (fun (app : App.t) ->
      let f = Orianna.Pipeline.frame ~opt_level:1 app ~seed:bench_seed in
      let p0 = Compile.compile_application ~opt_level:0 f.Orianna.Pipeline.graphs in
      List.iter
        (fun (name, p) ->
          let input = Program.hash p in
          let seen = Hashtbl.create 16 and repeats = ref 0 and inputs = ref 0 in
          let probe q =
            let h = Program.hash q in
            if Hashtbl.mem seen h then incr repeats else Hashtbl.add seen h ();
            if h = input then incr inputs;
            measure q
          in
          ignore (Opt.optimize_traced ~level:3 ~cost_model:(Accel.cost_model accel) ~probe p);
          let what = Printf.sprintf "%s %s (%d measured)" app.App.name name (Hashtbl.length seen) in
          Alcotest.(check int) (what ^ ": equal streams measured twice") 0 !repeats;
          Alcotest.(check int) (what ^ ": measurements of the input") 1 !inputs)
        ((("O0 application", p0) :: ("O1 application", f.Orianna.Pipeline.program)
         :: List.map (fun (name, p) -> ("O1 algo:" ^ name, p)) f.Orianna.Pipeline.algo_programs)
        @ [ ("O1 dense", f.Orianna.Pipeline.dense_program) ]))
    App.all

let test_counters_mirror_report () =
  (* The isa.opt.* counters add up what optimize_traced accepted:
     rejected candidates and a whole-stream revert leave no trace
     (measured O2 from O0 reverts on MobileRobot). *)
  let module Obs = Orianna_obs.Obs in
  let accel = Accel.base () in
  let runs =
    [
      ("O1", fun p -> Opt.optimize_traced ~level:1 p);
      ("O3", fun p -> Opt.optimize_traced ~level:3 p);
      ("measured O2", fun p -> Opt_loop.optimize_traced ~accel ~level:2 p);
      ("measured O3", fun p -> Opt_loop.optimize_traced ~accel ~level:3 p);
    ]
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      List.iter
        (fun (app : App.t) ->
          let p0 =
            Compile.compile_application ~opt_level:0 (app.App.graphs (Rng.of_int bench_seed))
          in
          List.iter
            (fun (label, run) ->
              Obs.reset ();
              let _, _, r = run p0 in
              let saved =
                List.fold_left (fun acc (_, d) -> if d > 0 then acc + d else acc) 0 r.Opt.cycle_deltas
              in
              List.iter
                (fun (name, expected) ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s %s: isa.opt.%s" app.App.name label name)
                    expected
                    (Obs.counter ("isa.opt." ^ name)))
                [
                  ("cse_merged", r.Opt.cse_merged);
                  ("fused", r.Opt.fused);
                  ("dce_removed", r.Opt.dce_removed);
                  ("reorder_moved", r.Opt.reorder_moved);
                  ("superword_merged", r.Opt.superword_merged);
                  ("instructions_saved", r.Opt.before - r.Opt.after);
                  ("cycles_saved", saved);
                ])
            runs)
        App.all)

(* ------------------------------------------------------------------ *)
(* QCheck: random factor graphs (generator mirrors test_properties)    *)

let random_linear_graph ?(links = 1) seed nvars =
  let rng = Rng.of_int seed in
  let g = Graph.create () in
  for i = 0 to nvars - 1 do
    Graph.add_variable g (Printf.sprintf "v%d" i)
      (Var.Vector (Array.init 2 (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)))
  done;
  for i = 0 to nvars - 1 do
    let z = Array.init 2 (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
    Graph.add_factor g
      (Orianna_factors.Motion_factors.state_cost
         ~name:(Printf.sprintf "prior%d" i)
         ~var:(Printf.sprintf "v%d" i) ~target:z ~sigmas:[| 0.5; 0.5 |])
  done;
  for _ = 1 to links * nvars do
    let a = Rng.int rng nvars and b = Rng.int rng nvars in
    if a <> b then
      Graph.add_factor g
        (Orianna_factors.Motion_factors.smooth
           ~name:(Printf.sprintf "link%d-%d-%d" a b (Rng.int rng 10000))
           ~a:(Printf.sprintf "v%d" a) ~b:(Printf.sprintf "v%d" b) ~dt:0.1 ~d:1 ~sigma:0.7)
  done;
  g

(* (seed, nvars) shrinks componentwise, so a failure reports a minimal
   failing graph: smallest nvars, then smallest seed, that still
   breaks the property. *)
let pair_seed =
  QCheck.(make Gen.(pair (int_range 0 1_000_000) (int_range 2 7)) ~print:QCheck.Print.(pair int int))

let passes : (string * (Program.t -> Program.t * int array)) list =
  [ ("cse", Opt.cse); ("fuse", Opt.fuse); ("dce", Opt.dce); ("reorder", fun p -> Opt.reorder p) ]

let prop_pass name pass =
  QCheck.Test.make
    ~name:(Printf.sprintf "opt: %s preserves simulated results, never grows" name)
    ~count:60 pair_seed
    (fun (seed, nvars) ->
      let p = Compile.compile ~opt_level:0 (random_linear_graph seed nvars) in
      let p', map = pass p in
      Program.validate p';
      Program.length p' <= Program.length p && equivalent p (p', map))

let prop_pipeline =
  QCheck.Test.make ~name:"opt: full pipeline preserves simulated results, never grows" ~count:60
    pair_seed (fun (seed, nvars) ->
      let p = Compile.compile ~opt_level:0 (random_linear_graph seed nvars) in
      let p', map, report = Opt.optimize_traced ~level:1 p in
      Program.validate p';
      report.Opt.after <= report.Opt.before
      && Program.length p' = report.Opt.after
      && equivalent p (p', map))

let prop_superword =
  (* Batches of either kind slice back to the original values; the
     rebuilt stream is a valid topological order even when the greedy
     grouping has to be repaired for cross-batch cycles. *)
  QCheck.Test.make ~name:"opt: superword batching preserves simulated results" ~count:40
    pair_seed (fun (seed, nvars) ->
      let p = Compile.compile ~opt_level:0 (random_linear_graph seed nvars) in
      List.for_all
        (fun kinds ->
          let ((p', _) as r) = Opt.superword ~min_batch:2 ~kinds p in
          Program.validate p';
          equivalent p r)
        [ `Mul; `All ])

let prop_o3_fixpoint =
  (* Without a probe the fixpoint accepts against the cost-model
     estimate; results must still be preserved exactly. *)
  QCheck.Test.make ~name:"opt: O3 modeled fixpoint preserves simulated results" ~count:30
    pair_seed (fun (seed, nvars) ->
      let p = Compile.compile ~opt_level:0 (random_linear_graph seed nvars) in
      let p', map, _ = Opt.optimize_traced ~level:3 p in
      Program.validate p';
      equivalent p (p', map))

(* ------------------------------------------------------------------ *)
(* Superword repair: incremental vs rebuild-per-dissolve               *)

(* Verbatim copy of [Opt.superword_pass] as it was when its acyclic
   repair rebuilt the contracted graph after every dissolved batch,
   kept as the reference the incremental repair must match exactly:
   same stream (by content hash) and same register map.  Two edits:
   it also returns [dissolved], the number of batches the repair broke
   up, so the comparison can show it exercised the repair; and the emission's heap is the int-keyed
   [Heap] keyed by [rep] (every key in it is distinct, so any
   min-heap pops the same order). *)
module Ref_superword = struct
    let identity_map n = Array.init n (fun i -> i)

  let opcode_tag : Instr.opcode -> int = function
    | Instr.Load _ -> 0
    | Instr.Vadd -> 1
    | Instr.Vsub -> 2
    | Instr.Scale _ -> 3
    | Instr.Neg -> 4
    | Instr.Transpose -> 5
    | Instr.Gemm -> 6
    | Instr.Gemv -> 7
    | Instr.Logm -> 8
    | Instr.Expm -> 9
    | Instr.Skew -> 10
    | Instr.Jr -> 11
    | Instr.Jrinv -> 12
    | Instr.Assemble _ -> 13
    | Instr.Extract _ -> 14
    | Instr.Qr -> 15
    | Instr.Backsolve -> 16
    | Instr.Kernel _ -> 17


  let eligible_kind kinds (op : Instr.opcode) =
    match op with
    | Instr.Gemm | Instr.Gemv -> true
    | Instr.Vadd | Instr.Vsub | Instr.Scale _ | Instr.Neg -> kinds = `All
    | _ -> false

  let superword_pass ?(min_batch = 3) ?(max_batch = 16) ?(kinds = `Mul) (p : Program.t) =
    let instrs = p.Program.instrs in
    let n = Array.length instrs in
    let src_shape s = (instrs.(s).Instr.rows, instrs.(s).Instr.cols) in
    let candidates = ref 0 in
    Array.iter (fun (i : Instr.t) -> if eligible_kind kinds i.Instr.op then incr candidates) instrs;
    if !candidates < min_batch then (p, identity_map n, 0, 0)
    else begin
      (* Transitive-ancestor bitsets (32 bits per word, flat array). *)
      let w = (n + 31) / 32 in
      let anc = Array.make (n * w) 0 in
      let test_bit i j = anc.((i * w) + (j lsr 5)) land (1 lsl (j land 31)) <> 0 in
      for i = 0 to n - 1 do
        Array.iter
          (fun s ->
            let bi = i * w and bs = s * w in
            for k = 0 to w - 1 do
              anc.(bi + k) <- anc.(bi + k) lor anc.(bs + k)
            done;
            anc.(bi + (s lsr 5)) <- anc.(bi + (s lsr 5)) lor (1 lsl (s land 31)))
          instrs.(i).Instr.srcs
      done;
      (* Greedy grouping in id order; flush a group on dependence
         conflict or when it reaches [max_batch]. *)
      let key (ins : Instr.t) =
        Printf.sprintf "%d|%d|%d|%d|%d|%d" (opcode_tag ins.Instr.op) ins.Instr.rows ins.Instr.cols
          (Array.length ins.Instr.srcs) ins.Instr.algo
          (match ins.Instr.phase with Instr.Construct -> 0 | Instr.Decompose -> 1 | Instr.Backsub -> 2)
      in
      let open_groups : (string, int list ref) Hashtbl.t = Hashtbl.create 32 in
      let collected = ref [] in
      let commit members =
        (* members arrive newest-first *)
        if List.length members >= min_batch then collected := List.rev members :: !collected
      in
      Array.iteri
        (fun i (ins : Instr.t) ->
          if eligible_kind kinds ins.Instr.op then begin
            let k = key ins in
            match Hashtbl.find_opt open_groups k with
            | None -> Hashtbl.add open_groups k (ref [ i ])
            | Some cur ->
                if List.exists (fun m -> test_bit i m) !cur then begin
                  commit !cur;
                  cur := [ i ]
                end
                else begin
                  cur := i :: !cur;
                  if List.length !cur >= max_batch then begin
                    commit !cur;
                    cur := []
                  end
                end
          end)
        instrs;
      Hashtbl.iter (fun _ cur -> commit !cur) open_groups;
      (* Pairwise member independence does not rule out a cycle crossing
         TWO batches (A -> B through one pair of members, B -> A through
         an unrelated pair), which would deadlock the contracted
         topological sort.  Validate the contraction with a counting-only
         Kahn pass and dissolve the lowest-id batch still blocked until
         the contracted graph is acyclic; dissolving every batch recovers
         the original (acyclic) program, so this terminates. *)
      let batch_list = ref (List.rev !collected) in
      let dissolved = ref 0 in
      let acyclic () =
        let batches = Array.of_list !batch_list in
        let nbatches = Array.length batches in
        let batch_of = Array.make n (-1) in
        Array.iteri (fun bi ms -> List.iter (fun m -> batch_of.(m) <- bi) ms) batches;
        let super i = if batch_of.(i) >= 0 then n + batch_of.(i) else i in
        let nsup = n + nbatches in
        let indeg = Array.make nsup 0 and scons = Array.make nsup [] in
        for i = 0 to n - 1 do
          let si = super i in
          Array.iter
            (fun s ->
              let ss = super s in
              if ss <> si then begin
                indeg.(si) <- indeg.(si) + 1;
                scons.(ss) <- si :: scons.(ss)
              end)
            instrs.(i).Instr.srcs
        done;
        let members = Array.fold_left (fun acc ms -> acc + List.length ms) 0 batches in
        let queue = Queue.create () in
        for s = 0 to nsup - 1 do
          if indeg.(s) = 0 && (if s < n then batch_of.(s) < 0 else true) then Queue.add s queue
        done;
        let popped = ref 0 in
        while not (Queue.is_empty queue) do
          let s = Queue.pop queue in
          incr popped;
          List.iter
            (fun c ->
              indeg.(c) <- indeg.(c) - 1;
              if indeg.(c) = 0 then Queue.add c queue)
            scons.(s)
        done;
        if !popped = nsup - members then true
        else begin
          let stuck = ref (-1) and stuck_rep = ref max_int in
          Array.iteri
            (fun bi ms ->
              if indeg.(n + bi) > 0 then begin
                let r = List.hd ms in
                if r < !stuck_rep then begin
                  stuck := bi;
                  stuck_rep := r
                end
              end)
            batches;
          batch_list := List.filteri (fun bi _ -> bi <> !stuck) !batch_list;
          incr dissolved;
          false
        end
      in
      while not (acyclic ()) do
        ()
      done;
      let batches = Array.of_list !batch_list in
      let nbatches = Array.length batches in
      if nbatches = 0 then (p, identity_map n, 0, !dissolved)
      else begin
        let batch_of = Array.make n (-1) in
        Array.iteri (fun bi members -> List.iter (fun m -> batch_of.(m) <- bi) members) batches;
        let super i = if batch_of.(i) >= 0 then n + batch_of.(i) else i in
        let rep = Array.init (n + nbatches) (fun s -> if s < n then s else List.hd batches.(s - n)) in
        (* Contracted-graph Kahn, ready nodes popped in old-id order. *)
        let nsup = n + nbatches in
        let indeg = Array.make nsup 0 and sconsumers = Array.make nsup [] in
        for i = 0 to n - 1 do
          let si = super i in
          Array.iter
            (fun s ->
              let ss = super s in
              if ss <> si then begin
                indeg.(si) <- indeg.(si) + 1;
                sconsumers.(ss) <- si :: sconsumers.(ss)
              end)
            instrs.(i).Instr.srcs
        done;
        let heap = Heap.create () in
        (* Batched members keep an indegree of 0 at their own index (their
           edges live on the batch supernode) — only real supernodes
           (unbatched instructions and batch ids) enter the ready set. *)
        for s = 0 to nsup - 1 do
          if indeg.(s) = 0 && (if s < n then batch_of.(s) < 0 else true) then
            Heap.push heap ~key:rep.(s) s
        done;
        let map = Array.make n (-1) in
        let b = Program.Builder.create () in
        let merged = ref 0 in
        let kcount = ref 0 in
        let emit_single i =
          let ins = instrs.(i) in
          let srcs = Array.map (fun s -> map.(s)) ins.Instr.srcs in
          map.(i) <-
            Program.Builder.emit b ~op:ins.Instr.op ~srcs ~rows:ins.Instr.rows ~cols:ins.Instr.cols
              ~phase:ins.Instr.phase ~algo:ins.Instr.algo ~tag:ins.Instr.tag
        in
        let emit_batch bi =
          let members = Array.of_list batches.(bi) in
          let count = Array.length members in
          let first = instrs.(members.(0)) in
          let mrows = first.Instr.rows and mcols = first.Instr.cols in
          let member_instrs = Array.map (fun m -> instrs.(m)) members in
          let arity = Array.map (fun (m : Instr.t) -> Array.length m.Instr.srcs) member_instrs in
          let flops =
            Array.fold_left (fun acc m -> acc + Instr.flops instrs.(m) ~src_shape) 0 members
          in
          let srcs =
            Array.concat
              (Array.to_list
                 (Array.map
                    (fun m -> Array.map (fun s -> map.(s)) instrs.(m).Instr.srcs)
                    members))
          in
          let idx = !kcount in
          incr kcount;
          let kname =
            Printf.sprintf "sw%d.%s.%dx%d.b%d" idx (Instr.opcode_name first.Instr.op) mrows mcols
              count
          in
          let apply mats =
            let out = Mat.create (count * mrows) mcols in
            let off = ref 0 in
            Array.iteri
              (fun j (m : Instr.t) ->
                let args = Array.sub mats !off arity.(j) in
                off := !off + arity.(j);
                Mat.set_block out (j * mrows) 0 (Program.eval_op m args))
              member_instrs;
            out
          in
          let kid =
            Program.Builder.emit b
              ~op:(Instr.Kernel { Instr.kname; flops; apply })
              ~srcs ~rows:(count * mrows) ~cols:mcols ~phase:first.Instr.phase ~algo:first.Instr.algo
              ~tag:"superword"
          in
          Array.iteri
            (fun j m ->
              let ins = instrs.(m) in
              map.(m) <-
                Program.Builder.emit b
                  ~op:(Instr.Extract { row = j * mrows; col = 0; rows = mrows; cols = mcols })
                  ~srcs:[| kid |] ~rows:mrows ~cols:mcols ~phase:ins.Instr.phase ~algo:ins.Instr.algo
                  ~tag:ins.Instr.tag)
            members;
          merged := !merged + count
        in
        let emitted = ref 0 in
        let rec drain () =
          match if Heap.is_empty heap then None else Some (Heap.pop heap) with
          | None -> ()
          | Some s ->
              incr emitted;
              if s < n then emit_single s else emit_batch (s - n);
              List.iter
                (fun c ->
                  indeg.(c) <- indeg.(c) - 1;
                  if indeg.(c) = 0 then Heap.push heap ~key:rep.(c) c)
                sconsumers.(s);
              drain ()
        in
        drain ();
        let total_members = Array.fold_left (fun acc ms -> acc + List.length ms) 0 batches in
        if !emitted <> nsup - total_members then
          failwith "Opt.superword: contracted graph not covered";
        let outputs = List.map (fun (nm, r) -> (nm, map.(r))) p.Program.outputs in
        (Program.Builder.finish b ~outputs, map, !merged, !dissolved)
      end
    end

end

let same_superword ?min_batch ~kinds p =
  let q, map = Opt.superword ?min_batch ~kinds p in
  let q', map', _, dissolved = Ref_superword.superword_pass ?min_batch ~kinds p in
  (Program.hash q = Program.hash q' && map = map', dissolved)

let test_superword_matches_reference () =
  (* All four apps' five frame streams at O0 and O1, both kinds.  Some
     of them must need the repair, or the comparison proves nothing
     about it. *)
  let dissolved = ref 0 in
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun opt_level ->
          let f = Orianna.Pipeline.frame ~opt_level app ~seed:bench_seed in
          List.iter
            (fun (name, p) ->
              List.iter
                (fun (kinds, label) ->
                  let same, d = same_superword ~kinds p in
                  dissolved := !dissolved + d;
                  Alcotest.(check bool)
                    (Printf.sprintf "%s O%d %s superword %s = reference" app.App.name opt_level
                       name label)
                    true same)
                [ (`Mul, "mul"); (`All, "all") ])
            ((("application", f.Orianna.Pipeline.program) :: f.Orianna.Pipeline.algo_programs)
            @ [ ("dense", f.Orianna.Pipeline.dense_program) ]))
        [ 0; 1 ])
    App.all;
  Alcotest.(check bool)
    (Printf.sprintf "the repair dissolved batches (%d)" !dissolved)
    true (!dissolved > 0)

(* Graphs of 10-30 variables with two links per variable: about a
   third of them need the repair (2-7 variables with one link per
   variable: about 1 in 200), and each of those tells a repair that
   dissolves the highest-rep blocked batch, not the lowest, from the
   reference. *)
let test_superword_matches_reference_random () =
  let dissolving = ref 0 in
  let prop =
    QCheck.Test.make ~name:"opt: superword repair = rebuild-per-dissolve reference" ~count:40
      QCheck.(
        make
          Gen.(pair (int_range 0 1_000_000) (int_range 10 30))
          ~print:Print.(pair int int))
      (fun (seed, nvars) ->
        let p = Compile.compile ~opt_level:0 (random_linear_graph ~links:2 seed nvars) in
        List.for_all
          (fun kinds ->
            let same, dissolved = same_superword ~min_batch:2 ~kinds p in
            if dissolved > 0 then incr dissolving;
            same)
          [ `Mul; `All ])
  in
  QCheck.Test.check_exn ~rand:(QCheck_base_runner.random_state ()) prop;
  Alcotest.(check bool)
    (Printf.sprintf "some cases dissolved a batch (%d)" !dissolving)
    true (!dissolving > 0)

(* ------------------------------------------------------------------ *)
(* List scheduler: per-class heaps vs the ready-list scan               *)

(* Verbatim copy of the scan-based [Opt.list_schedule] that the
   per-class two-heap version replaced, kept as the reference the new
   one must match exactly: same issue order, same makespan. *)
module Ref_list_schedule = struct
  open Opt

  let list_schedule ~(cost_model : cost_model) ?stalls (p : Program.t) =
    let cm = cost_model in
    let instrs = p.Program.instrs in
    let n = Array.length instrs in
    (match stalls with
    | Some s when Array.length s <> n -> invalid_arg "Opt.list_schedule: stalls length mismatch"
    | _ -> ());
    let src_shape s = (instrs.(s).Instr.rows, instrs.(s).Instr.cols) in
    let lat = Array.init n (fun i -> max 1 (cm.latency instrs.(i) ~src_shape)) in
    let cls =
      Array.init n (fun i ->
          let c = cm.class_of instrs.(i).Instr.op in
          if c < 0 || c >= cm.classes then invalid_arg "Opt.list_schedule: class out of range";
          c)
    in
    let w i = lat.(i) + match stalls with Some s -> s.(i) | None -> 0 in
    let prio = Array.init n w in
    for i = n - 1 downto 0 do
      Array.iter
        (fun s -> if prio.(s) < prio.(i) + w s then prio.(s) <- prio.(i) + w s)
        instrs.(i).Instr.srcs
    done;
    let indeg = Array.make n 0 and consumers = Array.make n [] in
    for i = 0 to n - 1 do
      Array.iter
        (fun s ->
          indeg.(i) <- indeg.(i) + 1;
          consumers.(s) <- i :: consumers.(s))
        instrs.(i).Instr.srcs
    done;
    let port_free = Array.init cm.classes (fun c -> Array.make (max 1 cm.ports.(c)) 0) in
    let earliest_port c =
      let free = port_free.(c) in
      let k = ref 0 in
      for j = 1 to Array.length free - 1 do
        if free.(j) < free.(!k) then k := j
      done;
      !k
    in
    let dep_ready = Array.make n 0 in
    let ready = ref [] in
    for i = n - 1 downto 0 do
      if indeg.(i) = 0 then ready := i :: !ready
    done;
    let order = Array.make n 0 in
    let makespan = ref 0 in
    for pos = 0 to n - 1 do
      let best = ref (-1) and best_start = ref max_int in
      List.iter
        (fun i ->
          let st = max dep_ready.(i) port_free.(cls.(i)).(earliest_port cls.(i)) in
          if
            st < !best_start
            || st = !best_start
               && (!best < 0 || prio.(i) > prio.(!best) || (prio.(i) = prio.(!best) && i < !best))
          then begin
            best := i;
            best_start := st
          end)
        !ready;
      let i = !best in
      if i < 0 then failwith "Opt.list_schedule: no ready instruction (cycle?)";
      ready := List.filter (fun j -> j <> i) !ready;
      let k = earliest_port cls.(i) in
      let start = max dep_ready.(i) port_free.(cls.(i)).(k) in
      let fin = start + lat.(i) in
      port_free.(cls.(i)).(k) <- fin;
      if fin > !makespan then makespan := fin;
      order.(pos) <- i;
      List.iter
        (fun c ->
          if fin > dep_ready.(c) then dep_ready.(c) <- fin;
          indeg.(c) <- indeg.(c) - 1;
          if indeg.(c) = 0 then ready := c :: !ready)
        consumers.(i)
    done;
    (order, !makespan)
end

let same_schedule ~cost_model ?stalls p =
  Opt.Testing.list_schedule ~cost_model ?stalls p
  = Ref_list_schedule.list_schedule ~cost_model ?stalls p

(* Either cost surface with 1-4 ports per class. *)
let random_cost_model rng =
  if Rng.int rng 2 = 0 then
    {
      Opt.static_cost_model with
      Opt.ports = Array.init Opt.static_cost_model.Opt.classes (fun _ -> 1 + Rng.int rng 4);
    }
  else
    Accel.cost_model
      (Accel.make ~name:"random"
         ~counts:(List.map (fun cls -> (cls, 1 + Rng.int rng 4)) Orianna_hw.Unit_model.all_classes)
         ())

let sched_case =
  QCheck.(
    make
      Gen.(triple (int_range 0 1_000_000) (int_range 2 7) (int_range 0 1_000_000))
      ~print:Print.(triple int int int))

let prop_list_schedule_matches_scan =
  QCheck.Test.make ~name:"opt: heap list scheduler = ready-list scan (order, makespan)"
    ~count:300 sched_case (fun (seed, nvars, variant) ->
      let rng = Rng.of_int variant in
      let cost_model = random_cost_model rng in
      List.for_all
        (fun opt_level ->
          let p = Compile.compile ~opt_level (random_linear_graph seed nvars) in
          let stalls =
            if Rng.int rng 2 = 0 then None
            else Some (Array.init (Program.length p) (fun _ -> Rng.int rng 64))
          in
          same_schedule ~cost_model ?stalls p)
        [ 0; 1 ])

let test_list_schedule_apps () =
  (* Every app's O0, O1 and measured O3 stream, under both cost
     surfaces, with and without the stall vector the cycle simulator
     measures. *)
  let accel = Accel.base () in
  List.iter
    (fun (app : App.t) ->
      let graphs = app.App.graphs (Rng.of_int bench_seed) in
      List.iter
        (fun opt_level ->
          let p =
            Opt_loop.optimize ~level:opt_level (Compile.compile_application ~opt_level graphs)
          in
          let stalls =
            Orianna_sim.Trace.operand_stalls p (Schedule.run ~accel ~policy:Schedule.Ooo_full p)
          in
          List.iter
            (fun (model, cost_model) ->
              List.iter
                (fun (with_stalls, stalls) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s O%d, %s model, %s" app.App.name opt_level model with_stalls)
                    true
                    (same_schedule ~cost_model ?stalls p))
                [ ("no stalls", None); ("measured stalls", Some stalls) ])
            [ ("static", Opt.static_cost_model); ("base accel", Accel.cost_model accel) ])
        [ 0; 1; 3 ])
    App.all

(* ------------------------------------------------------------------ *)
(* Golden snapshots                                                    *)

(* Default resolution works whether the exe runs from the test dir
   (dune runtest) or the repo root (dune exec test/test_isa_opt.exe);
   ORIANNA_GOLDEN_DIR overrides both. *)
let golden_dir () =
  match Sys.getenv_opt "ORIANNA_GOLDEN_DIR" with
  | Some d -> d
  | None -> if Sys.file_exists "golden" then "golden" else "test/golden"

let histogram_json p =
  Json.Obj (List.map (fun (op, n) -> (op, Json.int n)) (Program.stats p).Program.by_opcode)

(* Compare [actual] against golden/<prefix><app>.json, or rewrite the
   file when ORIANNA_UPDATE_GOLDEN=1. *)
let check_golden ~what ~prefix (app : App.t) actual =
  let path =
    Filename.concat (golden_dir ()) (prefix ^ String.lowercase_ascii app.App.name ^ ".json")
  in
  if Sys.getenv_opt "ORIANNA_UPDATE_GOLDEN" = Some "1" then begin
    let oc = open_out path in
    output_string oc (Json.to_string actual);
    output_char oc '\n';
    close_out oc
  end
  else begin
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let expected = Json.parse contents in
    if expected <> actual then
      Alcotest.failf
        "%s: %s drifted from %s.@.expected %s@.got      %s@.If the change is intentional, \
         regenerate with:@.  ORIANNA_UPDATE_GOLDEN=1 ORIANNA_GOLDEN_DIR=test/golden dune exec \
         test/test_isa_opt.exe"
        app.App.name what path (Json.to_string expected) (Json.to_string actual)
  end

let test_golden (app : App.t) () =
  let _, p0, p1 = compiled_at_levels app in
  check_golden ~what:"opcode histogram" ~prefix:"isa_opt_" app
    (Json.Obj [ ("O0", histogram_json p0); ("O1", histogram_json p1) ])

(* The five streams of one -O 3 frame (the compiler's O1, then the
   measured Opt_loop), pinned by content hash and by their cycles on
   the base accelerator: an optimizer change that claims identical
   output must leave these untouched. *)
let test_golden_o3_streams (app : App.t) () =
  let f = Orianna.Pipeline.frame ~opt_level:3 app ~seed:bench_seed in
  let accel = Accel.base () in
  let entry (name, p) =
    ( name,
      Json.Obj
        [
          ("hash", Json.Str (Printf.sprintf "%08lx" (Program.hash p)));
          ("cycles", Json.int (Schedule.run ~accel ~policy:Schedule.Ooo_full p).Schedule.cycles);
        ] )
  in
  check_golden ~what:"O3 stream" ~prefix:"o3_streams_" app
    (Json.Obj
       (List.map entry
          ((("application", f.Orianna.Pipeline.program)
           :: List.map (fun (name, p) -> ("algo:" ^ name, p)) f.Orianna.Pipeline.algo_programs)
          @ [ ("dense", f.Orianna.Pipeline.dense_program) ])))

(* ------------------------------------------------------------------ *)
(* Encode round trip / CRC trailer / cache keys on optimized programs  *)

let symbolic_program ~opt_level () =
  let open Orianna_fg in
  let open Orianna_factors in
  let open Orianna_lie in
  let g = Graph.create () in
  let rng = Rng.of_int 8 in
  let p0 = Pose3.random rng ~scale:1.0 in
  let p1 = Pose3.random rng ~scale:1.0 in
  Graph.add_variable g "x0" (Var.Pose3 p0);
  Graph.add_variable g "x1" (Var.Pose3 p1);
  Graph.add_factor g (Pose_factors.prior3 ~name:"prior" ~var:"x0" ~z:p0 ~sigma:0.01);
  Graph.add_factor g
    (Pose_factors.between3 ~name:"odo" ~a:"x0" ~b:"x1" ~z:(Pose3.ominus p1 p0) ~sigma:0.05);
  Graph.add_factor g (Pose_factors.gps3 ~name:"gps" ~var:"x1" ~z:(Pose3.translation p1) ~sigma:0.1);
  Compile.compile ~opt_level g

let same_outputs a b =
  List.for_all (fun (name, va) -> Vec.equal ~eps:1e-12 va (List.assoc name b)) a

let test_encode_roundtrip_optimized () =
  let p = symbolic_program ~opt_level:1 () in
  let p' = Encode.decode (Encode.encode p) in
  Alcotest.(check bool) "same outputs" true (same_outputs (Program.run p) (Program.run p'));
  Alcotest.(check int32) "hash survives the wire" (Program.hash p) (Program.hash p')

let test_encode_kernel_roundtrip_optimized () =
  (* Kernel closures need a resolve registry on decode; CSE/DCE must
     keep every live kernel instruction addressable by name. *)
  let p = Compile.compile_application ~opt_level:1 (App.quadrotor.App.graphs (Rng.of_int 4)) in
  let registry = Hashtbl.create 16 in
  Array.iter
    (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Kernel k -> Hashtbl.replace registry k.Instr.kname k
      | _ -> ())
    p.Program.instrs;
  let resolve name =
    match Hashtbl.find_opt registry name with
    | Some k -> k
    | None -> raise (Encode.Decode_error ("missing " ^ name))
  in
  let p' = Encode.decode ~resolve (Encode.encode p) in
  Alcotest.(check bool) "same outputs" true (same_outputs (Program.run p) (Program.run p'))

let test_crc_trailer_on_optimized () =
  let p = Compile.compile_application ~opt_level:1 (App.manipulator.App.graphs (Rng.of_int 5)) in
  let img = Encode.encode_checksummed p in
  (match Encode.verify img with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "clean image rejected: %s" msg);
  let corrupt = Bytes.of_string img in
  Bytes.set corrupt (Bytes.length corrupt / 2)
    (Char.chr (Char.code (Bytes.get corrupt (Bytes.length corrupt / 2)) lxor 0x10));
  Alcotest.(check bool) "corruption detected" true
    (match Encode.verify (Bytes.to_string corrupt) with Ok _ -> false | Error _ -> true)

let test_hash_changes_structural_key_does_not () =
  (* The serving cache's contract: optimization changes the compiled
     artifact (Program.hash) but not the template (structural key) —
     so the cache keys on the pair (structural key, opt_level). *)
  let graphs = App.mobile_robot.App.graphs (Rng.of_int bench_seed) in
  let graphs' = App.mobile_robot.App.graphs (Rng.of_int (bench_seed + 1)) in
  let p0 = Compile.compile_application ~opt_level:0 graphs in
  let p1 = Compile.compile_application ~opt_level:1 graphs in
  Alcotest.(check bool) "Program.hash changes under optimization" true
    (Program.hash p0 <> Program.hash p1);
  Alcotest.(check int32) "structural key ignores values and optimization"
    (Cache.structural_key ~opt_level:1 graphs)
    (Cache.structural_key ~opt_level:1 graphs');
  Alcotest.(check bool) "opt_level is part of the cache key" true
    (Cache.structural_key ~opt_level:0 graphs <> Cache.structural_key ~opt_level:1 graphs)

(* ------------------------------------------------------------------ *)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "isa_opt"
    [
      ( "differential",
        List.map
          (fun (a : App.t) ->
            Alcotest.test_case a.App.name `Quick (test_app_differential a))
          App.all
        @ [
            Alcotest.test_case "reduction floor" `Quick test_reduction_floor;
            Alcotest.test_case "schedule invariants at O1" `Quick
              test_schedule_invariants_on_optimized;
            Alcotest.test_case "stall-weighted reorder" `Quick
              test_stall_weighted_reorder_equivalent;
          ]
        @ List.map
            (fun (a : App.t) ->
              Alcotest.test_case (a.App.name ^ " levels agree") `Quick (test_levels_agree a))
            App.all );
      ( "o3",
        [
          Alcotest.test_case "superword equivalence" `Quick test_superword_app_equivalent;
          Alcotest.test_case "superword repair = reference" `Quick
            test_superword_matches_reference;
          Alcotest.test_case "cycle monotonicity O0..O3" `Quick test_o3_monotone_cycles;
          Alcotest.test_case "cycle reduction floor" `Quick test_cycle_reduction_floor;
          Alcotest.test_case "each stream measured once" `Quick
            test_o3_measures_each_stream_once;
          Alcotest.test_case "counters mirror the report" `Quick test_counters_mirror_report;
        ]
        @ List.map
            (fun (a : App.t) ->
              Alcotest.test_case (a.App.name ^ " O0 vs O3") `Quick (test_o3_differential a))
            App.all );
      ( "properties",
        qcheck
          (List.map (fun (name, pass) -> prop_pass name pass) passes
          @ [ prop_pipeline; prop_superword ])
        @ [
            Alcotest.test_case "opt: superword repair = rebuild-per-dissolve reference" `Quick
              test_superword_matches_reference_random;
          ]
        @ qcheck [ prop_o3_fixpoint ] );
      ( "list-sched",
        Alcotest.test_case "apps O0/O1/O3" `Quick test_list_schedule_apps
        :: qcheck [ prop_list_schedule_matches_scan ] );
      ( "golden",
        List.map
          (fun (a : App.t) -> Alcotest.test_case a.App.name `Quick (test_golden a))
          App.all
        @ List.map
            (fun (a : App.t) ->
              Alcotest.test_case (a.App.name ^ " O3 streams") `Quick (test_golden_o3_streams a))
            App.all );
      ( "encode",
        [
          Alcotest.test_case "roundtrip optimized" `Quick test_encode_roundtrip_optimized;
          Alcotest.test_case "kernel roundtrip optimized" `Quick
            test_encode_kernel_roundtrip_optimized;
          Alcotest.test_case "crc trailer optimized" `Quick test_crc_trailer_on_optimized;
          Alcotest.test_case "hash vs structural key" `Quick
            test_hash_changes_structural_key_does_not;
        ] );
    ]
