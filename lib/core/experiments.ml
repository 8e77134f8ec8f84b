open Orianna_util
open Orianna_isa
open Orianna_hw
open Orianna_sim
open Orianna_baselines
module App = Orianna_apps.App
module Sphere = Orianna_apps.Sphere
module Compile = Orianna_compiler.Compile
module Graph = Orianna_fg.Graph
module Elimination = Orianna_fg.Elimination
module Ordering = Orianna_fg.Ordering
module Linear_system = Orianna_fg.Linear_system
module Campaign = Orianna_fault.Campaign
module Pool = Orianna_par.Pool

type context = { seed : int; evals : Pipeline.evaluation list }

(* Per-app evaluation (DSE + schedules + baselines) is the dominant
   cost of [run_all]; the apps are independent, so fan out. *)
let make_context ?(seed = 42) () =
  { seed; evals = Pool.parallel_map_list ~chunk:1 (fun app -> Pipeline.evaluate app ~seed) App.all }

let f2 = Texttable.cell_fx ~decimals:2
let f1 = Texttable.cell_fx ~decimals:1
let f3 = Texttable.cell_fx ~decimals:3

(* ------------------------------------------------------------------ *)

let table1 () =
  let r = Sphere.run () in
  let t =
    Texttable.create
      ~title:
        "Table 1: sphere-benchmark absolute trajectory errors (m).\n\
         (paper: initial 62.7/17.7/0.6/10.0; both optimized rows 0.04/0.007/0.000/0.005)"
      ~headers:[ ""; "Max"; "Mean"; "Min"; "Std" ]
  in
  let row label (e : Sphere.errors) =
    Texttable.add_row t [ label; f3 e.Sphere.max; f3 e.Sphere.mean; f3 e.Sphere.min; f3 e.Sphere.std ]
  in
  row "Initial Error" r.Sphere.initial_errors;
  row "<so(3), T(3)>" r.Sphere.unified.Sphere.errors;
  row "SE(3)" r.Sphere.se3.Sphere.errors;
  Texttable.render t
  ^ Printf.sprintf
      "Construction-phase MACs: unified %d vs SE(3) %d -> %.1f%% saving (paper: 52.7%%).\n\
       Identical optimized accuracy in both representations, as in the paper.\n"
      r.Sphere.unified.Sphere.construct_macs r.Sphere.se3.Sphere.construct_macs
      (100.0 *. r.Sphere.mac_saving)

let table4 () =
  let t =
    Texttable.create ~title:"Table 4: benchmark applications and factor-graph nodes"
      ~headers:[ "Application"; "Loc dim"; "Plan dim"; "Ctrl dims"; "Loc factors"; "Plan factors"; "Ctrl factors" ]
  in
  List.iter
    (fun (a : App.t) ->
      let ld, pd, cd = a.App.variable_dims in
      let lf, pf, cf = a.App.factor_kinds in
      Texttable.add_row t [ a.App.name; ld; pd; cd; lf; pf; cf ])
    App.all;
  Texttable.render t

let table5 ?(missions = 30) () =
  let t =
    Texttable.create
      ~title:
        (Printf.sprintf
           "Table 5: mission success rate over %d missions (paper: 100 / 96.7 / 100 / 93.3, \
            identical for software and ORIANNA)"
           missions)
      ~headers:[ "Application"; "Software"; "ORIANNA" ]
  in
  List.iter
    (fun (a : App.t) ->
      let sw = App.success_rate a ~solver:`Software ~missions in
      let hw = App.success_rate a ~solver:`Compiled ~missions in
      Texttable.add_row t
        [ a.App.name; Printf.sprintf "%.1f%%" (100.0 *. sw); Printf.sprintf "%.1f%%" (100.0 *. hw) ])
    App.all;
  Texttable.render t

(* ------------------------------------------------------------------ *)

let mean xs = Stats.mean (Array.of_list xs)

let fig13 ctx =
  let t =
    Texttable.create
      ~title:
        "Fig. 13: speedup over ARM (paper averages: Intel ~8.2x, GPU ~2.0x, ORIANNA-SW ~9x, \
         IO ~8.5x, OoO 53.5x)"
      ~headers:[ "Application"; "ARM"; "Intel"; "GPU"; "ORIANNA-SW"; "ORIANNA-IO"; "ORIANNA-OoO" ]
  in
  let ratios =
    List.map
      (fun (e : Pipeline.evaluation) ->
        let arm = e.Pipeline.arm.Cpu_model.seconds in
        let r =
          [
            1.0;
            arm /. e.Pipeline.intel.Cpu_model.seconds;
            arm /. e.Pipeline.gpu.Gpu_model.seconds;
            arm /. e.Pipeline.orianna_sw.Cpu_model.seconds;
            arm /. e.Pipeline.io.Schedule.seconds;
            arm /. e.Pipeline.ooo.Schedule.seconds;
          ]
        in
        Texttable.add_row t (e.Pipeline.eframe.Pipeline.app.App.name :: List.map f1 r);
        r)
      ctx.evals
  in
  let avg = List.map (fun i -> mean (List.map (fun r -> List.nth r i) ratios)) [ 0; 1; 2; 3; 4; 5 ] in
  Texttable.add_row t ("Average" :: List.map f1 avg);
  Texttable.render t

let fig14 ctx =
  let t =
    Texttable.create
      ~title:
        "Fig. 14: energy reduction over ARM (paper average: OoO 3.4x over ARM; Intel and GPU \
         consume several-fold more than ARM)"
      ~headers:[ "Application"; "ARM"; "Intel"; "GPU"; "ORIANNA-IO"; "ORIANNA-OoO" ]
  in
  let ratios =
    List.map
      (fun (e : Pipeline.evaluation) ->
        let arm = e.Pipeline.arm.Cpu_model.energy_j in
        let r =
          [
            1.0;
            arm /. e.Pipeline.intel.Cpu_model.energy_j;
            arm /. e.Pipeline.gpu.Gpu_model.energy_j;
            arm /. e.Pipeline.io.Schedule.energy_j;
            arm /. e.Pipeline.ooo.Schedule.energy_j;
          ]
        in
        Texttable.add_row t (e.Pipeline.eframe.Pipeline.app.App.name :: List.map f2 r);
        r)
      ctx.evals
  in
  let avg = List.map (fun i -> mean (List.map (fun r -> List.nth r i) ratios)) [ 0; 1; 2; 3; 4 ] in
  Texttable.add_row t ("Average" :: List.map f2 avg);
  Texttable.render t

let fig15 ctx =
  let t =
    Texttable.create
      ~title:
        "Fig. 15: per-algorithm speedup of ORIANNA-OoO over ARM (paper averages: localization \
         48.2x, planning 50.6x, control 60.7x)"
      ~headers:[ "Application"; "localization"; "planning"; "control" ]
  in
  let per_algo = Hashtbl.create 4 in
  List.iter
    (fun (e : Pipeline.evaluation) ->
      let cells =
        List.map
          (fun (name, p) ->
            let arm = Cpu_model.run Cpu_model.arm ~construct_flop_scale:Pipeline.se3_construct_scale p in
            let sim = Schedule.run ~accel:e.Pipeline.accel ~policy:Schedule.Ooo_full p in
            let speedup = arm.Cpu_model.seconds /. sim.Schedule.seconds in
            Hashtbl.replace per_algo name
              (speedup :: Option.value ~default:[] (Hashtbl.find_opt per_algo name));
            speedup)
          e.Pipeline.eframe.Pipeline.algo_programs
      in
      Texttable.add_row t (e.Pipeline.eframe.Pipeline.app.App.name :: List.map f1 cells))
    ctx.evals;
  let avg =
    List.map
      (fun name -> mean (Option.value ~default:[ 0.0 ] (Hashtbl.find_opt per_algo name)))
      [ "localization"; "planning"; "control" ]
  in
  Texttable.add_row t ("Average" :: List.map f1 avg);
  Texttable.render t

let fig16 ctx =
  let ta =
    Texttable.create
      ~title:
        "Fig. 16a: speedup over Intel (paper: OoO 25.6x over VANILLA-HLS; STACK ~1% faster than \
         OoO)"
      ~headers:[ "Application"; "VANILLA-HLS"; "STACK"; "ORIANNA-IO"; "ORIANNA-OoO" ]
  in
  let tb =
    Texttable.create
      ~title:"Fig. 16b: energy reduction over Intel (paper: OoO 15.1x; 2.9x less than STACK)"
      ~headers:[ "Application"; "VANILLA-HLS"; "STACK"; "ORIANNA-IO"; "ORIANNA-OoO" ]
  in
  let tc =
    Texttable.create
      ~title:
        "Fig. 16c: resource consumption (paper: STACK uses 3.4x LUT / 3.0x FF / 3.2x BRAM / 2.0x \
         DSP of ORIANNA)"
      ~headers:[ "Application"; "Design"; "LUT"; "FF"; "BRAM"; "DSP" ]
  in
  List.iter
    (fun (e : Pipeline.evaluation) ->
      let name = e.Pipeline.eframe.Pipeline.app.App.name in
      let intel_t = e.Pipeline.intel.Cpu_model.seconds in
      let intel_e = e.Pipeline.intel.Cpu_model.energy_j in
      Texttable.add_row ta
        [
          name;
          f2 (intel_t /. e.Pipeline.vanilla.Schedule.seconds);
          f2 (intel_t /. Pipeline.stack_latency e);
          f2 (intel_t /. e.Pipeline.io.Schedule.seconds);
          f2 (intel_t /. e.Pipeline.ooo.Schedule.seconds);
        ];
      Texttable.add_row tb
        [
          name;
          f2 (intel_e /. e.Pipeline.vanilla.Schedule.energy_j);
          f2 (intel_e /. Pipeline.stack_energy e);
          f2 (intel_e /. e.Pipeline.io.Schedule.energy_j);
          f2 (intel_e /. e.Pipeline.ooo.Schedule.energy_j);
        ];
      let resource_row design (r : Resource.t) =
        Texttable.add_row tc
          [
            name;
            design;
            string_of_int r.Resource.lut;
            string_of_int r.Resource.ff;
            string_of_int r.Resource.bram;
            string_of_int r.Resource.dsp;
          ]
      in
      resource_row "ORIANNA" (Accel.resources e.Pipeline.accel);
      resource_row "VANILLA-HLS" (Accel.resources e.Pipeline.vanilla_accel);
      resource_row "STACK" (Pipeline.stack_resources e))
    ctx.evals;
  (* Average STACK / ORIANNA resource ratio. *)
  let ratios =
    List.map
      (fun (e : Pipeline.evaluation) ->
        let o = Accel.resources e.Pipeline.accel and s = Pipeline.stack_resources e in
        let frac a b = float_of_int a /. float_of_int b in
        [
          frac s.Resource.lut o.Resource.lut;
          frac s.Resource.ff o.Resource.ff;
          frac s.Resource.bram o.Resource.bram;
          frac s.Resource.dsp o.Resource.dsp;
        ])
      ctx.evals
  in
  let avg = List.map (fun i -> mean (List.map (fun r -> List.nth r i) ratios)) [ 0; 1; 2; 3 ] in
  Texttable.render ta ^ Texttable.render tb ^ Texttable.render tc
  ^ Printf.sprintf "STACK / ORIANNA average resource ratio: LUT %.1fx FF %.1fx BRAM %.1fx DSP %.1fx\n"
      (List.nth avg 0) (List.nth avg 1) (List.nth avg 2) (List.nth avg 3)

(* ------------------------------------------------------------------ *)
(* Figs. 17/18: matrix-operation size and density on the mobile robot. *)

let qr_shapes (p : Program.t) =
  Array.to_list p.Program.instrs
  |> List.filter_map (fun (i : Instr.t) ->
         match i.Instr.op with
         | Instr.Qr ->
             let src = p.Program.instrs.(i.Instr.srcs.(0)) in
             Some (src.Instr.rows, src.Instr.cols)
         | _ -> None)

let mobile_robot_algo_data seed =
  let graphs = App.mobile_robot.App.graphs (Rng.of_int seed) in
  List.map
    (fun (name, g) ->
      let orianna_program = Compile.compile g in
      let dense_program = Compile.compile_dense g in
      (* Density of the factor-graph path: census of the eliminated
         dense blocks.  Density of the dense path: the assembled A. *)
      let order =
        Ordering.compute Ordering.Min_degree ~vars:(Graph.variables g)
          ~factor_scopes:(Graph.factor_scopes g)
      in
      let lin = Graph.linearize g in
      let census = (Elimination.eliminate ~order ~dims:(Graph.dims g) lin).Elimination.census in
      let asm = Linear_system.assemble ~var_order:(Graph.variables g) ~dims:(Graph.dims g) lin in
      (name, orianna_program, dense_program, census, asm))
    graphs

let fig17 ctx =
  let t =
    Texttable.create
      ~title:
        "Fig. 17: matrix-operation (QR) sizes, mobile robot (paper: localization 147x90 dense vs \
         11.1x smaller ORIANNA blocks; planning max 41x12)"
      ~headers:[ "Algorithm"; "VANILLA-HLS size"; "ORIANNA max"; "ORIANNA mean cells"; "reduction" ]
  in
  List.iter
    (fun (name, orianna_program, dense_program, _census, _asm) ->
      let dense_shape = List.hd (qr_shapes dense_program) in
      let shapes = qr_shapes orianna_program in
      let max_shape =
        List.fold_left (fun (am, an) (m, n) -> if m * n > am * an then (m, n) else (am, an)) (0, 0)
          shapes
      in
      let mean_cells = mean (List.map (fun (m, n) -> float_of_int (m * n)) shapes) in
      let dm, dn = dense_shape in
      let reduction = float_of_int (dm * dn) /. mean_cells in
      Texttable.add_row t
        [
          name;
          Printf.sprintf "%dx%d" dm dn;
          Printf.sprintf "%dx%d" (fst max_shape) (snd max_shape);
          f1 mean_cells;
          f1 reduction ^ "x";
        ])
    (mobile_robot_algo_data ctx.seed);
  Texttable.render t

let fig18 ctx =
  let t =
    Texttable.create
      ~title:
        "Fig. 18: matrix-operation density, mobile robot (paper: localization 5.3% dense system \
         vs 58.5% average ORIANNA blocks)"
      ~headers:[ "Algorithm"; "VANILLA-HLS density"; "ORIANNA mean density"; "improvement" ]
  in
  List.iter
    (fun (name, _op, _dp, census, asm) ->
      let dense_density = Orianna_linalg.Assembly.density asm in
      let block_density =
        mean (List.map (fun (c : Elimination.census_entry) -> c.Elimination.density) census)
      in
      Texttable.add_row t
        [
          name;
          Printf.sprintf "%.1f%%" (100.0 *. dense_density);
          Printf.sprintf "%.1f%%" (100.0 *. block_density);
          f1 (block_density /. dense_density) ^ "x";
        ])
    (mobile_robot_algo_data ctx.seed);
  Texttable.render t

(* ------------------------------------------------------------------ *)
(* Figs. 19/20: constrained generation vs manual designs.              *)

(* Plausible hand designs: fixed allocation shapes scaled up until the
   budget is hit. *)
let manual_shapes =
  [
    ("manual-balanced", List.map (fun c -> (c, 1)) Unit_model.all_classes);
    ("manual-matmul-heavy", [ (Unit_model.Matmul, 3); (Unit_model.Qr_unit, 1); (Unit_model.Dma, 2) ]);
    ("manual-qr-heavy", [ (Unit_model.Matmul, 1); (Unit_model.Qr_unit, 3); (Unit_model.Dma, 2) ]);
  ]

let manual_designs budget =
  let scale_until_fit shape name =
    let rec grow k best =
      let counts = List.map (fun (c, n) -> (c, max 1 (k * n))) shape in
      let accel = Accel.make ~name ~counts () in
      if Accel.fits accel ~budget then grow (k + 1) (Some accel) else best
    in
    grow 1 None
  in
  List.map (fun (name, shape) -> (name, scale_until_fit shape name)) manual_shapes

(* The base configuration (one unit per class) needs 336 DSPs; the
   sweep starts just above it, like the paper's constrained points. *)
let dsp_sweep = [ 352; 448; 544; 640; 768; 900 ]

let sweep_row ctx ~objective dsp =
  let budget = { Resource.zc706 with Resource.dsp } in
  let programs = List.map (fun (e : Pipeline.evaluation) -> e.Pipeline.eframe.Pipeline.program) ctx.evals in
  let intel_t =
    mean (List.map (fun (e : Pipeline.evaluation) -> e.Pipeline.intel.Cpu_model.seconds) ctx.evals)
  in
  let metric accel =
    mean
      (List.map
         (fun p ->
           let r = Schedule.run ~accel ~policy:Schedule.Ooo_full p in
           match objective with
           | `Latency -> r.Schedule.seconds
           | `Energy -> r.Schedule.energy_j)
         programs)
  in
  let generated =
    (* Multi-start greedy over the averaged objective: the generator
       explores from the base template and from each feasible manual
       allocation, keeping the best design it reaches. *)
    let evaluate accel = metric accel in
    let starts =
      Accel.base ()
      :: List.filter_map (fun (_, a) -> a) (manual_designs budget)
    in
    (* One evaluation cache across the starts: greedy paths from
       different initial allocations revisit the same configurations,
       and the averaged objective is expensive. *)
    let cache = Dse.cache () in
    let results =
      List.filter_map
        (fun init ->
          if Accel.fits init ~budget then Some (Dse.optimize ~budget ~evaluate ~init ~cache ())
          else None)
        starts
    in
    (List.fold_left
       (fun best r -> if r.Dse.objective < best.Dse.objective then r else best)
       (List.hd results) (List.tl results))
      .Dse.best
  in
  let manuals = manual_designs budget in
  let cell accel =
    match objective with
    | `Latency -> f1 (intel_t /. metric accel) ^ "x"
    | `Energy -> f3 (metric accel *. 1e3) ^ " mJ"
  in
  ( string_of_int dsp,
    cell generated,
    List.map
      (fun (name, a) -> (name, match a with Some a -> cell a | None -> "n/a"))
      manuals )

let sweep_table ctx ~objective ~title =
  let rows = Pool.parallel_map_list ~chunk:1 (sweep_row ctx ~objective) dsp_sweep in
  let manual_names = List.map fst manual_shapes in
  let t = Texttable.create ~title ~headers:([ "DSP budget"; "ORIANNA (generated)" ] @ manual_names) in
  List.iter
    (fun (dsp, gen, manuals) -> Texttable.add_row t ([ dsp; gen ] @ List.map snd manuals))
    rows;
  Texttable.render t

let fig19 ctx =
  sweep_table ctx ~objective:`Latency
    ~title:
      "Fig. 19: average speedup over Intel under a DSP constraint — generated vs manual designs \
       (paper: generated is best at every budget)"

let fig20 ctx =
  sweep_table ctx ~objective:`Energy
    ~title:
      "Fig. 20: average frame energy under a DSP constraint, energy-objective generation \
       (paper: generated consumes the least at every budget)"

let breakdown ctx =
  let quad =
    List.find
      (fun (e : Pipeline.evaluation) -> e.Pipeline.eframe.Pipeline.app.App.name = "Quadrotor")
      ctx.evals
  in
  let busy = quad.Pipeline.ooo.Schedule.phase_busy in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 busy in
  let t =
    Texttable.create
      ~title:
        "Sec. 7.3 latency breakdown, quadrotor (paper: decomposition 74%, construction 16%, \
         back substitution 10%)"
      ~headers:[ "Phase"; "busy cycles"; "share" ]
  in
  List.iter
    (fun (ph, c) ->
      Texttable.add_row t
        [
          Instr.phase_name ph;
          string_of_int c;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int c /. float_of_int total);
        ])
    busy;
  let occ =
    Buffer_model.analyze quad.Pipeline.eframe.Pipeline.program quad.Pipeline.ooo
  in
  Texttable.render t
  ^ Printf.sprintf
      "On-chip buffer: peak working set %d words, capacity %d words (%.0f%% occupied at peak)\n"
      occ.Buffer_model.peak_words
      (Buffer_model.capacity_words quad.Pipeline.accel)
      (100.0
      *. float_of_int occ.Buffer_model.peak_words
      /. float_of_int (Buffer_model.capacity_words quad.Pipeline.accel))

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out.                *)

let ablations ctx =
  let base = Accel.base () in
  let t_cse =
    Texttable.create
      ~title:"Ablation A: compiler value numbering (CSE) — instruction count and base-accel OoO latency"
      ~headers:[ "Application"; "instrs CSE"; "instrs no-CSE"; "OoO us CSE"; "OoO us no-CSE" ]
  in
  let t_ord =
    Texttable.create
      ~title:"Ablation B: elimination ordering — compiled flops and base-accel OoO latency"
      ~headers:
        [ "Application"; "min-degree flops"; "natural flops"; "reverse flops"; "min-degree us"; "natural us"; "reverse us" ]
  in
  let t_prio =
    Texttable.create
      ~title:"Ablation C: OoO issue priority — critical-path vs FIFO on the generated accelerator"
      ~headers:[ "Application"; "critical-path us"; "FIFO us"; "penalty" ]
  in
  List.iter
    (fun (e : Pipeline.evaluation) ->
      let name = e.Pipeline.eframe.Pipeline.app.App.name in
      let graphs = e.Pipeline.eframe.Pipeline.graphs in
      (* A: CSE. *)
      let with_cse = e.Pipeline.eframe.Pipeline.program in
      let without_cse = Compile.compile_application ~cse:false graphs in
      let us p = (Schedule.run ~accel:base ~policy:Schedule.Ooo_full p).Schedule.seconds *. 1e6 in
      Texttable.add_row t_cse
        [
          name;
          string_of_int (Program.length with_cse);
          string_of_int (Program.length without_cse);
          f1 (us with_cse);
          f1 (us without_cse);
        ];
      (* B: ordering. *)
      let program_of ordering = Compile.compile_application ~ordering graphs in
      let p_md = with_cse in
      let p_nat = program_of Orianna_fg.Ordering.Natural in
      let p_rev = program_of Orianna_fg.Ordering.Reverse in
      let flops p = (Program.stats p).Program.flops_total in
      Texttable.add_row t_ord
        [
          name;
          string_of_int (flops p_md);
          string_of_int (flops p_nat);
          string_of_int (flops p_rev);
          f1 (us p_md);
          f1 (us p_nat);
          f1 (us p_rev);
        ];
      (* C: scheduler priority. *)
      let run priority =
        (Schedule.run ~priority ~accel:e.Pipeline.accel ~policy:Schedule.Ooo_full with_cse)
          .Schedule.seconds *. 1e6
      in
      let cp = run Schedule.Critical_path and fifo = run Schedule.Fifo in
      Texttable.add_row t_prio
        [ name; f1 cp; f1 fifo; Printf.sprintf "+%.1f%%" (100.0 *. ((fifo /. cp) -. 1.0)) ])
    ctx.evals;
  Texttable.render t_cse ^ Texttable.render t_ord ^ Texttable.render t_prio

let frame_rates ctx =
  (* The paper's motivation (Sec. 1): optimization-based stacks run at
     a few Hz on CPUs.  A frame is 3 Gauss-Newton iterations: CPUs run
     them back to back, the accelerator runs the unrolled 3-iteration
     program (Compile.compile_iterations) whose update phases stay
     on-chip and whose iterations overlap under OoO issue. *)
  let iterations = 3.0 in
  let t =
    Texttable.create
      ~title:
        "Frame rates at 3 GN iterations per frame (paper intro: a LOAM-class localizer reaches \
         ~5 Hz on a desktop CPU); the OoO column runs the unrolled on-chip loop"
      ~headers:[ "Application"; "ARM Hz"; "Intel Hz"; "GPU Hz"; "ORIANNA-OoO Hz" ]
  in
  List.iter
    (fun (e : Pipeline.evaluation) ->
      let hz seconds = 1.0 /. (iterations *. seconds) in
      let unrolled =
        Program.concat
          (List.mapi
             (fun i (name, g) ->
               Compile.compile_iterations ~algo:i ~prefix:(name ^ "/") ~iterations:3 g)
             e.Pipeline.eframe.Pipeline.graphs)
      in
      let sim = Schedule.run ~accel:e.Pipeline.accel ~policy:Schedule.Ooo_full unrolled in
      Texttable.add_row t
        [
          e.Pipeline.eframe.Pipeline.app.App.name;
          f1 (hz e.Pipeline.arm.Cpu_model.seconds);
          f1 (hz e.Pipeline.intel.Cpu_model.seconds);
          f1 (hz e.Pipeline.gpu.Gpu_model.seconds);
          f1 (1.0 /. sim.Schedule.seconds);
        ])
    ctx.evals;
  Texttable.render t

let extension_robust () =
  let config =
    { Sphere.default_config with Sphere.rings = 5; poses_per_ring = 12; seed = 77 }
  in
  let r = Sphere.run_robust ~config ~outlier_fraction:0.12 () in
  let t =
    Texttable.create
      ~title:
        (Printf.sprintf
           "Extension: robust loop closures — %d wild outliers injected into the sphere graph             (plain least squares vs Cauchy M-estimator)"
           r.Sphere.outliers)
      ~headers:[ ""; "Max"; "Mean"; "Min"; "Std" ]
  in
  let row label (e : Sphere.errors) =
    Texttable.add_row t [ label; f3 e.Sphere.max; f3 e.Sphere.mean; f3 e.Sphere.min; f3 e.Sphere.std ]
  in
  row "clean (no outliers)" r.Sphere.clean;
  row "plain least squares" r.Sphere.plain;
  row "Cauchy robust loss" r.Sphere.robust;
  Texttable.render t

let extension_manhattan () =
  let ds = Orianna_apps.Datasets.manhattan Orianna_apps.Datasets.default_config in
  let init = Orianna_apps.Datasets.ate ~truth:ds.Orianna_apps.Datasets.truth ~estimate:ds.Orianna_apps.Datasets.initial in
  let g = Orianna_apps.Datasets.to_graph ds in
  let params =
    { Orianna_fg.Optimizer.default_params with
      Orianna_fg.Optimizer.method_ = Orianna_fg.Optimizer.Levenberg_marquardt }
  in
  let report = Orianna_fg.Optimizer.optimize ~params g in
  let est = Orianna_apps.Datasets.estimate_of g ~n:(Array.length ds.Orianna_apps.Datasets.truth) in
  let final = Orianna_apps.Datasets.ate ~truth:ds.Orianna_apps.Datasets.truth ~estimate:est in
  let t =
    Texttable.create
      ~title:
        (Printf.sprintf
           "Extension: Manhattan-world pose graph (M3500-style, %d poses, %d loop closures)"
           (Array.length ds.Orianna_apps.Datasets.truth)
           (Array.length ds.Orianna_apps.Datasets.loops))
      ~headers:[ ""; "Max"; "Mean"; "Min"; "Std" ]
  in
  let row label (e : Sphere.errors) =
    Texttable.add_row t [ label; f3 e.Sphere.max; f3 e.Sphere.mean; f3 e.Sphere.min; f3 e.Sphere.std ]
  in
  row "Initial Error" init;
  row "Optimized" final;
  Texttable.render t
  ^ Printf.sprintf "LM converged in %d iterations.\n" report.Orianna_fg.Optimizer.iterations

let extension_faults ?(missions = 16) () =
  let t =
    Texttable.create
      ~title:
        (Printf.sprintf "Extension: fault-injection campaigns (%d missions per app, seed 42)"
           missions)
      ~headers:[ "App"; "Injected"; "Detected"; "Recovered"; "Masked"; "Escaped"; "Worst slowdown" ]
  in
  let rows =
    Pool.parallel_map_list ~chunk:1
      (fun (app : App.t) ->
        let frame = Pipeline.frame app ~seed:42 in
        let accel = (Pipeline.generate frame.Pipeline.program).Dse.best in
        let config = { Campaign.default_config with Campaign.missions } in
        let s =
          Campaign.run ~config ~rng:(Rng.of_int 42) ~graphs:frame.Pipeline.graphs
            ~program:frame.Pipeline.program ~accel ()
        in
        let tot = s.Campaign.totals in
        [
          app.App.name;
          string_of_int tot.Campaign.injected;
          string_of_int tot.Campaign.detected;
          string_of_int tot.Campaign.recovered;
          string_of_int tot.Campaign.masked;
          string_of_int tot.Campaign.escaped;
          Printf.sprintf "%.2fx" s.Campaign.worst_slowdown;
        ])
      App.all
  in
  List.iter (Texttable.add_row t) rows;
  Texttable.render t

let extension_serve ?(requests = 200) () =
  let module Serve = Orianna_serve.Serve in
  let module Request = Orianna_serve.Request in
  let module Dispatch = Orianna_serve.Dispatch in
  let module Cache = Orianna_serve.Cache in
  let t =
    Texttable.create
      ~title:
        (Printf.sprintf
           "Extension: serving runtime (%d requests per app, Poisson 20 kHz, seed 42)" requests)
      ~headers:
        [ "App"; "Policy"; "Completed"; "Rejected"; "Cache hit"; "p50 ms"; "p99 ms"; "DL miss" ]
  in
  (* The app x policy cells are independent virtual-clock DES runs
     (each [Serve.run] owns its cache and fleet state) — the whole
     matrix fans out. *)
  let cells =
    List.concat_map
      (fun (app : App.t) ->
        List.map
          (fun policy -> (app, policy))
          [
            Orianna_serve.Dispatch.Fifo;
            Orianna_serve.Dispatch.Edf;
            Orianna_serve.Dispatch.Least_loaded;
          ])
      App.all
  in
  let rows =
    Pool.parallel_map_list ~chunk:1
      (fun ((app : App.t), policy) ->
        let trace = Request.default_trace ~rng:(Rng.of_int 42) ~apps:[ app.App.name ] ~n:requests in
        let config = { Serve.default_config with Serve.policy } in
        let r = Serve.run ~config ~trace () in
        [
          app.App.name;
          Dispatch.policy_name policy;
          string_of_int r.Serve.completed;
          string_of_int (List.length r.Serve.rejections);
          Printf.sprintf "%.1f%%" (100.0 *. Cache.hit_rate r.Serve.cache);
          Printf.sprintf "%.3f" r.Serve.p50_ms;
          Printf.sprintf "%.3f" r.Serve.p99_ms;
          Printf.sprintf "%.1f%%" (100.0 *. r.Serve.deadline_miss_rate);
        ])
      cells
  in
  List.iter (Texttable.add_row t) rows;
  Texttable.render t

let run_all ?(missions = 30) () =
  print_string (table1 ());
  print_newline ();
  print_string (table4 ());
  print_newline ();
  print_string (table5 ~missions ());
  print_newline ();
  let ctx = make_context () in
  List.iter
    (fun f ->
      print_string (f ctx);
      print_newline ())
    [ fig13; fig14; fig15; fig16; fig17; fig18; fig19; fig20; breakdown; frame_rates; ablations ];
  print_string (extension_robust ());
  print_newline ();
  print_string (extension_manhattan ());
  print_newline ();
  print_string (extension_faults ());
  print_newline ();
  print_string (extension_serve ());
  print_newline ()
