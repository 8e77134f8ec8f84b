open Orianna_isa
open Orianna_hw
open Orianna_sim
open Orianna_baselines
open Orianna_util
module App = Orianna_apps.App
module Compile = Orianna_compiler.Compile
module Graph = Orianna_fg.Graph
module Pool = Orianna_par.Pool

(* Measured by the sphere benchmark: the SE(3) construction pass costs
   ~1.6x the unified one (Sec. 4.3 reports 52.7 % savings ~ 2.1x; our
   reverse-mode unified pass is slightly heavier than the paper's
   hand-derived formulas). *)
let se3_construct_scale = 1.64

let generate ?(budget = Resource.zc706) ?(objective = `Latency) ?(policy = Schedule.Ooo_full)
    program =
  let evaluate accel =
    let r = Schedule.run ~accel ~policy program in
    match objective with `Latency -> r.Schedule.seconds | `Energy -> r.Schedule.energy_j
  in
  Dse.optimize ~budget ~evaluate ()

let generate_multi ?(budget = Resource.zc706) ~objective programs =
  if programs = [] then invalid_arg "Pipeline.generate_multi: no programs";
  let evaluate accel =
    let metrics =
      List.map
        (fun p ->
          let r = Schedule.run ~accel ~policy:Schedule.Ooo_full p in
          match objective with
          | `Mean_latency | `Tail_latency -> r.Schedule.seconds
          | `Energy -> r.Schedule.energy_j)
        programs
    in
    match objective with
    | `Mean_latency | `Energy ->
        List.fold_left ( +. ) 0.0 metrics /. float_of_int (List.length metrics)
    | `Tail_latency -> List.fold_left Float.max 0.0 metrics
  in
  Dse.optimize ~budget ~evaluate ()

type frame = {
  app : App.t;
  graphs : (string * Graph.t) list;
  program : Program.t;
  algo_programs : (string * Program.t) list;
  dense_program : Program.t;
  opt_report : Opt.report;
}

(* Opt's level contract: the compiler applies the static levels,
   [Opt_loop] the measured ones.  The five streams are independent, so
   each is lowered and optimized in its own pool slot, in record
   order. *)
let frame ?(opt_level = 1) (app : App.t) ~seed =
  let graphs = app.App.graphs (Rng.of_int seed) in
  let lowerings =
    ((fun () -> Compile.compile_application ~opt_level graphs)
     :: List.mapi (fun i (_, g) () -> Compile.compile ~algo:i ~opt_level g) graphs)
    @ [ (fun () -> Compile.compile_dense_application ~opt_level graphs) ]
  in
  let streams =
    Pool.parallel_map ~chunk:1
      (fun lower -> Opt_loop.optimize_traced ~level:opt_level (lower ()))
      (Array.of_list lowerings)
  in
  let stream i =
    let p, _, _ = streams.(i) in
    p
  in
  let _, _, opt_report = streams.(0) in
  {
    app;
    graphs;
    program = stream 0;
    algo_programs = List.mapi (fun i (name, _) -> (name, stream (i + 1))) graphs;
    dense_program = stream (Array.length streams - 1);
    opt_report;
  }

type evaluation = {
  eframe : frame;
  accel : Accel.t;
  ooo : Schedule.result;
  ooo_fine : Schedule.result;
  io : Schedule.result;
  arm : Cpu_model.result;
  intel : Cpu_model.result;
  orianna_sw : Cpu_model.result;
  gpu : Gpu_model.result;
  vanilla_accel : Accel.t;
  vanilla : Schedule.result;
  stack : (string * Accel.t * Schedule.result) list;
}

let evaluate app ~seed =
  let eframe = frame app ~seed in
  let accel = (generate eframe.program).Dse.best in
  let run policy = Schedule.run ~accel ~policy eframe.program in
  let vanilla_accel = (generate eframe.dense_program).Dse.best in
  let stack =
    List.map
      (fun (name, p) ->
        let a = (generate p).Dse.best in
        (name, a, Schedule.run ~accel:a ~policy:Schedule.Ooo_full p))
      eframe.algo_programs
  in
  {
    eframe;
    accel;
    ooo = run Schedule.Ooo_full;
    ooo_fine = run Schedule.Ooo_fine;
    io = run Schedule.In_order;
    arm = Cpu_model.run Cpu_model.arm ~construct_flop_scale:se3_construct_scale eframe.program;
    intel = Cpu_model.run Cpu_model.intel ~construct_flop_scale:se3_construct_scale eframe.program;
    orianna_sw = Cpu_model.run Cpu_model.intel eframe.program;
    gpu = Gpu_model.run Gpu_model.jetson_maxwell eframe.program;
    vanilla_accel;
    vanilla = Schedule.run ~accel:vanilla_accel ~policy:Schedule.Ooo_full eframe.dense_program;
    stack;
  }

let stack_latency e =
  List.fold_left (fun acc (_, _, r) -> Float.max acc r.Schedule.seconds) 0.0 e.stack

let stack_energy e =
  let frame_time = stack_latency e in
  List.fold_left
    (fun acc (_, a, r) ->
      acc +. (Accel.static_power_w a *. frame_time) +. r.Schedule.dynamic_energy_j)
    0.0 e.stack

let stack_resources e =
  List.fold_left (fun acc (_, a, _) -> Resource.add acc (Accel.resources a)) Resource.zero e.stack
