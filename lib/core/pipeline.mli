(** The end-to-end ORIANNA pipeline (Fig. 2): application graphs ->
    compiled instruction stream -> generated accelerator -> cycle-level
    execution, plus every baseline execution model run on the same
    workload. *)

open Orianna_fg
open Orianna_isa
open Orianna_hw
open Orianna_sim
open Orianna_baselines
module App = Orianna_apps.App

val se3_construct_scale : float
(** Construction-phase arithmetic inflation of an SE(3)-style software
    stack relative to the unified representation — measured by the
    sphere benchmark (Sec. 4.3); conventional CPU baselines pay it. *)

val generate :
  ?budget:Resource.t ->
  ?objective:[ `Latency | `Energy ] ->
  ?policy:Schedule.policy ->
  Program.t ->
  Dse.result
(** Hardware generation under a resource constraint (Equ. 5): greedy
    template replication / QR widening, evaluated by the cycle-level
    simulator under the given issue policy (default: OoO, latency
    objective, full ZC706 budget). *)

val generate_multi :
  ?budget:Resource.t ->
  objective:[ `Mean_latency | `Tail_latency | `Energy ] ->
  Program.t list ->
  Dse.result
(** Multi-frame generation (Sec. 6.2's alternative user goals): the
    objective aggregates over a set of frame programs — the mean for
    average frame latency, the max for the long-tail goal the paper
    mentions, or total energy. *)

type frame = {
  app : App.t;
  graphs : (string * Graph.t) list;  (** one frame's three algorithm graphs *)
  program : Program.t;  (** the merged application stream *)
  algo_programs : (string * Program.t) list;  (** per-algorithm streams *)
  dense_program : Program.t;  (** the VANILLA-HLS lowering *)
  opt_report : Opt.report;
      (** [program]'s measured passes from O1 (empty below [-O 2]) *)
}

val frame : ?opt_level:int -> App.t -> seed:int -> frame
(** Build and compile one frame of an application at [opt_level]
    (default 1), each of its five streams by the one recipe of the
    level contract in {!Orianna_isa.Opt}.  The streams are independent,
    so they fan out over the domain pool ({!Orianna_par.Pool}), one
    slot each; called from inside another pool task (for example
    {!Experiments}' per-app evaluations) or at one job, they run
    sequentially on the calling domain.  The result is identical at
    any job count. *)

type evaluation = {
  eframe : frame;
  accel : Accel.t;  (** DSE-generated under the ZC706 budget *)
  ooo : Schedule.result;  (** ORIANNA-OoO *)
  ooo_fine : Schedule.result;  (** fine-grained-only OoO *)
  io : Schedule.result;  (** ORIANNA-IO *)
  arm : Cpu_model.result;
  intel : Cpu_model.result;
  orianna_sw : Cpu_model.result;  (** Intel running the unified representation *)
  gpu : Gpu_model.result;
  vanilla_accel : Accel.t;  (** generated for the dense lowering *)
  vanilla : Schedule.result;
  stack : (string * Accel.t * Schedule.result) list;  (** dedicated accel per algorithm *)
}

val evaluate : App.t -> seed:int -> evaluation
(** Run the whole comparison matrix for one application frame. *)

val stack_latency : evaluation -> float
(** STACK frame latency: the three dedicated accelerators run in
    parallel, so the frame takes as long as the slowest algorithm. *)

val stack_energy : evaluation -> float
(** STACK frame energy: every stacked accelerator burns static power
    for the whole frame plus its own dynamic energy. *)

val stack_resources : evaluation -> Resource.t
