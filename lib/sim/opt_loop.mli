(** Profile-guided optimization against the cycle-level scheduler: the
    measured levels O2 and O3 of the level contract in
    {!Orianna_isa.Opt}.

    [Orianna_isa.Opt] owns the passes and the accept-if-better
    fixpoint; this module supplies the measurement: schedule the
    candidate on a concrete accelerator, return the makespan and the
    per-producer operand-stall attribution, and inject the
    accelerator's real cost model ({!Orianna_hw.Accel.cost_model}). *)

open Orianna_isa
open Orianna_hw

val probe : ?accel:Accel.t -> ?policy:Schedule.policy -> unit -> Opt.probe
(** Measurement hook for [Opt.optimize_traced]: [Schedule.run] under
    the given accelerator (default [Accel.base ()]) and policy
    (default [Ooo_full]), paired with
    [Trace.operand_stalls] attribution. *)

val optimize_traced :
  ?accel:Accel.t ->
  ?policy:Schedule.policy ->
  level:int ->
  Program.t ->
  Program.t * int array * Opt.report
(** [Opt.optimize_traced ~level] with this accelerator's cost model and
    a measured probe (default [Accel.base ()] under [Ooo_full]).  At
    [level <= 1]: the input, the identity map and an empty report, and
    no probe runs. *)

val optimize :
  ?accel:Accel.t -> ?policy:Schedule.policy -> level:int -> Program.t -> Program.t
(** {!optimize_traced} without the map and report. *)
