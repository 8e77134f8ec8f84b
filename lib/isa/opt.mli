(** Instruction-stream optimizer: a pass pipeline over {!Program.t}.

    Four passes, each semantics-preserving over {!Program.execute}:

    - {!cse} — global common-subexpression elimination on pure matrix
      ops (including [Load], keyed on the matrix bytes; [Kernel] is
      never merged because closures carry no structural identity).
    - {!fuse} — peephole fusion of adjacent compatible ops
      (scale/negate chains into a single [Scale], add-of-negate into
      [Vsub], transpose-of-transpose and extract-of-assemble
      forwarding, ...).
    - {!dce} — dead-code elimination of instructions whose
      destinations are never live-out (not reachable from
      [p.outputs]).
    - {!reorder} — operand-aware list reorder: a topological
      re-sequencing that hoists long-latency producers, optionally
      weighted by measured per-instruction stall attribution from a
      previous schedule (see [Orianna_sim.Trace.operand_stalls]).

    Every pass returns, besides the rewritten program, a register map
    [map] with [map.(old_id)] = the new register holding the same
    value, or [-1] if the value is no longer computed (dead code).
    The differential-equivalence harness uses these maps to compare
    intermediate values instruction-by-instruction, not just final
    outputs.

    {!optimize_traced} bumps [Orianna_obs] counters once per call,
    from the totals of the {!report} it returns, so they count accepted
    work only (rejected candidates and a whole-stream revert add
    nothing): [isa.opt.cse_merged], [isa.opt.fused],
    [isa.opt.dce_removed], [isa.opt.reorder_moved],
    [isa.opt.superword_merged] mirror the report fields of the same
    name, [isa.opt.instructions_saved] is [before - after] and
    [isa.opt.cycles_saved] is {!cycles_saved}.
    The single passes below ({!cse}, {!fuse}, {!dce}, {!reorder},
    {!superword}) touch no counter.

    {b Levels.}  [-O N] names one stream, which every entry point
    computes as [Opt_loop.optimize ~level:N (Compile.<lowering>
    ~opt_level:N graphs)].  The contract splits at {!last_static_level}:
    + O1 is the only level [Compile] applies: fusion, CSE, DCE and the
      static reorder, unmeasured.  Every [opt_level >= 1] gives O1.
    + [Opt_loop.optimize ~level] alone applies O2 (the measured
      stall-weighted reorder round) and O3 (plus the measured
      fixpoint), on the accelerator and policy its caller names
      (default: base accelerator, [Ooo_full]).  Each step is accepted
      only if it does not cost cycles, and the result never measures
      slower than its input.  At [level <= 1] it returns its input
      unchanged and runs no probe.
    {!optimize_traced} itself takes any level, with or without a probe;
    the tests call it from O0 as an oracle. *)

val clamp_level : int -> int
(** The level [-O n] means: [n] clamped to [0..3]. *)

val last_static_level : int
(** [1]: the last level that needs no accelerator. *)

type report = {
  before : int;  (** instruction count going in *)
  after : int;  (** instruction count coming out *)
  cse_merged : int;  (** duplicates merged by CSE (all rounds) *)
  fused : int;  (** peephole rewrites + forwardings (all rounds) *)
  dce_removed : int;  (** dead instructions removed *)
  reorder_moved : int;  (** instructions whose position changed *)
  superword_merged : int;  (** member ops folded into batched kernels *)
  cycle_deltas : (string * int) list;
      (** per-pass measured (or modeled) cycle savings, in application
          order; positive = cycles saved, rejected candidates are
          labeled and carry the regression they would have cost *)
}

val cycles_saved : report -> int
(** The cycles the accepted passes saved: the positive [cycle_deltas]. *)

type cost_model = {
  classes : int;  (** number of unit classes *)
  class_of : Instr.opcode -> int;  (** opcode -> class index, < [classes] *)
  ports : int array;  (** unit instances per class (issue width) *)
  latency : Instr.t -> src_shape:(int -> int * int) -> int;
      (** per-instruction cycles given a source-shape oracle *)
}
(** Injected hardware cost surface.  [Orianna_isa] cannot depend on
    the hardware layer, so the real per-opcode latencies and
    unit-instance counts of a generated accelerator are threaded in
    through this record — see [Orianna_hw.Accel.cost_model]. *)

val static_cost_model : cost_model
(** One port per class with latencies mirroring the shape (not the
    exact parameters) of [Orianna_hw.Unit_model]. *)

type probe = Program.t -> int * int array
(** A measurement hook: schedule the program on a concrete accelerator
    and return (makespan cycles, per-instruction operand-stall
    attribution as produced by [Orianna_sim.Trace.operand_stalls]).
    See [Orianna_sim.Opt_loop.probe]. *)

val estimate_cycles : ?cost_model:cost_model -> Program.t -> int
(** Modeled makespan: deterministic resource-constrained list
    scheduling under [cost_model] (default {!static_cost_model}).
    Each step issues the ready instruction that can start earliest,
    ties to the higher critical-path priority, then the lower id; per
    unit class, two binary heaps hold the ready instructions, so a
    program of [n] instructions and [e] dependence edges costs
    O(n (log n + classes + ports) + e).  Used as the acceptance metric
    at level 3 when no {!probe} is available. *)

val cse : Program.t -> Program.t * int array
(** Merge structurally identical pure instructions, keeping the first
    occurrence.  [Vadd] operands are canonicalized (exact FP
    commutativity); [Kernel] instructions are never merged. *)

val fuse : Program.t -> Program.t * int array
(** Peephole rewrites to a fixpoint.  Rewritten instructions keep
    their register; forwarded ones are dropped and their consumers
    redirected.  The only rewrite that can perturb rounding is
    [Scale s2 (Scale s1 x)] -> [Scale (s1*s2) x].  One more is exact
    in magnitude but not in sign-of-zero: [Neg (Vsub a b)] ->
    [Vsub b a] turns [-0.] elements into [+0.] wherever [a] and [b]
    agree (the symmetric Vadd/Vsub-of-Neg folds are unaffected).  All
    remaining rewrites are bit-exact under IEEE-754; the harness's
    1e-9 tolerance absorbs both exceptions. *)

val dce : Program.t -> Program.t * int array
(** Remove instructions not backward-reachable from [p.outputs]. *)

val reorder : ?stalls:int array -> ?cost_model:cost_model -> Program.t -> Program.t * int array
(** Without [cost_model]: topologically re-sequence each contiguous
    [algo] run (runs are never interleaved, so the per-algorithm
    partitions seen by [Ooo_fine] scheduling keep their
    first-appearance order), priority = longest latency-weighted path
    to a sink under the static model.  With [cost_model]:
    resource-aware list scheduling over the {e whole} stream — port
    contention on every unit class is modeled with the injected
    instance counts and latencies, and algo runs interleave freely;
    the order is the one {!estimate_cycles} schedules, at the same
    O(n (log n + classes + ports) + e) cost.
    [stalls] (one entry per instruction, as produced by
    [Orianna_sim.Trace.operand_stalls] on {e this} program) adds
    measured operand-stall cycles attributed to each producer to its
    weight.  Raises [Invalid_argument] if [stalls] has the wrong
    length. *)

val superword :
  ?min_batch:int ->
  ?max_batch:int ->
  ?kinds:[ `Mul | `All ] ->
  Program.t ->
  Program.t * int array
(** Batch small independent same-shape ops of the same [algo]/[phase]
    into one wide [Kernel] whose result vertically stacks the member
    results; each member's register becomes an [Extract] of its slice,
    so the traced map proves equivalence member-by-member.  Two ops
    share a batch only if neither transitively depends on the other;
    batches that would still close a cycle through one another are
    dissolved, lowest first member first, until the contracted graph
    is acyclic.
    [`Mul] (default) batches Gemm/Gemv only; [`All] also batches
    elementwise Vadd/Vsub/Scale/Neg through the matmul unit.
    [min_batch] (default 3) and [max_batch] (default 16) bound batch
    sizes.  Batched kernels evaluate members with [Program.eval_op],
    so results are bit-identical. *)

val optimize : ?level:int -> ?cost_model:cost_model -> ?probe:probe -> Program.t -> Program.t
(** [optimize ~level p]: [level <= 0] returns [p] unchanged; [level >=
    1] runs fuse+cse to a fixpoint, then dce, then a statically
    weighted reorder; [level >= 2] adds one measured-stall reorder
    round (requires [probe]); [level >= 3] adds a profile-guided
    fixpoint — resource-aware global reorder under [cost_model] and
    superword batching, each candidate accepted only if cycles
    strictly improve, iterated until no candidate helps.  With a
    [probe] (or at level 3, where the {!estimate_cycles} model stands
    in), every reorder is guarded accept-if-better and the final
    stream is reverted wholesale if it measures slower than the input,
    so optimization can never cost cycles under the measuring
    schedule.  Each stream is measured once: the accepted stream's
    (cycles, stalls) is kept, a reorder candidate that moves nothing
    takes the current stream's measurement, and when fusion, CSE and
    DCE change nothing their result's measurement is the input's.  So
    the probe sees the stream after fusion, CSE and DCE, every
    candidate that changes the stream, and the input only if the
    cleanup changed it.  The fixpoint's three proposers (reorder under
    [cost_model], superword [`Mul], superword [`All]) are pure
    functions of the accepted stream, so one that failed on a stream
    (rejected, or nothing merged) is not run on that stream again.
    Default level is [1]. *)

val optimize_traced :
  ?level:int -> ?cost_model:cost_model -> ?probe:probe -> Program.t -> Program.t * int array * report
(** Like {!optimize} but also returns the composed old->new register
    map and a per-pass {!report}.  The result is re-validated with
    [Program.validate]. *)

val pp_report : Format.formatter -> report -> unit

(** Internals exposed for the test suite only. *)
module Testing : sig
  val list_schedule : cost_model:cost_model -> ?stalls:int array -> Program.t -> int array * int
  (** The scheduler behind {!estimate_cycles} and [reorder ~cost_model]:
      the issue order and the modeled makespan. *)
end
