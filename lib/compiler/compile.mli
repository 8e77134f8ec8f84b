(** The ORIANNA compiler (Sec. 5.2).

    Translates a factor graph into one Gauss-Newton iteration's
    instruction stream:

    + every symbolic factor's MO-DFG is traversed forward (emitting
      the error instructions that build the RHS vector [b]) and
      backward (emitting the derivative instructions that build the
      coefficient blocks of [A]); native factors lower to an opaque
      [Kernel] instruction plus block extracts;
    + the factor graph is traversed in elimination order, emitting
      [Assemble] / [Qr] / [Extract] instructions per variable
      (Fig. 5);
    + back-substitution instructions are emitted in reverse order
      (Fig. 6).

    The compiled program is closed over the current estimate and the
    measurements (they appear as [Load] instructions), so executing it
    with {!Orianna_isa.Program.run} reproduces exactly the update the
    software solver would compute — a property the test suite
    checks. *)

open Orianna_fg
open Orianna_isa

val compile :
  ?algo:int ->
  ?prefix:string ->
  ?ordering:Ordering.strategy ->
  ?cse:bool ->
  ?opt_level:int ->
  Graph.t ->
  Program.t
(** Compile one iteration.  [algo] tags every instruction (for
    coarse-grained out-of-order execution across algorithms);
    [prefix] namespaces the output variable names; [cse] (default
    true) enables the local value numbering that shares pure
    operations on identical sources — the knob the ablation study
    flips.  [opt_level] (default 1) runs the post-hoc
    {!Orianna_isa.Opt} pass pipeline (global CSE, peephole fusion,
    DCE, latency-aware reorder) over the finished stream; 0 turns it
    off, and every level above 1 means 1 (the level contract in
    {!Orianna_isa.Opt}; the same holds for each lowering below). *)

val compile_application :
  ?ordering:Ordering.strategy -> ?cse:bool -> ?opt_level:int -> (string * Graph.t) list -> Program.t
(** Compile several algorithms of one robotic application into a
    single stream: algorithm [i] gets [algo = i] and its outputs are
    prefixed ["name/"].  [opt_level] is applied to the concatenated
    stream, so CSE also merges duplicates across algorithms. *)

val compile_iterations :
  ?algo:int ->
  ?prefix:string ->
  ?ordering:Ordering.strategy ->
  ?opt_level:int ->
  iterations:int ->
  Graph.t ->
  Program.t
(** Unroll [iterations] Gauss-Newton iterations into one stream,
    including the {e update phase} of Fig. 3: after each solve, retract
    instructions ([Expm] + [Gemm] for orientations, [Vadd] for
    positions and vectors) produce the next iteration's variable
    inputs, so the whole optimization runs on the accelerator without
    host round-trips.  Outputs are the final iteration's deltas —
    equal to what the software solver computes at the same point. *)

val compile_dense : ?algo:int -> ?prefix:string -> ?opt_level:int -> Graph.t -> Program.t
(** The VANILLA-HLS lowering (Sec. 7.1): identical construction
    instructions, but no factor-graph inference — the whole sparse
    system is assembled into one big dense matrix, decomposed with a
    single QR and solved with one big back substitution.  Produces the
    same deltas as {!compile}, at the cost the paper's Figs. 17/18
    illustrate. *)

val compile_dense_application : ?opt_level:int -> (string * Graph.t) list -> Program.t

val iterate :
  ?ordering:Ordering.strategy -> ?max_iterations:int -> ?delta_tol:float -> Graph.t -> int
(** Run full Gauss-Newton by recompiling and {e executing the
    compiled program} each iteration, applying the deltas to the
    graph.  Returns the iteration count.  This is the "accelerator
    semantics" optimization path: it must land on the same optimum as
    {!Orianna_fg.Optimizer.optimize}. *)
