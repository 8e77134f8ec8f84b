(** Schedule inspection tooling.

    The out-of-order controller's behaviour is easiest to audit
    visually: {!gantt_csv} dumps one row per instruction with its unit
    class, start and finish cycles (load into any spreadsheet/plotting
    tool), and {!utilization_timeline} renders a coarse textual
    heat-strip per unit class. *)

open Orianna_isa

val gantt_csv : Program.t -> Schedule.result -> string
(** Columns: id, opcode, phase, algo, unit, start, finish, cycles. *)

val utilization_timeline : ?width:int -> Program.t -> Schedule.result -> string
(** One line per unit class: time binned into [width] columns
    (default 72), each column a digit 0-9 for the fraction of the bin
    the class was busy ('.' for idle). *)

val to_dot : Program.t -> string
(** GraphViz rendering of the instruction dependency DAG, colored by
    phase (for small programs / documentation). *)

val accel_pid : int
(** The Chrome-trace process id of the accelerator tracks (1; pid 0 is
    the pipeline span track). *)

val chrome_events : Program.t -> Schedule.result -> Orianna_obs.Chrome_trace.event list
(** One duration slice per instruction on one track per unit-class
    {e instance} (derived by replaying the schedule), with
    thread-name/process-name metadata. One simulated cycle maps to one
    trace microsecond. *)

val chrome_trace : Program.t -> Schedule.result -> string
(** {!chrome_events} serialized as a Chrome trace-event JSON object —
    loadable in Perfetto or chrome://tracing. *)

val operand_stalls : Program.t -> Schedule.result -> int array
(** Per-instruction operand-stall attribution: for every instruction
    that had to wait on operands past its earliest issue cycle
    ([issue_base]), the wait is charged to its last-finishing source.
    The resulting array (cycles charged to each {e producer}) is the
    weight vector [Orianna_isa.Opt.reorder] accepts to hoist
    long-latency producers using measured rather than modeled
    latencies. *)
