(** The multi-tenant serving runtime: a deterministic discrete-event
    simulation of many clients sharing a fleet of generated
    accelerators.

    Layered on the existing pipeline (compile → generate → simulate),
    the runtime adds what one-shot invocation lacks: a
    content-addressed {!Cache} so repeated templates skip compilation
    and hardware generation entirely, a bounded admission queue with
    priority-aware shed-on-overload, and a {!Dispatch} batcher that
    groups same-program requests and routes batches across the fleet
    under a pluggable policy, rerouting around degraded instances.

    With a {!Chaos.config} attached, the fleet additionally suffers
    seeded crash / hang / transient / slowdown faults on the virtual
    clock: heartbeat-based health detection and per-instance circuit
    breakers steer traffic away from sick instances, in-flight work on
    a failed instance is recovered and re-dispatched under a
    per-request retry budget with deadline-aware backoff (optionally
    hedged near the deadline), and instances return after a modelled
    restart latency with a cold compile cache.  Every admitted request
    still ends in exactly one structured terminal state.

    Time is a virtual clock advanced from {!Orianna_sim.Schedule.run}
    makespans, so a campaign is bit-for-bit reproducible from its
    trace: no wall-clock value enters the report.  When telemetry is
    enabled, throughput, latency, queue depth, reroutes, cache and
    fault-tolerance behaviour are mirrored into {!Orianna_obs.Obs}. *)

open Orianna_hw

type config = {
  instances : int;  (** fleet size *)
  masked : (int * Unit_model.unit_class) list;
      (** degraded instances: (fleet index, failed unit class) *)
  policy : Dispatch.policy;
  queue_capacity : int;  (** admission-queue bound (retries are exempt) *)
  max_batch : int;  (** largest same-program batch *)
  batch_overhead_s : float;  (** per-batch dispatch / reconfiguration cost *)
  miss_penalty_s : float;
      (** modeled compile + generate latency charged to the batch that
          triggers a cache miss *)
  cache_capacity : int;
  budget : Resource.t;  (** hardware-generation budget on a miss *)
  opt_level : int;
      (** instruction-stream optimization level used for compiles on a
          cache miss; mixed into the cache key so entries compiled at
          different levels never alias *)
  chaos : Chaos.config option;  (** [None]: fault-free, identical to the pre-chaos DES *)
  max_retries : int;  (** re-dispatches allowed per request copy after a failure *)
  retry_backoff_s : float;  (** base of the exponential retry backoff *)
  hedge : bool;  (** duplicate near-deadline retries; first completion wins *)
  hedge_slack_s : float;  (** remaining slack below which a retry hedges *)
  heartbeat_interval_s : float;  (** one missed heartbeat flips Up -> Suspect *)
  heartbeat_timeout_s : float;  (** hang detection latency (-> Down + failover) *)
  breaker_threshold : int;  (** consecutive failures that trip a closed breaker *)
  breaker_cooldown_s : float;  (** initial open interval; doubles per reopen *)
}

val default_config : config
(** 4 instances, none masked, EDF, queue of 64, batches of 8, 20 µs
    batch overhead, 2 ms miss penalty, 8 cache entries, ZC706, O1; no
    chaos, 2 retries with 100 µs base backoff, hedging off, 250 µs
    heartbeats with a 1 ms timeout, breaker trips at 3 failures with a
    1 ms cooldown. *)

type rejection =
  | Queue_full  (** arrived over a full queue with no lower-priority victim *)
  | Shed_lower_priority  (** evicted from the queue by a higher-priority arrival *)
  | Unservable
      (** unknown app, or no live fleet instance can (or will ever again)
          execute the program *)
  | Failed_after_retries  (** recovered from failed instances until the retry budget ran out *)

val rejection_name : rejection -> string

type completion = {
  request : Request.t;
  instance : int;
  batch : int;
  start_s : float;  (** batch dispatch time *)
  finish_s : float;
  cache_hit : bool;
  rerouted : bool;
  attempts : int;  (** dispatch attempts consumed before this one (0 = first try) *)
  hedged : bool;  (** completed copy was a hedged duplicate *)
}

type batch = {
  bid : int;
  binstance : int;
  bapp : string;
  bsize : int;
  bstart_s : float;
  bfinish_s : float;  (** for a failed batch: the failure time *)
  bhit : bool;
  brerouted : bool;
  bfailed : bool;  (** instance failed mid-batch; uncommitted requests recovered *)
}

type instance_report = {
  iidx : int;
  imasked : string option;  (** failed unit class name *)
  iserved : int;
  ibatches : int;
  ibusy_s : float;
  iutil : float;  (** busy / makespan *)
  idowntime_s : float;  (** unavailable time within the makespan *)
  icrashes : int;
  ihangs : int;
  itransients : int;
  islowdowns : int;
  irestarts : int;
  ibreaker_opens : int;
  icold_batches : int;  (** post-restart batches that paid the cold-cache penalty *)
}

type chaos_report = {
  crashes : int;
  hangs : int;
  transients : int;
  slowdowns : int;
  restarts : int;
  breaker_opens : int;
  cold_batches : int;
  retries : int;  (** recovered copies re-enqueued *)
  failed_after_retries : int;  (** ids whose every copy exhausted the budget *)
  hedges_launched : int;
  hedges_cancelled : int;  (** losing copies cancelled after the first completion *)
  inflight_recovered : int;  (** ids recovered from a failed instance that completed *)
  inflight_lost : int;  (** ids recovered from a failed instance that ended failed *)
  availability : float;  (** 1 - downtime / (instances x makespan), in [0, 1] *)
  transitions : (float * int * string) list;
      (** (virtual time, instance, label) health / breaker transitions, in order *)
}

type report = {
  total : int;
  admitted : int;
  completed : int;
  rejections : (Request.t * rejection) list;  (** rejection order *)
  completions : completion list;  (** request-id order; one per id, always *)
  batches : batch list;  (** dispatch (bid) order *)
  makespan_s : float;
  throughput_rps : float;
  mean_latency_s : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_latency_ms : float;
  deadline_misses : int;
  deadline_miss_rate : float;  (** misses / completed; 0 when none completed *)
  queue_depth_max : int;
  queue_samples : (float * int) list;  (** (virtual time, depth) *)
  rerouted : int;
      (** batches placed away from the policy's first choice; the
          [serve.rerouted] Obs counter is derived from this same count *)
  cache : Cache.stats;
  fleet : instance_report list;
  per_app : (string * int * int) list;  (** app, completed, deadline misses *)
  chaos : chaos_report option;  (** present iff the config carried a chaos model *)
  sessions : Session.report option;  (** present iff a session layer was attached *)
}

val run : ?config:config -> ?sessions:Session.t -> trace:Request.t list -> unit -> report
(** Replay one arrival trace to completion.  Every admitted request
    ends in exactly one terminal state — completed, shed, unservable,
    or failed-after-retries — even under chaos; nothing is lost
    silently, and no request completes twice (hedged duplicates are
    cancelled at the first completion).

    With [sessions] attached, the session layer's mission ticks are
    merged into the trace by arrival time and executed through the
    same queue/batch/dispatch machinery: each tick folds one
    measurement delta into its session's incremental smoother and is
    charged service time proportional to the affected re-elimination
    work on the session's compiled template program.  Without
    [sessions], behavior (and the report, byte for byte) is identical
    to the session-free runtime; tick requests are then rejected as
    unservable. *)

val report_json : report -> Orianna_obs.Json.t
(** Deterministic machine-readable summary (no wall-clock content);
    embedded under ["serve"] in {!Orianna_obs.Report} exports so serve
    and profile reports share one shape. *)

val table : report -> string
(** Human-readable summary tables. *)

val chrome_events : report -> Orianna_obs.Chrome_trace.event list
(** Per-instance batch tracks (failed batches marked) plus queue-depth
    and cumulative deadline-miss counter series and chaos/health
    transition instants (one virtual second maps to one trace
    second). *)

(** Internals exposed for the test suite only. *)
module Testing : sig
  val compile_graphs :
    budget:Resource.t -> opt_level:int -> (string * Orianna_fg.Graph.t) list -> Orianna_isa.Program.t * Dse.result
  (** A cache miss's compile: the [-O opt_level] program and its generated accelerator. *)
end
