(** Deterministic work-stealing domain pool.

    Every fan-out site in the repository (DSE candidate evaluation,
    fault-campaign missions, the experiments/bench matrices, the chaos
    and serve sweeps) is an embarrassingly parallel loop over pure
    work items.  This module runs those loops across OCaml 5 domains
    under a hard contract: {e results are bit-identical for any job
    count and any steal interleaving}.  The contract holds because

    - results are collected into their input slot (ordered), never in
      completion order;
    - work items must not share mutable state (callers split PRNG
      streams with {!Orianna_util.Rng.split_n}; callers with mutable
      fixtures keep one scratch copy per {e lane} via {!self_lane},
      not per chunk — the fault campaign is the worked example);
    - which lane runs a slot affects only {e where} the result is
      computed, never the result: stealing moves slot indices between
      lanes, and every slot's work is a pure function of its input;
    - at [jobs = 1] no domain is spawned — the map degrades to a plain
      sequential [Array.map], which is also the guaranteed fallback
      inside nested calls (a parallel map issued from within a worker
      task runs sequentially rather than deadlocking the pool).

    {2 Scheduling}

    A job's slots are split into one contiguous range per lane
    ({!chunk_ranges} over the lanes).  Each lane claims chunks off the
    {e front} of its own range and, when that is empty, steals chunks
    off the {e back} of the first non-empty victim range (round-robin
    from the next lane).  A range is a single packed [(lo, hi)] int
    updated by CAS, so a slot is handed out exactly once and unclaimed
    work stays visible to every lane until claimed.  Chunk sizes
    follow guided self-scheduling — a [1/(2*lanes)] share of the
    range's remainder — floored by a cost-adaptive minimum: the pool
    measures per-item cost chunk by chunk and aims for roughly 200 µs
    of work per claim, so cheap items get amortized into big chunks
    while expensive items split down to singletons that others can
    steal.  The caller publishes the job before it claims anything, so
    the workers start on their ranges at once; it then works like any
    other lane — slot 0 is an ordinary slot at the front of lane 0's
    range — and {e parks on a condition variable} until the last chunk
    retires.  There is no spin-join, and idle workers sleep between
    jobs on the same mechanism.  Each slot writes its result into its
    own cell; the cells are copied out with [Array.map], which sizes
    its array from the first result, so a float-valued map still
    returns a flat (unboxed) float array.

    Exceptions raised by work items are captured (lowest slot wins)
    and the first one {e in input order} is re-raised with its
    backtrace after all items have settled, so a failing item behaves
    the same at any job count.

    The pool is process-global and sized lazily from, in order of
    precedence: {!set_default_jobs} (the [--jobs]/[-j] CLI flag), the
    [ORIANNA_JOBS] environment variable, and
    [Domain.recommended_domain_count ()].  Worker domains are spawned
    on first use, reused across calls, grown (never shrunk) when a
    larger job count is requested, and joined at process exit. *)

val default_jobs : unit -> int
(** The job count parallel combinators use when [?jobs] is omitted.
    At least 1. *)

val set_default_jobs : int -> unit
(** Override the default job count ([n < 1] is clamped to 1).  The
    CLI's [--jobs]/[-j] flag lands here. *)

val parallel_map : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f xs] is [Array.map f xs] computed on [jobs] domains
    (the caller participates as one lane).  Results keep input order;
    the first failing slot's exception is re-raised.  Sequential when
    [jobs = 1], when [xs] has fewer than two elements, or when called
    from inside another pool task.  [?chunk] seeds the adaptive
    minimum chunk size (use [~chunk:1] when every item is known to be
    expensive; the default starts at 1 item and adapts upward from
    measured cost). *)

val parallel_map_list : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!parallel_map}. *)

val parallel_map_reduce :
  ?jobs:int ->
  ?chunk:int ->
  map:('a -> 'b) ->
  reduce:('b -> 'b -> 'b) ->
  init:'b ->
  'a array ->
  'b
(** Map in parallel, then fold the results {e sequentially in input
    order} — deterministic even for non-associative [reduce]. *)

val self_lane : unit -> int
(** The pool lane executing the current task: 0 on the caller (and
    anywhere outside a pool task), [1..] on worker domains.  A nested
    sequential map keeps the outer lane.  Callers with mutable
    fixtures key one scratch copy per lane off this — lanes run at
    most one slot at a time, so a lane's scratch is never shared. *)

val max_lanes : unit -> int
(** Upper bound on {!self_lane} values that can run tasks right now
    (current pool size + caller, or the default job count before the
    pool exists).  Size per-lane scratch tables with this. *)

val chunk_ranges : chunks:int -> n:int -> (int * int) array
(** [chunk_ranges ~chunks ~n] splits [0..n-1] into at most [chunks]
    contiguous, balanced, half-open ranges [(lo, hi)].  The scheduler
    uses this shape for the initial per-lane ranges; it remains
    available to callers that want a fixed partition. *)

val guided_chunk : lanes:int -> min_chunk:int -> remaining:int -> int
(** The adaptive claim size: [max min_chunk (remaining / (2 * lanes))],
    clamped to [1..remaining] ([0] when [remaining <= 0]).  Exposed for
    the property suite: repeatedly claiming this much off a range
    always partitions it exactly. *)

val shutdown : unit -> unit
(** Join all worker domains.  Called automatically at exit; safe to
    call repeatedly (the pool respawns on next use). *)

(** Test-only scheduler hooks.  [set_victim_order (Some f)] makes
    every lane visit steal victims in the order [f ~lane ~lanes]
    returns (entries outside [0..lanes-1] and the lane itself are
    skipped); [set_chunk_override (Some c)] forces every claim and
    steal to exactly [c] slots (clamped to at least 1), disabling
    adaptation.  Both reset with [None].  The property suite drives
    these through random permutations and chunk sizes to check results
    never depend on the steal schedule. *)
module Testing : sig
  val set_victim_order : (lane:int -> lanes:int -> int array) option -> unit
  val set_chunk_override : int option -> unit
end

(** {1 Instrumentation}

    While the telemetry registry ({!Orianna_obs.Obs}) is enabled,
    every pool run records per-lane metrics: slot, chunk and steal
    counts, busy time, dispatch latency (job publication to the lane's
    first claim), per-slot spans, and per-domain [Gc.quick_stat]
    deltas (minor words allocated, promoted words, minor/major
    collections — minor-heap figures are per-domain in OCaml 5, so
    allocation is attributed to the domain that did the work).  Lane
    [0] is the calling domain; lanes [1..jobs-1] are the worker
    domains.  Each completed run also feeds the registry
    ([pool.runs]/[pool.slots]/[pool.steals] counters and the
    [pool.slot_ms]/[pool.dispatch_ms]/[pool.join_wait_ms] histograms).
    The sequential fallback (jobs = 1, tiny inputs) is recorded too,
    as a single-lane run — [profile --par] compares the same
    workload's sequential and parallel run records to split the
    scaling gap into serial sections, work inflation, pool overhead
    and idle time (see {!Gap}).  A pooled run also gives each slot its
    own {!Orianna_obs.Obs.slot}, so the spans a slot opens end up under
    the span that was open where [parallel_map] was called, in slot
    order, whichever lane ran it.  With the registry disabled, none of
    this exists — the claim loop is the bare CAS plus one clock pair
    per chunk for cost adaptation. *)

type lane_stats = {
  lane : int;
  mutable slots : int;
  mutable chunks : int;  (** claims that ran at least one slot *)
  mutable steals : int;  (** chunks claimed from another lane's range *)
  mutable busy_s : float;
  mutable dispatch_s : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable slot_spans : (int * float * float) list;
      (** (slot index, start, duration), seconds on the {!Orianna_obs.Obs}
          epoch clock, most recent first *)
}

type run_record = {
  run_id : int;
  rjobs : int;
  items : int;
  submit_s : float;
  mutable done_s : float;
  mutable join_wait_s : float;
      (** caller parked on the done condition after its own sweep ran
          dry — pure pool overhead, but a sleep, not a busy-wait *)
  lanes : lane_stats array;  (** indexed by lane; length [rjobs] *)
}

val drain_stats : unit -> run_record list
(** All run records accumulated since the last drain, oldest first.
    The session buffer is cleared. *)

type lane_totals = {
  tlane : int;
  tslots : int;
  tchunks : int;
  tsteals : int;
  tbusy_s : float;
  tdispatch_s : float;
  tminor_words : float;
  tpromoted_words : float;
  tminor_collections : int;
  tmajor_collections : int;
}

type summary = {
  runs : int;
  total_items : int;
  lanes_used : int;
  per_lane : lane_totals array;
  join_wait_total_s : float;
}

val summarize : run_record list -> summary
(** Aggregate per-lane totals across a batch of run records. *)

val chrome_pid_base : int
(** First pid used by {!chrome_events} (3): pids 0–2 belong to the
    pipeline spans, the accelerator and the serving fleet. *)

val chrome_events :
  ?base_pid:int -> run_record list -> Orianna_obs.Chrome_trace.event list
(** One Chrome-trace process ({e pid}) per pool domain — lane [l]
    maps to pid [base_pid + l] — carrying that domain's slot slices,
    a submit instant per run, and a [pool.gc.minor_words] counter
    track per lane. *)