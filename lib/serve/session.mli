(** Streaming sessions: per-tenant incremental smoothing behind the
    serving DES.

    A {e mission} replays a timestamped measurement stream
    ({!Orianna_apps.Stream}) as a sequence of [Tick] requests, one per
    stream tick, admitted through the ordinary queue/batch/dispatch
    machinery alongside full solves.  Each session (keyed by mission
    id) owns an {!Orianna_fg.Smoother}: executing a tick folds the
    corresponding measurement delta into the session's smoother and
    charges a modeled service time proportional to the {e affected}
    re-elimination work — the incremental win over a batch re-solve is
    what the simulated latencies measure.

    All sessions of the same stream share one compiled program: the
    structural cache key of a fixed template prefix of the stream, so
    compiled-program reuse across ticks (and across tenants on the
    same dataset) goes through the ordinary content-addressed cache.

    Sessions are bounded two ways: an LRU capacity ([max_sessions],
    least-recently-used session evicted when a new one needs a slot)
    and an idle timeout ([idle_timeout_s] of virtual-clock inactivity,
    checked lazily).  An evicted or expired session that receives
    another tick restarts from the beginning of its stream and
    fast-forwards — restarts, evictions and expiries are all
    reported.

    Everything here is driven by the single-threaded virtual-clock
    DES, so session behavior is deterministic and independent of the
    worker-domain count. *)

module Stream = Orianna_apps.Stream
module Json = Orianna_obs.Json

type params = {
  max_sessions : int;  (** resident-session capacity (LRU beyond it) *)
  idle_timeout_s : float;
      (** evict after this much virtual-clock inactivity; [<= 0]
          disables the timeout *)
  window : int option;  (** smoother sliding window (see {!Orianna_fg.Smoother}) *)
  relin_threshold : float;
  max_relin_passes : int;
  template_ticks : int;
      (** stream-prefix length whose graph is compiled as the shared
          session program *)
  tick_overhead_s : float;  (** fixed modeled cost per tick *)
}

val default_params : params
(** 8 resident sessions, 50 ms idle timeout, no window,
    [relin_threshold = 0.05], 3 relin passes, 12-tick template,
    20 us tick overhead. *)

type mission = {
  mid : int;  (** session id; must be unique across missions *)
  stream : Stream.t;
  start_s : float;  (** virtual-clock arrival of tick 0 *)
  period_s : float;  (** tick arrival spacing *)
  priority : Request.priority;
  deadline_slack_s : float;  (** per-tick deadline beyond arrival *)
}

val staggered_missions : tenants:int -> period_s:float -> Stream.t -> mission list
(** [max 1 tenants] missions replaying the same stream at [period_s],
    ids [0 ..], tick 0 of mission [k] at [k * period_s / tenants] so
    the tenants interleave evenly; [Normal] priority, 50 ms deadline
    slack per tick. *)

type t

val create : ?params:params -> opt_level:int -> missions:mission list -> unit -> t
(** Precomputes each mission's template graph and structural cache
    key.  Raises [Invalid_argument] on duplicate mission ids, an empty
    stream, or a stream longer than 10000 ticks. *)

val mission_requests : t -> Request.t list
(** One [Tick] request per stream tick of every mission, in
    (mission, step) order; ids live in a dedicated range above
    1_000_000 so they cannot collide with generated solve traces. *)

val key_of : t -> Request.t -> int32 option
(** The session's template cache key; [None] for non-tick requests or
    unknown session ids (the admission path rejects those as
    unservable). *)

val template_graphs : t -> session:int -> (string * Orianna_fg.Graph.t) list
(** The named template graph compiled for this session — the compile
    thunk behind the content-addressed cache.  Raises [Not_found] on
    unknown ids. *)

val execute : t -> now_s:float -> base_s:float -> Request.t -> float
(** Modeled service seconds for one tick at virtual time [now_s],
    where [base_s] is the accelerator's per-request service time for
    the compiled template program (slowdowns included).  Applies lazy
    idle-timeout expiry and LRU eviction, creates or restarts the
    session's smoother as needed, fast-forwards the stream to the
    tick's step and folds it in with one smoother update.  The charge
    is [tick_overhead_s + base_s * affected / template_variables]; a
    tick at an already-applied step is a cheap replay costing only the
    overhead.  Raises [Invalid_argument] on a non-tick request. *)

type session_stats = {
  sid : int;
  sname : string;  (** stream name *)
  ticks_applied : int;  (** stream ticks folded in (restarts refold) *)
  replays : int;  (** requests at an already-applied step *)
  restarts : int;  (** smoother rebuilds after eviction/expiry *)
  evictions : int;  (** LRU capacity evictions of this session *)
  expiries : int;  (** idle-timeout expiries of this session *)
  dropped_factors : int;  (** measurements dropped against retired variables *)
  live_variables : int;  (** smoother size at last touch *)
  marginalized : int;  (** variables folded out at last touch *)
  median_affected : float;  (** median affected variables per update *)
  median_affected_fraction : float;
      (** median affected / live fraction per update *)
}

type report = {
  per_session : session_stats list;  (** ascending session id *)
  active : int;  (** sessions still resident at the end *)
  ticks_total : int;
  replays_total : int;
  restarts_total : int;
  evictions_total : int;
  expiries_total : int;
}

val report : t -> report

val report_json : report -> Json.t

val table : report -> string
