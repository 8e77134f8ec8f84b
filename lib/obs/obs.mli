(** Lightweight, process-global observability registry: nested timed
    spans, named counters/gauges/histograms.

    The registry is {e off by default} and near-zero-cost while off —
    {!with_span} degrades to a direct call and the metric entry points
    to a single branch — so instrumented hot paths (the compiler, the
    DSE loop, the cycle-level scheduler) cost nothing in benchmarks.
    The [bench --obs-overhead] smoke gates this: the disabled registry
    must cost under 1% of the scheduling hot path.

    Multicore: metric storage is {e sharded per domain}.  A domain's
    counters, gauges and histogram accumulators live in its own shard
    behind a shard-local mutex that is only ever contended by a
    snapshot, so worker domains never fight over a global lock (or its
    cache line) on the metric fast path.  Snapshot accessors merge all
    shards deterministically — counters and histogram contents sum, so
    the same work yields the same snapshot at any job count — and
    return entries sorted by name.  [last]-style fields (gauges, a
    histogram's most recent sample) are resolved last-writer-wins via
    a global write sequence.

    Histograms are log-bucketed ({!Hist.sub} buckets per octave), so
    {!quantile} reads p50/p90/p99 off the bucket counts with a bounded
    relative error of [2^(1/sub) - 1] (~4.4%) against the exact sorted
    percentile.

    Determinism: {!set_clock} injects the time source so tests see
    reproducible timings. Exporters live in {!Chrome_trace} (Perfetto /
    chrome://tracing) and {!Report} (flat JSON). *)

type attr = string * string

type span = {
  name : string;
  attrs : attr list;
  start_s : float;  (** seconds since the registry epoch ({!enable}/{!reset}) *)
  dur_s : float;
  children : span list;
      (** in start order; the spans of a parallel map's slots follow
          in slot order and may overlap (see {!attach_slots}) *)
}

(** Standalone log-bucketed histogram accumulator — the same structure
    the registry shards use, exposed so other subsystems (the serving
    runtime's latency percentiles) unify on one quantile
    implementation. Not thread-safe; confine one [t] to one domain. *)
module Hist : sig
  val sub : int
  (** Buckets per octave (16): relative quantile error <= 2^(1/sub)-1. *)

  val buckets : int

  type t

  val create : unit -> t

  val add : ?seq:int -> t -> float -> unit
  (** Feed one sample. [seq] orders [last] across merged accumulators;
      standalone users can ignore it. *)

  val merge_into : into:t -> t -> unit

  val bound : int -> float
  (** Lower bound of bucket [i]; bucket [i] covers
      [[bound i, bound (i+1))]. *)
end

type histogram = {
  samples : int;
  sum : float;
  hmin : float;
  hmax : float;
  last : float;  (** most recent observation *)
  nonpos : int;  (** samples [<= 0], kept out of the log buckets *)
  counts : int array;  (** log-bucket occupancy; see {!Hist.bound} *)
}

val snapshot_hist : Hist.t -> histogram
(** Immutable snapshot of a standalone accumulator. *)

val quantile : histogram -> float -> float
(** [quantile h p] for [p] in [[0, 100]], following
    [Stats.percentile]'s rank convention (linear interpolation between
    order statistics), reconstructed from the log buckets and clamped
    to the recorded extrema.  Relative error vs the exact sorted
    percentile is bounded by one bucket width (~4.4%). *)

val enabled : unit -> bool

val enable : unit -> unit
(** Turn collection on and restart the epoch. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop all collected data (spans, counters, gauges, histograms) and
    restart the epoch; the enabled state and clock are kept.  Domains
    that emitted metrics before the reset re-register fresh shards on
    their next write. *)

val set_clock : (unit -> float) -> unit
(** Replace the wall-clock source (default [Unix.gettimeofday]) — the
    injection point for reproducible timings in tests. Resets the
    epoch. *)

val now_s : unit -> float
(** Seconds since the registry epoch, on the injected clock.  Trace
    producers (the domain pool) use this so their events share the
    span timeline. *)

val with_span : ?attrs:attr list -> ?gc:bool -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f] as a span nested under the innermost
    open span. The span is recorded even if [f] raises. When the
    registry is disabled this is exactly [f ()].  With [~gc:true] the
    span additionally records [Gc.quick_stat] deltas over [f] as
    attributes ([gc.minor_words], [gc.promoted_words],
    [gc.minor_collections], [gc.major_collections]) — minor-heap
    figures are per-domain in OCaml 5, so they attribute allocation to
    the domain running the span. *)

(** {2 Spans across pool lanes}

    The open-span stack is per domain, but a span opened inside a
    parallel map's slot belongs under the span that was open where the
    map was called, whichever domain ran the slot.  The domain pool
    gives each slot a {!slot}, runs the slot's work {!in_slot}, and
    after the join moves every slot's spans under the caller's
    innermost open span with {!attach_slots}, in slot order — so the
    span tree is the same at any job count, once durations, start
    times and [gc.*] attributes are set aside.  Slot children can
    overlap in time, so their durations may add up to more than their
    parent's, and {!span_self_s} then clamps at 0.  The pool does none
    of this while the registry is disabled. *)

type slot

val slot : unit -> slot
(** An empty collector for one slot's top-level spans. *)

val in_slot : slot -> (unit -> 'a) -> 'a
(** [in_slot s f] runs [f] with [s] as the only open span of the
    current domain, then restores the domain's stack (also when [f]
    raises): spans [f] closes at its top level collect in [s]. *)

val attach_slots : slot array -> unit
(** Make every span collected in the slots a child of the innermost
    open span of the calling domain — a root if none is open — in
    array order, each slot's spans in the order they closed. *)

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to a named counter. *)

val set_gauge : string -> float -> unit

val observe : string -> float -> unit
(** Feed one sample into a named histogram. *)

val counters : unit -> (string * int) list
(** Name-sorted snapshot, summed across all domain shards. *)

val counter : string -> int
(** One counter's value; 0 if never touched. *)

val gauges : unit -> (string * float) list

val histograms : unit -> (string * histogram) list

val mean : histogram -> float

val spans : unit -> span list
(** Completed top-level spans, in start order. Spans still open are
    not included. *)

val span_self_s : span -> float
(** Duration not covered by child spans, clamped at 0: children that
    ran in parallel pool slots can add up to more than their parent. *)

val fold_spans : ('a -> span -> 'a) -> 'a -> span list -> 'a
(** Pre-order fold over a span forest. *)

val pp_spans : Format.formatter -> span list -> unit
(** Indented span tree with millisecond durations. *)
