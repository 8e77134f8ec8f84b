(** The serving runtime's unit of work, and seeded arrival-trace
    generators.

    A request names an application template (by registry name), a
    workload seed (the problem {e instance} — values differ, the
    factor-graph structure does not), a priority class and an absolute
    deadline on the virtual clock.  Traces are generated through a
    split table of independent {!Orianna_util.Rng} streams (arrivals,
    app choice, priorities, deadline slack), so adding a stream or
    reordering draws in one dimension cannot perturb the others and a
    trace is bit-for-bit reproducible from its seed. *)

type priority = Low | Normal | High

val priority_name : priority -> string

val priority_rank : priority -> int
(** [Low] = 0 < [Normal] = 1 < [High] = 2; admission shedding compares
    ranks. *)

type kind =
  | Solve  (** a full batch solve of the named application *)
  | Tick of { session : int; step : int }
      (** one measurement delta of a streaming session: fold tick
          [step] of session [session]'s stream into its smoother *)

val kind_name : kind -> string

type t = {
  id : int;  (** position in the trace, unique *)
  app : string;  (** application registry name (or stream name for ticks) *)
  seed : int;  (** workload seed: same structure, fresh values *)
  priority : priority;
  arrival_s : float;  (** virtual-clock arrival time *)
  deadline_s : float;  (** absolute virtual-clock deadline *)
  kind : kind;
}

val slack_s : t -> now_s:float -> float
(** Remaining time to the deadline at [now_s]; negative once missed.
    Retry backoff and hedging decisions key off this. *)

type shape =
  | Poisson of { rate_hz : float }
      (** memoryless arrivals at the given mean rate *)
  | Bursty of { rate_hz : float; burst : int }
      (** same mean rate, but arrivals clumped into back-to-back
          groups of [burst] — the overload pattern that exercises
          queue backpressure and shedding *)

val generate :
  rng:Orianna_util.Rng.t ->
  shape:shape ->
  apps:string list ->
  deadline_s:float * float ->
  n:int ->
  t list
(** [generate ~rng ~shape ~apps ~deadline_s:(lo, hi) ~n] draws [n]
    requests in arrival order.  Each request's app is drawn uniformly
    from [apps], its priority from a fixed 15/70/15 High/Normal/Low
    mix, and its deadline as arrival plus a uniform slack in
    [[lo, hi)]. *)

val default_rate_hz : float
(** 20 kHz: the arrival rate every seeded campaign uses unless told
    otherwise ([serve], [sessions --solves], [chaos], the bench and the
    serving experiment). *)

val default_deadline_s : float * float
(** 1–4 ms: the default deadline slack range. *)

val default_trace : rng:Orianna_util.Rng.t -> apps:string list -> n:int -> t list
(** {!generate} with [Poisson { rate_hz = default_rate_hz }] arrivals
    and [default_deadline_s] slack. *)

val pp : Format.formatter -> t -> unit
