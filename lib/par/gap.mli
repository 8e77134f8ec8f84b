(** Scaling-gap decomposition: why a parallel run missed perfect
    scaling.

    Feed {!decompose} the wall clocks and drained {!Pool.run_record}
    batches of the same workload run sequentially and at [jobs] lanes.
    The gap to perfect scaling ([t_par - t_seq/jobs]) splits exactly
    into serial sections, work inflation, pool overhead and idle time:

    {v
    t_par - t_seq/N = (S_par - S_seq/N)              serial sections
                    + (B_par - B_seq)/N              work inflation
                    + (O - (R_seq - B_seq))/N        pool overhead
                    + I/N                            idle (imbalance)
    v}

    with [R*] wall time inside pool regions, [S*] time outside them,
    [B*] summed lane busy time, [O] dispatch latency plus caller join
    wait, and [I] the remaining lane-time inside parallel regions.
    The overhead term is net of the sequential run's own in-region
    time that is not work ([R_seq - B_seq]).  Because idle is defined
    as the remainder, [accounted_s] equals [gap_s] up to rounding and
    the [max 0] clamps on [S*] and [I]. *)

type t = {
  jobs : int;
  t_seq_s : float;
  t_par_s : float;
  speedup : float;  (** [t_seq /. t_par] *)
  efficiency : float;  (** [speedup /. jobs] *)
  gap_s : float;  (** [t_par -. t_seq /. jobs] *)
  serial_s : float;
  inflation_s : float;
  overhead_s : float;  (** [(O - (R_seq - B_seq))/N] *)
  idle_s : float;
  accounted_s : float;  (** sum of the four components *)
  region_seq_s : float;  (** wall time inside pool regions, sequential run *)
  region_par_s : float;
  busy_seq_s : float;  (** summed lane busy time, sequential run *)
  busy_par_s : float;
}

val decompose :
  jobs:int ->
  t_seq:float ->
  t_par:float ->
  seq:Pool.run_record list ->
  par:Pool.run_record list ->
  t

val json_fields : t -> (string * Orianna_obs.Json.t) list
(** The decomposition as report fields ([jobs], clocks, [speedup],
    [efficiency], [gap_s], [accounted_s], [gap_breakdown_s]); callers
    append workload-specific extras (GC deltas, per-lane tables). *)
