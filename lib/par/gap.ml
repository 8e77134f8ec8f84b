(* Scaling-gap decomposition over pool run records.

   The same workload is timed once sequentially and once at N lanes.
   With [t_seq]/[t_par] the wall clocks, [R*] the wall time inside
   pool regions, [S* = t* - R*] the time outside them, [B*] the summed
   lane busy time, [O] pool overhead (dispatch latency + caller join
   wait) and [I] idle lane-time inside parallel regions, the gap to
   perfect scaling decomposes exactly:

     t_par - t_seq/N = (S_par - S_seq/N)                serial sections
                     + (B_par - B_seq)/N                work inflation
                     + (O - (R_seq - B_seq))/N          pool overhead
                     + I/N                              idle (imbalance)

   [R_seq - B_seq] is the sequential run's own in-region time that is
   not work: its dispatch and bookkeeping, and any time its one lane
   lost to the host (3.8 ms in one loaded test run).  The overhead
   term counts what the N-lane pool adds on top of it.  Idle is the
   remainder of lane-time inside parallel regions
   ([N * R_par - B_par - O]), so the four components sum to the gap
   exactly, up to the [max 0] clamps on [S*] and [I]. *)

type t = {
  jobs : int;
  t_seq_s : float;
  t_par_s : float;
  speedup : float;
  efficiency : float;
  gap_s : float;
  serial_s : float;
  inflation_s : float;
  overhead_s : float;
  idle_s : float;
  accounted_s : float;
  region_seq_s : float;
  region_par_s : float;
  busy_seq_s : float;
  busy_par_s : float;
}

let region records =
  List.fold_left
    (fun acc (r : Pool.run_record) -> acc +. (r.Pool.done_s -. r.Pool.submit_s))
    0.0 records

let busy (s : Pool.summary) =
  Array.fold_left (fun acc (t : Pool.lane_totals) -> acc +. t.Pool.tbusy_s) 0.0 s.Pool.per_lane

let dispatch (s : Pool.summary) =
  Array.fold_left
    (fun acc (t : Pool.lane_totals) -> acc +. t.Pool.tdispatch_s)
    0.0 s.Pool.per_lane

let decompose ~jobs ~t_seq ~t_par ~seq ~par =
  let n = float_of_int (max 1 jobs) in
  let seq_sum = Pool.summarize seq and par_sum = Pool.summarize par in
  let b_seq = busy seq_sum and b_par = busy par_sum in
  let r_seq = region seq and r_par = region par in
  let s_seq = Float.max 0.0 (t_seq -. r_seq) and s_par = Float.max 0.0 (t_par -. r_par) in
  let overhead = dispatch par_sum +. par_sum.Pool.join_wait_total_s in
  let idle = Float.max 0.0 ((n *. r_par) -. b_par -. overhead) in
  let serial_s = s_par -. (s_seq /. n) in
  let inflation_s = (b_par -. b_seq) /. n in
  let overhead_s = (overhead -. (r_seq -. b_seq)) /. n in
  let idle_s = idle /. n in
  let speedup = if t_par > 0.0 then t_seq /. t_par else 0.0 in
  {
    jobs = max 1 jobs;
    t_seq_s = t_seq;
    t_par_s = t_par;
    speedup;
    efficiency = speedup /. n;
    gap_s = t_par -. (t_seq /. n);
    serial_s;
    inflation_s;
    overhead_s;
    idle_s;
    accounted_s = serial_s +. inflation_s +. overhead_s +. idle_s;
    region_seq_s = r_seq;
    region_par_s = r_par;
    busy_seq_s = b_seq;
    busy_par_s = b_par;
  }

let json_fields g =
  let module J = Orianna_obs.Json in
  [
    ("jobs", J.int g.jobs);
    ("t_seq_s", J.Num g.t_seq_s);
    ("t_par_s", J.Num g.t_par_s);
    ("speedup", J.Num g.speedup);
    ("efficiency", J.Num g.efficiency);
    ("gap_s", J.Num g.gap_s);
    ("accounted_s", J.Num g.accounted_s);
    ( "gap_breakdown_s",
      J.Obj
        [
          ("serial", J.Num g.serial_s);
          ("inflation", J.Num g.inflation_s);
          ("overhead", J.Num g.overhead_s);
          ("idle", J.Num g.idle_s);
        ] );
  ]
