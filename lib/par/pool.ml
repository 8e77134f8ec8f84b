module Obs = Orianna_obs.Obs
module Chrome_trace = Orianna_obs.Chrome_trace
module Json = Orianna_obs.Json

(* Deterministic work-stealing domain pool.

   One process-global pool of warm worker domains; the caller
   participates as lane 0.  A "job" is an indexed bag of [n] slots
   split into one contiguous range per lane; each lane claims adaptive
   chunks off the *front* of its own range and, when that runs dry,
   steals chunks off the *back* of a victim's range.  Results are
   written into the slot's input-ordered cell, so collection order is
   input order no matter which lane ran which slot — determinism needs
   only that slots not share mutable state, never a particular steal
   order.

   Every lane's unclaimed work is one packed (lo, hi) int updated by
   CAS, so claim and steal can never hand out the same slot twice and
   unclaimed slots stay visible to every lane until the moment they
   are claimed.  When a lane's sweep over all ranges finds nothing,
   all remaining slots are already being executed and the lane is done
   with the job; the caller then parks on a condition variable (no
   busy-wait) until the last chunk completes. *)

(* [in_task] marks lanes currently executing pool work.  A
   [parallel_map] issued from such a lane must not submit to the pool
   (the single job cell is occupied and workers are busy: deadlock);
   it runs sequentially instead, which the determinism contract makes
   observationally equivalent.  [current_lane] lets per-lane fixtures
   (e.g. the fault campaign's scratch graphs) find their slot; a
   nested sequential map keeps the outer lane. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let current_lane : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let self_lane () = Domain.DLS.get current_lane

(* ------------------------------------------------------------------ *)
(* Instrumentation.

   When the telemetry registry is enabled, every pool run carries a
   [run_record]: per-lane slot/chunk/steal counts, busy time, dispatch
   latency (job publication -> the lane's first claim), per-slot spans
   for Chrome-trace export, and [Gc.quick_stat] deltas — minor-heap
   figures are per-domain in OCaml 5, so each lane's allocation and
   minor-collection counts are attributed to the domain that did the
   work.  Lane [0] is always the calling domain; lanes [1..] are the
   worker domains.  Each lane mutates only its own [lane_stats], so
   recording needs no locks on the claim path; completed records
   accumulate in a session list drained by [drain_stats] (the
   [profile --par] report). *)

type lane_stats = {
  lane : int;
  mutable slots : int;
  mutable chunks : int;   (* claims that ran at least one slot *)
  mutable steals : int;   (* chunks claimed from another lane's range *)
  mutable busy_s : float;
  mutable dispatch_s : float;  (* job publish -> first claim *)
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable slot_spans : (int * float * float) list;  (* slot, start_s, dur_s; reversed *)
}

type run_record = {
  run_id : int;
  rjobs : int;  (* lanes = workers + caller *)
  items : int;
  submit_s : float;
  mutable done_s : float;
  mutable join_wait_s : float;  (* caller parked on the done condition *)
  lanes : lane_stats array;
}

let new_lane lane =
  {
    lane;
    slots = 0;
    chunks = 0;
    steals = 0;
    busy_s = 0.0;
    dispatch_s = 0.0;
    minor_words = 0.0;
    promoted_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    slot_spans = [];
  }

let session_mutex = Mutex.create ()
let session : run_record list ref = ref []
let run_counter = ref 0

let drain_stats () =
  Mutex.lock session_mutex;
  let records = List.rev !session in
  session := [];
  Mutex.unlock session_mutex;
  records

(* ------------------------------------------------------------------ *)
(* Ranges and chunk sizing.                                            *)

(* A lane's unclaimed range packs into one int: [lo] in the high bits,
   exclusive [hi] in the low 31.  A single CAS moves either bound —
   the owner advances [lo], thieves retreat [hi] — which is the whole
   synchronization protocol.  31 bits bound slot counts at ~2e9, far
   beyond any fan-out here. *)
let range_bits = 31
let range_mask = (1 lsl range_bits) - 1
let pack lo hi = (lo lsl range_bits) lor hi
let range_lo r = r lsr range_bits
let range_hi r = r land range_mask

(* Guided self-scheduling: claim a [1 / (2 * lanes)] share of what is
   left in the range, floored at [min_chunk] (adapted below from the
   measured per-item cost).  Early claims are big enough to amortize
   the CAS and timing probes; late claims shrink so the tail stays
   balanced and stealable. *)
let guided_chunk ~lanes ~min_chunk ~remaining =
  if remaining <= 0 then 0
  else
    let c = max min_chunk (remaining / (2 * max 1 lanes)) in
    min remaining (max 1 c)

(* Adapt [min_chunk] toward ~[target_chunk_s] of measured work per
   claim: expensive items drive the floor down to 1 (fine-grained
   stealing), cheap items drive it up (amortized claims), capped so a
   single claim can never swallow half a lane's initial share.  The
   running value is damped to soften one noisy measurement. *)
let target_chunk_s = 2e-4

let adapted_min_chunk ~n ~lanes ~chunk_s ~chunk_len ~prev =
  let cap = max 1 (n / (2 * max 1 lanes)) in
  let per_item = chunk_s /. float_of_int (max 1 chunk_len) in
  let ideal =
    if per_item <= 1e-9 then cap
    else
      let i = target_chunk_s /. per_item in
      if i >= float_of_int cap then cap else max 1 (int_of_float i)
  in
  min cap (max 1 ((prev + ideal + 1) / 2))

(* Test hooks: force the victim visit order and/or a fixed chunk size,
   so the property suite can drive the scheduler through arbitrary
   steal interleavings and check results never change. *)
let victim_order_hook : (lane:int -> lanes:int -> int array) option ref = ref None
let chunk_override : int option ref = ref None

module Testing = struct
  let set_victim_order h = victim_order_hook := h
  let set_chunk_override c = chunk_override := Option.map (fun c -> max 1 c) c
end

type job = {
  jlanes : int;
  total : int;  (* slots in this job's ranges *)
  run : int -> unit;  (* must not raise: slot errors are captured inside *)
  ranges : int Atomic.t array;  (* per lane, packed (lo, hi) *)
  remaining : int Atomic.t;  (* slots not yet finished *)
  min_chunk : int Atomic.t;  (* cost-adaptive claim floor *)
  done_mutex : Mutex.t;
  done_cond : Condition.t;
  probe : run_record option;
}

let chunk_size job remaining =
  match !chunk_override with
  | Some c -> min remaining c
  | None ->
      guided_chunk ~lanes:job.jlanes ~min_chunk:(Atomic.get job.min_chunk) ~remaining

(* Claim the next chunk off the front of [ranges.(lane)]. *)
let rec claim_front job lane =
  let ra = job.ranges.(lane) in
  let r = Atomic.get ra in
  let lo = range_lo r and hi = range_hi r in
  if lo >= hi then None
  else
    let lo' = lo + chunk_size job (hi - lo) in
    if Atomic.compare_and_set ra r (pack lo' hi) then Some (lo, lo')
    else claim_front job lane

(* Steal a chunk off the back of [ranges.(victim)]; unclaimed work
   stays in the victim's range, visible to every other lane. *)
let rec steal_back job victim =
  let ra = job.ranges.(victim) in
  let r = Atomic.get ra in
  let lo = range_lo r and hi = range_hi r in
  if lo >= hi then None
  else
    let hi' = hi - chunk_size job (hi - lo) in
    if Atomic.compare_and_set ra r (pack lo hi') then Some (hi', hi)
    else steal_back job victim

(* One sweep: own range first, then victims round-robin from the next
   lane (or in the test hook's order).  [None] means every range is
   empty — all remaining slots are in execution elsewhere, so this
   lane is done with the job.  The result marks stolen chunks for the
   instrumentation. *)
let next_chunk job lane =
  match claim_front job lane with
  | Some (lo, hi) -> Some (false, lo, hi)
  | None -> (
      match !victim_order_hook with
      | Some order ->
          let vs = order ~lane ~lanes:job.jlanes in
          let rec go k =
            if k >= Array.length vs then None
            else
              let v = vs.(k) in
              if v < 0 || v >= job.jlanes || v = lane then go (k + 1)
              else
                match steal_back job v with
                | Some (lo, hi) -> Some (true, lo, hi)
                | None -> go (k + 1)
          in
          go 0
      | None ->
          let rec go k =
            if k >= job.jlanes - 1 then None
            else
              let v = (lane + 1 + k) mod job.jlanes in
              match steal_back job v with
              | Some (lo, hi) -> Some (true, lo, hi)
              | None -> go (k + 1)
          in
          go 0)

(* Retire a finished chunk; the lane that retires the last slot wakes
   the (possibly parked) caller. *)
let finish_chunk job len =
  let before = Atomic.fetch_and_add job.remaining (-len) in
  if before = len then begin
    Mutex.lock job.done_mutex;
    Condition.broadcast job.done_cond;
    Mutex.unlock job.done_mutex
  end

let adapt job chunk_s chunk_len =
  if !chunk_override = None then
    Atomic.set job.min_chunk
      (adapted_min_chunk ~n:job.total ~lanes:job.jlanes ~chunk_s ~chunk_len
         ~prev:(Atomic.get job.min_chunk))

let execute ~lane job =
  if lane < job.jlanes then begin
    let prev_task = Domain.DLS.get in_task in
    let prev_lane = Domain.DLS.get current_lane in
    Domain.DLS.set in_task true;
    Domain.DLS.set current_lane lane;
    (match job.probe with
    | None ->
        let rec loop () =
          match next_chunk job lane with
          | None -> ()
          | Some (_, lo, hi) ->
              let t0 = Obs.now_s () in
              for i = lo to hi - 1 do
                job.run i
              done;
              adapt job (Obs.now_s () -. t0) (hi - lo);
              finish_chunk job (hi - lo);
              loop ()
        in
        loop ()
    | Some rec_ ->
        let ls = rec_.lanes.(lane) in
        let g0 = ref (Gc.quick_stat ()) in
        let rec loop () =
          match next_chunk job lane with
          | None -> ()
          | Some (stolen, lo, hi) ->
              let c0 = Obs.now_s () in
              if ls.chunks = 0 && ls.slots = 0 then
                ls.dispatch_s <- Float.max 0.0 (c0 -. rec_.submit_s);
              ls.chunks <- ls.chunks + 1;
              if stolen then ls.steals <- ls.steals + 1;
              for i = lo to hi - 1 do
                let t0 = Obs.now_s () in
                job.run i;
                let t1 = Obs.now_s () in
                ls.slots <- ls.slots + 1;
                ls.busy_s <- ls.busy_s +. (t1 -. t0);
                ls.slot_spans <- (i, t0, t1 -. t0) :: ls.slot_spans
              done;
              let c1 = Obs.now_s () in
              let g1 = Gc.quick_stat () in
              ls.minor_words <- ls.minor_words +. (g1.Gc.minor_words -. !g0.Gc.minor_words);
              ls.promoted_words <-
                ls.promoted_words +. (g1.Gc.promoted_words -. !g0.Gc.promoted_words);
              ls.minor_collections <-
                ls.minor_collections + (g1.Gc.minor_collections - !g0.Gc.minor_collections);
              ls.major_collections <-
                ls.major_collections + (g1.Gc.major_collections - !g0.Gc.major_collections);
              g0 := g1;
              adapt job (c1 -. c0) (hi - lo);
              finish_chunk job (hi - lo);
              loop ()
        in
        loop ());
    Domain.DLS.set in_task prev_task;
    Domain.DLS.set current_lane prev_lane
  end

(* ------------------------------------------------------------------ *)
(* The pool itself.                                                    *)

type pool = {
  size : int;  (* worker domains; lanes available = size + 1 *)
  mutex : Mutex.t;
  cond : Condition.t;
  mutable epoch : int;
  mutable job : job option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let worker pool lane =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.mutex;
    while pool.epoch = !seen && not pool.stop do
      Condition.wait pool.cond pool.mutex
    done;
    if pool.stop then Mutex.unlock pool.mutex
    else begin
      seen := pool.epoch;
      let job = pool.job in
      Mutex.unlock pool.mutex;
      (match job with Some j -> execute ~lane j | None -> ());
      loop ()
    end
  in
  loop ()

let pool : pool option ref = ref None
let exit_hook_installed = ref false

let shutdown () =
  match !pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.mutex;
    p.stop <- true;
    Condition.broadcast p.cond;
    Mutex.unlock p.mutex;
    List.iter Domain.join p.workers;
    pool := None

(* Grow-only: a request for fewer lanes reuses the bigger pool (extra
   workers skip jobs with [lane >= jlanes]), so alternating job counts
   — the property suite drives 1..8 — never respawns domains. *)
let get_pool ~size =
  match !pool with
  | Some p when p.size >= size -> p
  | other ->
    if other <> None then shutdown ();
    let p =
      { size;
        mutex = Mutex.create ();
        cond = Condition.create ();
        epoch = 0;
        job = None;
        stop = false;
        workers = [] }
    in
    (* Lane 0 is the caller; worker [w] claims lane [w + 1]. *)
    p.workers <- List.init size (fun w -> Domain.spawn (fun () -> worker p (w + 1)));
    if not !exit_hook_installed then begin
      exit_hook_installed := true;
      at_exit shutdown
    end;
    pool := Some p;
    p

(* Feed one completed record into the registry (counters + slot/dispatch
   histograms) and the session list. *)
let record_run rec_ =
  let steals = ref 0 in
  Array.iter
    (fun ls ->
      steals := !steals + ls.steals;
      List.iter (fun (_, _, dur) -> Obs.observe "pool.slot_ms" (dur *. 1e3)) ls.slot_spans;
      if ls.slots > 0 then Obs.observe "pool.dispatch_ms" (ls.dispatch_s *. 1e3))
    rec_.lanes;
  Obs.observe "pool.join_wait_ms" (rec_.join_wait_s *. 1e3);
  Obs.count "pool.runs";
  Obs.count ~n:rec_.items "pool.slots";
  if !steals > 0 then Obs.count ~n:!steals "pool.steals";
  Mutex.lock session_mutex;
  session := rec_ :: !session;
  Mutex.unlock session_mutex

let chunk_ranges ~chunks ~n =
  if n <= 0 then [||]
  else begin
    let chunks = max 1 (min chunks n) in
    let base = n / chunks and extra = n mod chunks in
    let ranges = Array.make chunks (0, 0) in
    let lo = ref 0 in
    for c = 0 to chunks - 1 do
      let len = base + if c < extra then 1 else 0 in
      ranges.(c) <- (!lo, !lo + len);
      lo := !lo + len
    done;
    ranges
  end

(* Run the slots [0, n) across the pool plus the calling lane,
   returning once every slot has completed (not merely been claimed).
   The job is published before the caller claims anything, so workers
   start on their ranges at once; the caller then works like any other
   lane (slot 0 is simply the front of its range) and parks on the
   job's condition variable for the stragglers — no spinning. *)
let run_job ~jobs ~n ~chunk ~probe ~run =
  let p = get_pool ~size:(jobs - 1) in
  let init = chunk_ranges ~chunks:jobs ~n in
  let ranges =
    Array.init jobs (fun l ->
        let lo, hi = if l < Array.length init then init.(l) else (0, 0) in
        let r = Atomic.make (pack lo hi) in
        (* Space the atomics a cache line apart: claims and steals CAS
           them from different domains, and adjacently allocated boxes
           would false-share. *)
        ignore (Sys.opaque_identity (Array.make 8 0));
        r)
  in
  let job =
    {
      jlanes = jobs;
      total = n;
      run;
      ranges;
      remaining = Atomic.make n;
      min_chunk = Atomic.make (match chunk with Some c -> max 1 c | None -> 1);
      done_mutex = Mutex.create ();
      done_cond = Condition.create ();
      probe;
    }
  in
  Mutex.lock p.mutex;
  p.job <- Some job;
  p.epoch <- p.epoch + 1;
  Condition.broadcast p.cond;
  Mutex.unlock p.mutex;
  execute ~lane:0 job;
  let wait0 = match probe with None -> 0.0 | Some _ -> Obs.now_s () in
  Mutex.lock job.done_mutex;
  while Atomic.get job.remaining > 0 do
    Condition.wait job.done_cond job.done_mutex
  done;
  Mutex.unlock job.done_mutex;
  match probe with
  | None -> ()
  | Some rec_ ->
      let now = Obs.now_s () in
      rec_.join_wait_s <- now -. wait0;
      rec_.done_s <- now;
      record_run rec_

let default_override = ref None

let clamp_jobs n = if n < 1 then 1 else n

let set_default_jobs n = default_override := Some (clamp_jobs n)

let default_jobs () =
  match !default_override with
  | Some n -> n
  | None -> (
    match Sys.getenv_opt "ORIANNA_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> clamp_jobs n
      | None -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ())

let resolve_jobs = function
  | Some n -> clamp_jobs n
  | None -> default_jobs ()

let max_lanes () =
  let spawned = match !pool with Some p -> p.size + 1 | None -> 1 in
  max (default_jobs ()) spawned

(* Sequential fallback, still recorded as a 1-lane run when telemetry
   is on: [profile --par]'s gap accounting needs the {e sequential}
   busy time and pool-region wall time of the same workload to
   separate work inflation from serial sections.  Exceptions propagate
   directly (the record for a failed run is simply dropped). *)
let seq_map_recorded f xs =
  let n = Array.length xs in
  incr run_counter;
  let ls = new_lane 0 in
  let rec_ =
    {
      run_id = !run_counter;
      rjobs = 1;
      items = n;
      submit_s = Obs.now_s ();
      done_s = 0.0;
      join_wait_s = 0.0;
      lanes = [| ls |];
    }
  in
  let g0 = ref (Gc.quick_stat ()) in
  let res =
    Array.mapi
      (fun i x ->
        let t0 = Obs.now_s () in
        let y = f x in
        let t1 = Obs.now_s () in
        let g1 = Gc.quick_stat () in
        ls.slots <- ls.slots + 1;
        ls.chunks <- ls.chunks + 1;
        ls.busy_s <- ls.busy_s +. (t1 -. t0);
        ls.slot_spans <- (i, t0, t1 -. t0) :: ls.slot_spans;
        ls.minor_words <- ls.minor_words +. (g1.Gc.minor_words -. !g0.Gc.minor_words);
        ls.promoted_words <- ls.promoted_words +. (g1.Gc.promoted_words -. !g0.Gc.promoted_words);
        ls.minor_collections <-
          ls.minor_collections + (g1.Gc.minor_collections - !g0.Gc.minor_collections);
        ls.major_collections <-
          ls.major_collections + (g1.Gc.major_collections - !g0.Gc.major_collections);
        g0 := g1;
        y)
      xs
  in
  rec_.done_s <- Obs.now_s ();
  record_run rec_;
  res

(* Keep the lowest failing slot: re-raising it after all slots settle
   makes a failing item behave identically at any job count. *)
let rec note_failure cell i e bt =
  match Atomic.get cell with
  | Some (j, _, _) when j <= i -> ()
  | cur ->
      if not (Atomic.compare_and_set cell cur (Some (i, e, bt))) then
        note_failure cell i e bt

let parallel_map ?jobs ?chunk f xs =
  let jobs = resolve_jobs jobs in
  let n = Array.length xs in
  if jobs <= 1 || n < 2 || Domain.DLS.get in_task then
    if n > 0 && Obs.enabled () && not (Domain.DLS.get in_task) then seq_map_recorded f xs
    else Array.map f xs
  else begin
    let probe =
      if Obs.enabled () then begin
        incr run_counter;
        Some
          {
            run_id = !run_counter;
            rjobs = jobs;
            items = n;
            submit_s = Obs.now_s ();
            done_s = 0.0;
            join_wait_s = 0.0;
            lanes = Array.init jobs new_lane;
          }
      end
      else None
    in
    (* Every slot, slot 0 included, writes its own cell; [Array.map]
       copies the results out, and since it builds its array from the
       first result, float results come back as a flat float array. *)
    let cells = Array.make n None in
    let failure = Atomic.make None in
    let run i =
      match f xs.(i) with
      | y -> cells.(i) <- Some y
      | exception e -> note_failure failure i e (Printexc.get_raw_backtrace ())
    in
    (match probe with
    | None -> run_job ~jobs ~n ~chunk ~probe ~run
    | Some _ ->
        (* Spans follow the work: each slot collects its own, and the
           caller files them under its open span in slot order. *)
        let slots = Array.init n (fun _ -> Obs.slot ()) in
        run_job ~jobs ~n ~chunk ~probe ~run:(fun i -> Obs.in_slot slots.(i) (fun () -> run i));
        Obs.attach_slots slots);
    (match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map Option.get cells
  end

let parallel_map_list ?jobs ?chunk f xs =
  Array.to_list (parallel_map ?jobs ?chunk f (Array.of_list xs))

let parallel_map_reduce ?jobs ?chunk ~map ~reduce ~init xs =
  Array.fold_left reduce init (parallel_map ?jobs ?chunk map xs)

(* ------------------------------------------------------------------ *)
(* Aggregation and trace export.                                       *)

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

let summarize records =
  let lanes_used = List.fold_left (fun acc r -> max acc r.rjobs) 0 records in
  let per_lane =
    Array.init lanes_used (fun lane ->
        {
          tlane = lane;
          tslots = 0;
          tchunks = 0;
          tsteals = 0;
          tbusy_s = 0.0;
          tdispatch_s = 0.0;
          tminor_words = 0.0;
          tpromoted_words = 0.0;
          tminor_collections = 0;
          tmajor_collections = 0;
        })
  in
  let join_wait = ref 0.0 in
  let total_items = ref 0 in
  List.iter
    (fun r ->
      join_wait := !join_wait +. r.join_wait_s;
      total_items := !total_items + r.items;
      Array.iter
        (fun ls ->
          let t = per_lane.(ls.lane) in
          per_lane.(ls.lane) <-
            {
              t with
              tslots = t.tslots + ls.slots;
              tchunks = t.tchunks + ls.chunks;
              tsteals = t.tsteals + ls.steals;
              tbusy_s = t.tbusy_s +. ls.busy_s;
              tdispatch_s = t.tdispatch_s +. ls.dispatch_s;
              tminor_words = t.tminor_words +. ls.minor_words;
              tpromoted_words = t.tpromoted_words +. ls.promoted_words;
              tminor_collections = t.tminor_collections + ls.minor_collections;
              tmajor_collections = t.tmajor_collections + ls.major_collections;
            })
        r.lanes)
    records;
  {
    runs = List.length records;
    total_items = !total_items;
    lanes_used;
    per_lane;
    join_wait_total_s = !join_wait;
  }

let chrome_pid_base = 3

let chrome_events ?(base_pid = chrome_pid_base) records =
  let lanes_used = List.fold_left (fun acc r -> max acc r.rjobs) 0 records in
  let header =
    List.concat
      (List.init lanes_used (fun lane ->
           [
             Chrome_trace.Process_name
               {
                 pid = base_pid + lane;
                 name =
                   (if lane = 0 then "pool domain 0 (caller)"
                    else Printf.sprintf "pool domain %d" lane);
               };
             Chrome_trace.Thread_name { pid = base_pid + lane; tid = 0; name = "slots" };
           ]))
  in
  let body =
    List.concat_map
      (fun r ->
        Chrome_trace.Instant
          {
            name = Printf.sprintf "submit run %d (%d slots)" r.run_id r.items;
            cat = "pool";
            pid = base_pid;
            tid = 0;
            ts_us = r.submit_s *. 1e6;
          }
        :: List.concat
             (Array.to_list
                (Array.map
                   (fun ls ->
                     let slices =
                       List.rev_map
                         (fun (slot, start_s, dur_s) ->
                           Chrome_trace.Duration
                             {
                               name = Printf.sprintf "run %d slot %d" r.run_id slot;
                               cat = "pool";
                               pid = base_pid + ls.lane;
                               tid = 0;
                               ts_us = start_s *. 1e6;
                               dur_us = dur_s *. 1e6;
                               args = [ ("run", Json.int r.run_id); ("slot", Json.int slot) ];
                             })
                         ls.slot_spans
                     in
                     if ls.slots = 0 then slices
                     else
                       Chrome_trace.Counter
                         {
                           name = "pool.gc.minor_words";
                           pid = base_pid + ls.lane;
                           ts_us = r.done_s *. 1e6;
                           series = [ ("minor_words", ls.minor_words) ];
                         }
                       :: slices)
                   r.lanes)))
      records
  in
  header @ body
