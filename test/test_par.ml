(* Tests for the domain pool (Orianna_par.Pool) and for the contract
   that parallelisation did not change a single observable bit:

   - [Pool.parallel_map]/[parallel_map_reduce] are bit-identical at
     jobs = 1, 2 and 4, preserve input order, re-raise the first
     failing slot's exception, and degrade to sequential execution
     when nested;
   - [Rng.split_n] equals repeated in-loop splitting;
   - the array-based scheduler hot path ([Schedule.run]) matches a
     verbatim copy of the seed's hashtable-based implementation on
     random compiled applications, across all three issue policies;
   - fault campaigns and DSE produce identical summaries at any job
     count, and the shared DSE cache memoizes candidate evaluation;
   - [Obs] counters are exact under concurrent counting from several
     domains. *)

open Orianna_isa
open Orianna_hw
open Orianna_sim
open Orianna_util
open Orianna_apps
module Pool = Orianna_par.Pool
module Compile = Orianna_compiler.Compile
module Campaign = Orianna_fault.Campaign
module Obs = Orianna_obs.Obs

(* ---------- parallel_map combinators ---------- *)

let test_parallel_map_identical () =
  let xs = Array.init 257 Fun.id in
  let f i = Printf.sprintf "%d:%.17g" (i * i) (sin (float_of_int i)) in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array string))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.parallel_map ~jobs f xs))
    [ 1; 2; 4 ]

let test_parallel_map_order () =
  (* Results land in their input slot even though slots are claimed
     dynamically by whichever lane is free. *)
  let xs = Array.init 1000 Fun.id in
  Alcotest.(check (array int)) "identity preserved" xs (Pool.parallel_map ~jobs:4 Fun.id xs)

let test_exception_first_slot () =
  let raised =
    try
      ignore
        (Pool.parallel_map ~jobs:4
           (fun i -> if i >= 50 then failwith (string_of_int i) else i)
           (Array.init 100 Fun.id));
      None
    with Failure msg -> Some msg
  in
  (* Slots 50..99 all fail; the re-raised exception must be the first
     one in input order, independent of completion order. *)
  Alcotest.(check (option string)) "first failing slot re-raised" (Some "50") raised

(* Slot 0 is an ordinary slot: here it fails after a later slot has
   already failed on another lane, yet it is still the first failure
   in input order. *)
let test_exception_slot0_first () =
  let slow_fail i =
    for k = 1 to 200_000 do
      ignore (Sys.opaque_identity (sin (float_of_int k)))
    done;
    failwith (string_of_int i)
  in
  List.iter
    (fun jobs ->
      let raised =
        try
          ignore
            (Pool.parallel_map ~jobs ~chunk:1
               (fun i -> if i = 0 then slow_fail i else if i = 5 then failwith "5" else i)
               (Array.init 8 Fun.id));
          None
        with Failure msg -> Some msg
      in
      Alcotest.(check (option string)) (Printf.sprintf "jobs=%d" jobs) (Some "0") raised)
    [ 2; 4 ]

let test_nested_in_slot0_sequential () =
  (* Whatever lane runs slot 0, a map issued inside it stays on that
     lane, like a map inside any other slot. *)
  let outer =
    Pool.parallel_map ~jobs:4 ~chunk:1
      (fun _ ->
        let lane = Pool.self_lane () in
        Array.for_all (fun l -> l = lane)
          (Pool.parallel_map ~jobs:4 (fun _ -> Pool.self_lane ()) (Array.init 16 Fun.id)))
      (Array.init 6 Fun.id)
  in
  Alcotest.(check bool) "slot 0's inner map stayed on its lane" true outer.(0);
  Alcotest.(check bool) "every inner map stayed on its lane" true (Array.for_all Fun.id outer)

let test_float_results_flat () =
  let out = Pool.parallel_map ~jobs:2 (fun i -> float_of_int i *. 0.5) (Array.init 33 Fun.id) in
  Alcotest.(check int) "flat float array" Obj.double_array_tag (Obj.tag (Obj.repr out));
  Alcotest.(check (float 0.0)) "last slot" 16.0 out.(32)

let test_map_reduce_deterministic () =
  let xs = Array.init 64 (fun i -> float_of_int (i + 1)) in
  let map x = sin x in
  (* Deliberately non-associative: only an in-order fold gets this
     right, which is what the combinator guarantees. *)
  let reduce a b = (a *. 0.5) +. b in
  let expected = Array.fold_left reduce 1.0 (Array.map map xs) in
  List.iter
    (fun jobs ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.parallel_map_reduce ~jobs ~map ~reduce ~init:1.0 xs))
    [ 1; 2; 4 ]

let test_nested_runs_sequentially () =
  (* An inner parallel_map issued from inside a pool task must not
     deadlock — it falls back to sequential execution. *)
  Pool.set_default_jobs 4;
  let outer =
    Pool.parallel_map
      (fun i ->
        Array.fold_left ( + ) 0 (Pool.parallel_map (fun j -> (i * 100) + j) (Array.init 10 Fun.id)))
      (Array.init 8 Fun.id)
  in
  Pool.set_default_jobs 1;
  let expected =
    Array.init 8 (fun i -> Array.fold_left ( + ) 0 (Array.init 10 (fun j -> (i * 100) + j)))
  in
  Alcotest.(check (array int)) "nested map correct" expected outer

let prop_chunk_ranges =
  QCheck.Test.make ~name:"pool: chunk_ranges is a balanced contiguous partition" ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (chunks, n) ->
      let ranges = Pool.chunk_ranges ~chunks ~n in
      if n = 0 then Array.length ranges = 0
      else begin
        let k = Array.length ranges in
        let contiguous = ref (fst ranges.(0) = 0 && snd ranges.(k - 1) = n) in
        for c = 1 to k - 1 do
          if fst ranges.(c) <> snd ranges.(c - 1) then contiguous := false
        done;
        let sizes = Array.map (fun (lo, hi) -> hi - lo) ranges in
        let mn = Array.fold_left min max_int sizes and mx = Array.fold_left max 0 sizes in
        k >= 1 && k <= max 1 chunks && k <= n && !contiguous && mn >= 1 && mx - mn <= 1
      end)

(* ---------- RNG stream splitting ---------- *)

let test_split_n_matches_split_loop () =
  let a = Rng.of_int 1234 and b = Rng.of_int 1234 in
  let sa = Rng.split_n a 8 in
  let sb = Array.make 8 b in
  for i = 0 to 7 do
    sb.(i) <- Rng.split b
  done;
  Array.iteri
    (fun i ra ->
      for draw = 0 to 2 do
        Alcotest.(check int64)
          (Printf.sprintf "stream %d draw %d" i draw)
          (Rng.int64 sb.(i)) (Rng.int64 ra)
      done)
    sa;
  (* The parent stream advanced identically in both styles. *)
  Alcotest.(check int64) "parent state aligned" (Rng.int64 b) (Rng.int64 a)

(* ---------- differential scheduler check ---------- *)

(* Verbatim copy of the seed's hashtable-based scheduler (telemetry
   stripped), kept as the reference the rewritten array-based hot path
   is differenced against — with a copy of the seed's polymorphic
   binary heap (the functions the scheduler calls), so the reference
   shares no code with the int-keyed heap it checks. *)
module Ref_sched = struct
  module Heap = struct
    type 'a t = { cmp : 'a -> 'a -> int; mutable data : 'a array; mutable len : int }

    let create ~cmp = { cmp; data = [||]; len = 0 }

    let is_empty h = h.len = 0

    let grow h x =
      if h.len = Array.length h.data then begin
        let cap = max 8 (2 * Array.length h.data) in
        let data = Array.make cap x in
        Array.blit h.data 0 data 0 h.len;
        h.data <- data
      end

    let swap h i j =
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(j);
      h.data.(j) <- tmp

    let rec sift_up h i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if h.cmp h.data.(i) h.data.(parent) < 0 then begin
          swap h i parent;
          sift_up h parent
        end
      end

    let rec sift_down h i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < h.len && h.cmp h.data.(l) h.data.(!smallest) < 0 then smallest := l;
      if r < h.len && h.cmp h.data.(r) h.data.(!smallest) < 0 then smallest := r;
      if !smallest <> i then begin
        swap h i !smallest;
        sift_down h !smallest
      end

    let push h x =
      grow h x;
      h.data.(h.len) <- x;
      h.len <- h.len + 1;
      sift_up h (h.len - 1)

    let pop h =
      if h.len = 0 then None
      else begin
        let top = h.data.(0) in
        h.len <- h.len - 1;
        if h.len > 0 then begin
          h.data.(0) <- h.data.(h.len);
          sift_down h 0
        end;
        Some top
      end

    let peek h = if h.len = 0 then None else Some h.data.(0)
  end

  let class_index cls =
    let rec find i = function
      | [] -> assert false
      | c :: rest -> if c = cls then i else find (i + 1) rest
    in
    find 0 Unit_model.all_classes

  let num_classes = List.length Unit_model.all_classes

  let priorities (p : Program.t) latency_of =
    let n = Array.length p.Program.instrs in
    let prio = Array.make n 0 in
    for i = n - 1 downto 0 do
      let ins = p.Program.instrs.(i) in
      prio.(i) <- max prio.(i) (latency_of i);
      Array.iter (fun s -> prio.(s) <- max prio.(s) (prio.(i) + latency_of s)) ins.Instr.srcs
    done;
    prio

  let schedule_ooo (p : Program.t) ~latency_of ~prio ~counts ~starts ~finishes ~ids ~t0 =
    let in_subset = Hashtbl.create (Array.length ids) in
    Array.iter (fun id -> Hashtbl.add in_subset id ()) ids;
    let indeg = Hashtbl.create (Array.length ids) in
    let children = Hashtbl.create (Array.length ids) in
    Array.iter
      (fun id ->
        let ins = p.Program.instrs.(id) in
        let deps =
          Array.to_list ins.Instr.srcs |> List.filter (fun s -> Hashtbl.mem in_subset s)
        in
        Hashtbl.replace indeg id (List.length deps);
        List.iter
          (fun s ->
            Hashtbl.replace children s
              (id :: Option.value ~default:[] (Hashtbl.find_opt children s)))
          deps)
      ids;
    let arrivals =
      Array.init num_classes (fun _ -> Heap.create ~cmp:(fun (ta, _) (tb, _) -> compare ta tb))
    in
    let ready =
      Array.init num_classes (fun _ -> Heap.create ~cmp:(fun (pa, _) (pb, _) -> compare pb pa))
    in
    let free : int array array =
      Array.of_list
        (List.map (fun cls -> Array.make (List.assoc cls counts) t0) Unit_model.all_classes)
    in
    let ready_dep_time = Hashtbl.create (Array.length ids) in
    let arrive id t =
      let cls = class_index (Unit_model.class_of_op p.Program.instrs.(id).Instr.op) in
      Heap.push arrivals.(cls) (max t t0, id)
    in
    Array.iter (fun id -> if Hashtbl.find indeg id = 0 then arrive id t0) ids;
    let remaining = ref (Array.length ids) in
    let t = ref t0 in
    let makespan = ref t0 in
    while !remaining > 0 do
      for c = 0 to num_classes - 1 do
        let continue_ = ref true in
        while !continue_ do
          match Heap.peek arrivals.(c) with
          | Some (ta, id) when ta <= !t ->
              ignore (Heap.pop arrivals.(c));
              Heap.push ready.(c) (prio.(id), id)
          | Some _ | None -> continue_ := false
        done
      done;
      let scheduled_any = ref false in
      for c = 0 to num_classes - 1 do
        let continue_ = ref true in
        while !continue_ && not (Heap.is_empty ready.(c)) do
          let best = ref (-1) in
          Array.iteri
            (fun k ft -> if ft <= !t && (!best < 0 || ft < free.(c).(!best)) then best := k)
            free.(c);
          if !best < 0 then continue_ := false
          else begin
            match Heap.pop ready.(c) with
            | None -> continue_ := false
            | Some (_, id) ->
                let dep_ready = Option.value ~default:t0 (Hashtbl.find_opt ready_dep_time id) in
                let start = max !t dep_ready in
                let lat = latency_of id in
                let finish = start + lat in
                starts.(id) <- start;
                finishes.(id) <- finish;
                free.(c).(!best) <- finish;
                makespan := max !makespan finish;
                decr remaining;
                scheduled_any := true;
                List.iter
                  (fun child ->
                    let d = Hashtbl.find indeg child - 1 in
                    Hashtbl.replace indeg child d;
                    let prev =
                      Option.value ~default:t0 (Hashtbl.find_opt ready_dep_time child)
                    in
                    Hashtbl.replace ready_dep_time child (max prev finish);
                    if d = 0 then arrive child finish)
                  (Option.value ~default:[] (Hashtbl.find_opt children id))
          end
        done
      done;
      if !remaining > 0 && not !scheduled_any then begin
        let next = ref max_int in
        for c = 0 to num_classes - 1 do
          (match Heap.peek arrivals.(c) with
          | Some (ta, _) when ta > !t -> next := min !next ta
          | _ -> ());
          if not (Heap.is_empty ready.(c)) then
            Array.iter (fun ft -> if ft > !t then next := min !next ft) free.(c)
        done;
        if !next = max_int then begin
          (* The payload [Schedule.Deadlock] documents: every
             instruction still queued, and every instance's busy-until
             cycle. *)
          let stuck = ref [] in
          Array.iter
            (fun h ->
              let rec drain () =
                match Heap.pop h with
                | Some (_, id) ->
                    stuck := id :: !stuck;
                    drain ()
                | None -> ()
              in
              drain ())
            (Array.append ready arrivals);
          let occupancy =
            List.mapi (fun c cls -> (cls, Array.to_list free.(c))) Unit_model.all_classes
          in
          raise (Schedule.Deadlock { cycle = !t; stuck = List.sort compare !stuck; occupancy })
        end;
        t := !next
      end
    done;
    !makespan

  let schedule_in_order (p : Program.t) ~latency_of ~starts ~finishes =
    let makespan = ref 0 in
    Array.iter
      (fun (ins : Instr.t) ->
        let id = ins.Instr.id in
        let dep_ready = Array.fold_left (fun acc s -> max acc finishes.(s)) 0 ins.Instr.srcs in
        let start = max dep_ready !makespan in
        let finish = start + latency_of id in
        starts.(id) <- start;
        finishes.(id) <- finish;
        makespan := finish)
      p.Program.instrs;
    !makespan

  (* Starts, finishes and makespan under the seed's dispatch logic:
     nominal latencies plus [jitter] (clamped at 0), priority
     critical-path or [Fifo] (program order), as [Schedule.run]
     documents them. *)
  let run ?(priority = Schedule.Critical_path) ?(jitter = fun _ -> 0) ~accel ~policy
      (p : Program.t) =
    let n = Array.length p.Program.instrs in
    let src_shape id = (p.Program.instrs.(id).Instr.rows, p.Program.instrs.(id).Instr.cols) in
    let latency_of id =
      let ins = p.Program.instrs.(id) in
      Unit_model.latency
        (Unit_model.class_of_op ins.Instr.op)
        ~qr_rotators:accel.Accel.qr_rotators ins ~src_shape
      + max 0 (jitter id)
    in
    let priorities p latency_of =
      match priority with
      | Schedule.Critical_path -> priorities p latency_of
      | Schedule.Fifo -> Array.init n (fun i -> -i)
    in
    let counts = accel.Accel.counts in
    let starts = Array.make n 0 and finishes = Array.make n 0 in
    let makespan =
      match policy with
      | Schedule.In_order -> schedule_in_order p ~latency_of ~starts ~finishes
      | Schedule.Ooo_full ->
          let prio = priorities p latency_of in
          schedule_ooo p ~latency_of ~prio ~counts ~starts ~finishes ~ids:(Array.init n Fun.id)
            ~t0:0
      | Schedule.Ooo_fine ->
          let prio = priorities p latency_of in
          let algos =
            Array.fold_left
              (fun acc (i : Instr.t) ->
                if List.mem i.Instr.algo acc then acc else i.Instr.algo :: acc)
              [] p.Program.instrs
            |> List.rev
          in
          List.fold_left
            (fun t0 algo ->
              let ids =
                Array.of_list
                  (Array.to_list p.Program.instrs
                  |> List.filter_map (fun (i : Instr.t) ->
                         if i.Instr.algo = algo then Some i.Instr.id else None))
              in
              schedule_ooo p ~latency_of ~prio ~counts ~starts ~finishes ~ids ~t0)
            0 algos
    in
    (starts, finishes, makespan)
end

let apps = Array.of_list App.all

(* Every accelerator the DSE scores while generating hardware for each
   app's seed-42 application stream: several instances per class and
   QR widths 8 to 32, as generation visits them. *)
let dse_trace_accels =
  lazy
    (Pool.set_default_jobs 1;
     Array.of_list
       (List.concat_map
          (fun (app : App.t) ->
            let p = Compile.compile_application (app.App.graphs (Rng.of_int 42)) in
            let trace = ref [] in
            ignore
              (Dse.optimize ~budget:Resource.zc706
                 ~evaluate:(fun accel ->
                   trace := accel :: !trace;
                   (Schedule.run ~accel ~policy:Schedule.Ooo_full p).Schedule.seconds)
                 ());
            List.rev !trace)
          App.all))

(* (seed, app, accelerator, variant): the variant's bits pick the O3
   stream (superword kernels included) over the compiled O1 one,
   latency jitter, the [Fifo] priority, and which class to leave with
   zero instances in the deadlock check. *)
let sched_arb =
  QCheck.(
    make
      Gen.(quad (int_range 0 1_000_000) (int_range 0 3) (int_range 0 10_000) (int_range 0 63))
      ~print:Print.(quad int int int int))

let prop_schedule_matches_seed_reference =
  QCheck.Test.make
    ~name:
      "schedule: array hot path = seed hashtable reference (all policies, O3 streams, DSE \
       accelerators, jitter, Fifo, deadlock)"
    ~count:12 sched_arb (fun (seed, app_i, accel_i, variant) ->
      let app = apps.(app_i mod Array.length apps) in
      let p = Compile.compile_application (app.App.graphs (Rng.of_int seed)) in
      let accels = Lazy.force dse_trace_accels in
      let accel = accels.(accel_i mod Array.length accels) in
      let p = if variant land 1 = 0 then p else Opt_loop.optimize ~accel ~level:3 p in
      let jitter = if variant land 2 = 0 then None else Some (fun id -> ((id * 7919) mod 5) - 1) in
      let priority = if variant land 4 = 0 then Schedule.Critical_path else Schedule.Fifo in
      let outcome run =
        try Ok (run ()) with Schedule.Deadlock d -> Error (d.cycle, d.stuck, d.occupancy)
      in
      let same ~accel ~policy =
        let r = outcome (fun () -> Schedule.run ~priority ?jitter ~accel ~policy p) in
        let r' = outcome (fun () -> Ref_sched.run ~priority ?jitter ~accel ~policy p) in
        match (r, r') with
        | Ok r, Ok (starts, finishes, makespan) ->
            r.Schedule.cycles = makespan
            && r.Schedule.starts = starts
            && r.Schedule.finishes = finishes
            && (jitter <> None || Schedule.check_invariants ~accel p r = Ok ())
        | Error d, Error d' -> d = d'
        | _ -> false
      in
      (* A class the stream uses, left with no instance: both
         schedulers must stop with the same [Deadlock]. *)
      let dead =
        Unit_model.class_of_op p.Program.instrs.((variant lsr 3) mod Program.length p).Instr.op
      in
      let broken =
        {
          accel with
          Accel.counts = List.map (fun (c, k) -> (c, if c = dead then 0 else k)) accel.Accel.counts;
        }
      in
      List.for_all
        (fun policy ->
          same ~accel ~policy
          && (policy = Schedule.In_order || same ~accel:broken ~policy))
        [ Schedule.In_order; Schedule.Ooo_fine; Schedule.Ooo_full ])

(* ---------- campaign / DSE job-count invariance ---------- *)

let test_campaign_identical_across_jobs () =
  let run_with jobs =
    Pool.set_default_jobs jobs;
    let graphs = App.mobile_robot.App.graphs (Rng.of_int 7) in
    let program = Compile.compile_application graphs in
    let accel = Accel.with_extra (Accel.base ()) Unit_model.Matmul in
    Campaign.run
      ~config:{ Campaign.default_config with Campaign.missions = 24 }
      ~rng:(Rng.of_int 42) ~graphs ~program ~accel ()
  in
  let s1 = run_with 1 in
  let s4 = run_with 4 in
  Pool.set_default_jobs 1;
  Alcotest.(check bool) "summaries identical at -j1 and -j4" true (s1 = s4)

let test_dse_shared_cache_memoizes () =
  Pool.set_default_jobs 1;
  Obs.enable ();
  Obs.reset ();
  let evals = ref 0 in
  let evaluate accel =
    incr evals;
    100.0 /. (1.0 +. float_of_int (Accel.count accel Unit_model.Matmul))
  in
  let cache = Dse.cache () in
  let r1 = Dse.optimize ~budget:Resource.zc706 ~evaluate ~cache () in
  let n1 = !evals in
  let r2 = Dse.optimize ~budget:Resource.zc706 ~evaluate ~cache () in
  let n2 = !evals - n1 in
  Obs.disable ();
  Alcotest.(check bool) "results identical" true (r1 = r2);
  Alcotest.(check bool) "first run evaluated something" true (n1 > 0);
  Alcotest.(check int) "second run fully served from cache" 0 n2;
  Alcotest.(check bool) "dse.candidates.cached counter bumped" true
    (Obs.counter "dse.candidates.cached" > 0)

(* ---------- Obs under concurrent counting ---------- *)

let test_obs_counts_exact_across_domains () =
  Obs.enable ();
  Obs.reset ();
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Obs.count "par.test.hits"
            done))
  in
  List.iter Domain.join domains;
  let total = Obs.counter "par.test.hits" in
  Obs.disable ();
  Alcotest.(check int) "4 domains x 1000 increments" 4000 total

(* ---------- pool instrumentation ---------- *)

(* With telemetry on, every pool run leaves a [run_record]: lane slot
   counts must add up to the submitted items, the timeline must be
   ordered, and per-run registry metrics must appear. *)
let test_pool_run_records () =
  Obs.set_clock (fun () -> Unix.gettimeofday ());
  Obs.enable ();
  Obs.reset ();
  ignore (Pool.drain_stats ());
  let xs = Array.init 64 Fun.id in
  let out = Pool.parallel_map ~jobs:4 (fun i -> ignore (Sys.opaque_identity (sin (float_of_int i))); i * 2) xs in
  Alcotest.(check (array int)) "result intact" (Array.map (fun i -> i * 2) xs) out;
  let records = Pool.drain_stats () in
  Obs.disable ();
  (match records with
  | [ r ] ->
      Alcotest.(check int) "jobs recorded" 4 r.Pool.rjobs;
      Alcotest.(check int) "items recorded" 64 r.Pool.items;
      Alcotest.(check int) "slots partition the items" 64
        (Array.fold_left (fun acc (ls : Pool.lane_stats) -> acc + ls.Pool.slots) 0 r.Pool.lanes);
      Alcotest.(check bool) "done after submit" true (r.Pool.done_s >= r.Pool.submit_s);
      Array.iter
        (fun (ls : Pool.lane_stats) ->
          Alcotest.(check bool) "busy non-negative" true (ls.Pool.busy_s >= 0.0);
          Alcotest.(check int) "one span per slot" ls.Pool.slots
            (List.length ls.Pool.slot_spans))
        r.Pool.lanes
  | rs -> Alcotest.failf "expected 1 run record, got %d" (List.length rs));
  Obs.enable ();
  Obs.reset ();
  ignore (Pool.drain_stats ());
  (* Sequential fallback (jobs = 1) still records, as a 1-lane run. *)
  ignore (Pool.parallel_map ~jobs:1 (fun i -> i + 1) xs);
  let records = Pool.drain_stats () in
  Obs.disable ();
  Obs.reset ();
  match records with
  | [ r ] ->
      Alcotest.(check int) "seq run is one lane" 1 r.Pool.rjobs;
      Alcotest.(check int) "seq slots" 64 r.Pool.lanes.(0).Pool.slots
  | rs -> Alcotest.failf "expected 1 seq run record, got %d" (List.length rs)

let test_pool_disabled_records_nothing () =
  Obs.disable ();
  Obs.reset ();
  ignore (Pool.drain_stats ());
  ignore (Pool.parallel_map ~jobs:4 (fun i -> i + 1) (Array.init 32 Fun.id));
  Alcotest.(check int) "no records while disabled" 0 (List.length (Pool.drain_stats ()))

let test_pool_chrome_events () =
  let module Chrome_trace = Orianna_obs.Chrome_trace in
  let module Json = Orianna_obs.Json in
  Obs.set_clock (fun () -> Unix.gettimeofday ());
  Obs.enable ();
  Obs.reset ();
  ignore (Pool.drain_stats ());
  ignore (Pool.parallel_map ~jobs:2 (fun i -> i + 1) (Array.init 16 Fun.id));
  let records = Pool.drain_stats () in
  Obs.disable ();
  Obs.reset ();
  let events = Pool.chrome_events records in
  let parsed = Json.parse (Chrome_trace.to_string events) in
  match Json.member "traceEvents" parsed with
  | Some (Json.Arr evs) ->
      let pids =
        List.sort_uniq compare
          (List.filter_map
             (fun e -> match Json.member "pid" e with Some (Json.Num p) -> Some (int_of_float p) | _ -> None)
             evs)
      in
      (* one Perfetto process per lane, starting at the pool's pid base *)
      Alcotest.(check (list int)) "one pid per lane"
        [ Pool.chrome_pid_base; Pool.chrome_pid_base + 1 ]
        pids;
      let durations = List.filter (fun e -> Json.member "ph" e = Some (Json.Str "X")) evs in
      Alcotest.(check int) "one slice per slot" 16 (List.length durations)
  | _ -> Alcotest.fail "missing traceEvents"

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map bit-identical at jobs 1/2/4" `Quick
            test_parallel_map_identical;
          Alcotest.test_case "parallel_map preserves input order" `Quick test_parallel_map_order;
          Alcotest.test_case "first failing slot re-raised" `Quick test_exception_first_slot;
          Alcotest.test_case "slot 0's failure wins over a later one" `Quick
            test_exception_slot0_first;
          Alcotest.test_case "nested map inside slot 0 runs sequentially" `Quick
            test_nested_in_slot0_sequential;
          Alcotest.test_case "float results stay a flat float array" `Quick
            test_float_results_flat;
          Alcotest.test_case "map_reduce folds in input order" `Quick test_map_reduce_deterministic;
          Alcotest.test_case "nested parallel_map runs sequentially" `Quick
            test_nested_runs_sequentially;
          QCheck_alcotest.to_alcotest prop_chunk_ranges;
        ] );
      ( "rng",
        [
          Alcotest.test_case "split_n = repeated split" `Quick test_split_n_matches_split_loop;
        ] );
      ("schedule", [ QCheck_alcotest.to_alcotest prop_schedule_matches_seed_reference ]);
      ( "sweeps",
        [
          Alcotest.test_case "campaign identical at -j1 and -j4" `Quick
            test_campaign_identical_across_jobs;
          Alcotest.test_case "DSE shared cache memoizes candidates" `Quick
            test_dse_shared_cache_memoizes;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "run records account for every slot" `Quick test_pool_run_records;
          Alcotest.test_case "disabled registry records nothing" `Quick
            test_pool_disabled_records_nothing;
          Alcotest.test_case "chrome events: one track per lane" `Quick test_pool_chrome_events;
        ] );
      ( "obs",
        [
          Alcotest.test_case "counters exact across 4 domains" `Quick
            test_obs_counts_exact_across_domains;
        ] );
    ]
