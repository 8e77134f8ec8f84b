(* serve: open loop on the virtual clock, replayed by one DES on one job.

   A main replay mixes Poisson one-shot solves over the four apps at
   20 kHz (the CLI defaults: 15/70/15 priorities, 1-4 ms deadlines)
   with four session tenants, each streaming a Manhattan mission
   through a 40-variable window at a fixed period across the whole
   trace.  The solves hit four app templates and the tenants share one
   stream template, so the replay needs 5 cache entries and fits the
   8-entry compile cache: every solve after an app's first repeats a
   structure already compiled.  The capacity search bisects solve-only
   replays on arrival rate.  Main replays repeat, each on fresh inputs,
   until the measured time is used up. *)

open Orianna_serve
module App = Orianna_apps.App
module Stream = Orianna_apps.Stream
module Datasets = Orianna_apps.Datasets
module Smoother = Orianna_fg.Smoother
module Obs = Orianna_obs.Obs
module Pool = Orianna_par.Pool
module Rng = Orianna_util.Rng

let rate_hz = 20_000.0
let main_solves = 6_000
let mission_steps = 120
let tenants = 4
let window = 40

(* Requests arriving before the [warmup]th solve of a trace are left
   out of latency percentiles: the compile cache is still filling. *)
let warmup = 300
let probe_solves = 1_500
let probe_limit_ms = 1.0
let apps = List.map (fun (a : App.t) -> a.App.name) App.all
(* The CLI's serve defaults but for a queue of 128 instead of 64.  Each
   main replay starts with a cold compile cache, and every miss charges
   its batch the 2 ms compile + generate penalty; at 20 kHz the queue
   reaches 40-64 requests in the first 2 ms.  With 64, one main replay
   in about 200 shed one or two low-priority solves there, which count
   as failed and make the run incorrect; with 128 none did. *)
let config = { Serve.default_config with Serve.queue_capacity = 128 }

let session_params = { Session.default_params with Session.window = Some window }

let solves ~rng ~rate ~n =
  Obs.with_span "Request.generate" (fun () ->
      Request.generate ~rng ~shape:(Request.Poisson { rate_hz = rate }) ~apps
        ~deadline_s:(1e-3, 4e-3) ~n)

type main = {
  trace : Request.t list;
  stream : Stream.t;
  sessions : Session.t;
  ids : int list;  (** every request id the replay must end *)
  cutoff_s : float;  (** end of the warm-up prefix *)
}

(* Inputs of main replay [r]: its solve trace, the tenants' mission, and
   the sessions (Session.create keys and templates each mission). *)
let main_inputs ?(steps = mission_steps) ~seed ~solves:n r =
  let trace = solves ~rng:(Rng.of_int (Drive.derive ~seed ~stream:2 r)) ~rate:rate_hz ~n in
  let last = List.nth trace (n - 1) in
  let stream =
    Obs.with_span "Stream.manhattan" (fun () ->
        Stream.manhattan
          ~cfg:{ Datasets.default_config with Datasets.steps = steps; seed = Drive.derive ~seed ~stream:3 r }
          ())
  in
  let period_s = last.Request.arrival_s /. float_of_int (Stream.length stream) in
  let missions =
    List.init tenants (fun mid ->
        {
          Session.mid;
          stream;
          start_s = float_of_int mid *. period_s /. float_of_int tenants;
          period_s;
          priority = Request.Normal;
          deadline_slack_s = 50e-3;
        })
  in
  let sessions = Session.create ~params:session_params ~opt_level:config.Serve.opt_level ~missions () in
  let ids =
    List.map (fun (q : Request.t) -> q.Request.id) (trace @ Session.mission_requests sessions)
  in
  { trace; stream; sessions; ids; cutoff_s = (List.nth trace (min warmup (n - 1))).Request.arrival_s }

let replay ~kind ?sessions trace =
  Obs.with_span ~attrs:[ ("kind", kind) ] "Serve.run" (fun () -> Serve.run ~config ?sessions ~trace ())

(* Conservation: every request id ends exactly once, completed or
   refused, and no id completes twice. *)
let conservation ids (r : Serve.report) =
  let seen = Hashtbl.create (List.length ids) in
  let dup = ref 0 in
  let mark id =
    if Hashtbl.mem seen id then incr dup;
    Hashtbl.replace seen id ()
  in
  List.iter (fun (c : Serve.completion) -> mark c.Serve.request.Request.id) r.Serve.completions;
  List.iter (fun ((q : Request.t), _) -> mark q.Request.id) r.Serve.rejections;
  let missing = List.filter (fun id -> not (Hashtbl.mem seen id)) ids in
  if !dup = 0 && missing = [] && Hashtbl.length seen = List.length ids && r.Serve.total = List.length ids
  then []
  else
    [
      Printf.sprintf "conservation: %d ids, %d ended, %d ended twice, %d never ended" (List.length ids)
        (Hashtbl.length seen) !dup (List.length missing);
    ]

(* Linear-interpolation percentile over a sample where refused
   requests are infinitely late. *)
let percentile_inf xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let frac = rank -. float_of_int lo in
    if frac = 0.0 then a.(lo)
    else if a.(lo + 1) = infinity then infinity
    else a.(lo) +. (frac *. (a.(lo + 1) -. a.(lo)))

(* Post-warm-up virtual-clock latencies (ms) by request kind; refused
   requests count as infinitely late. *)
let latencies ~cutoff_s (r : Serve.report) =
  let keep (q : Request.t) = q.Request.arrival_s >= cutoff_s in
  let tick (q : Request.t) = match q.Request.kind with Request.Tick _ -> true | Request.Solve -> false in
  let done_ =
    List.filter_map
      (fun (c : Serve.completion) ->
        let q = c.Serve.request in
        if keep q then Some (tick q, (c.Serve.finish_s -. q.Request.arrival_s) *. 1e3) else None)
      r.Serve.completions
  and refused =
    List.filter_map
      (fun ((q : Request.t), _) -> if keep q then Some (tick q, infinity) else None)
      r.Serve.rejections
  in
  done_ @ refused

let p99_of l = percentile_inf (List.map snd l) 99.0

(* One capacity probe: the same solve sequence, time-scaled to [rate]. *)
let probe ~seed rate =
  let trace = solves ~rng:(Rng.of_int (Drive.derive ~seed ~stream:5 0)) ~rate ~n:probe_solves in
  let r = replay ~kind:"probe" trace in
  let cutoff_s = (List.nth trace warmup).Request.arrival_s in
  (p99_of (latencies ~cutoff_s r), r)

type capacity = {
  max_rate : float;
  bracket : float * float;  (** last passing and first failing doubling *)
  probes : (float * float) list;  (** (rate, p99 ms) in probe order *)
  requests : int;
}

(* The highest Poisson solve rate whose post-warm-up p99 meets the
   tightest deadline: double from 20 kHz until a probe fails, then
   bisect until the bracket is within 2 %. *)
let capacity_search ~seed =
  let probes = ref [] in
  let passes rate =
    let p99, _ = probe ~seed rate in
    probes := (rate, p99) :: !probes;
    p99 <= probe_limit_ms
  in
  let lo = ref rate_hz and hi = ref (2.0 *. rate_hz) in
  if not (passes !lo) then failwith "serve: the 20 kHz capacity probe misses its limit";
  while passes !hi do
    lo := !hi;
    hi := 2.0 *. !hi
  done;
  let bracket = (!lo, !hi) in
  while (!hi -. !lo) /. !lo > 0.02 do
    let mid = (!lo +. !hi) /. 2.0 in
    if passes mid then lo := mid else hi := mid
  done;
  let probes = List.rev !probes in
  { max_rate = !lo; bracket; probes; requests = probe_solves * List.length probes }

let run ~seed ~seconds ~trace =
  Pool.set_default_jobs 1;
  let failed = ref 0 and errors = ref [] in
  let check msgs = errors := !errors @ msgs in
  (* Setup: the inputs of the first main replay and of the capacity
     probes, then one short untimed main replay (sessions long enough to
     marginalize); a probe runs a subset of its code paths. *)
  let setup () =
    let m = main_inputs ~seed ~solves:main_solves 0 in
    ignore (solves ~rng:(Rng.of_int (Drive.derive ~seed ~stream:5 0)) ~rate:rate_hz ~n:probe_solves);
    let w = main_inputs ~steps:60 ~seed:(Drive.derive ~seed ~stream:6 0) ~solves:600 0 in
    check (conservation w.ids (replay ~kind:"warmup" ~sessions:w.sessions w.trace));
    m
  in
  let first, setup0 = Drive.time setup in
  let per_request = ref [] and host_s = ref 0.0 and requests = ref 0 and attempted = ref 0 in
  let replay0 = ref None and capacity = ref None and first_heap = ref 0.0 in
  let attempt i =
    if i = 1 then begin
      let c, dt = Drive.time (fun () -> Obs.with_span "capacity_search" (fun () -> capacity_search ~seed)) in
      host_s := !host_s +. dt;
      requests := !requests + c.requests;
      capacity := Some (c, dt);
      first_heap := Metric.peak_heap_mb ()
    end
    else begin
      let m = if i = 0 then first else main_inputs ~seed ~solves:main_solves (i - 1) in
      let r, dt = Drive.time (fun () -> replay ~kind:"main" ~sessions:m.sessions m.trace) in
      host_s := !host_s +. dt;
      requests := !requests + r.Serve.total;
      attempted := !attempted + r.Serve.total;
      per_request := (dt *. 1e3 /. float_of_int r.Serve.total) :: !per_request;
      failed := !failed + List.length r.Serve.rejections;
      check (conservation m.ids r);
      if i = 0 then replay0 := Some (m, r)
    end
  in
  let item i =
    try attempt i with e ->
      incr failed;
      check [ Printf.sprintf "item %d raised %s" i (Printexc.to_string e) ]
  in
  let words0 = Drive.minor_words () and majors0 = Drive.major_collections () in
  let { Drive.items = n; setup_s = reps; cal_s } =
    (* Half the time, so the traced mix of main replays and probes is
       close to the untraced run's.  Ten calibration runs per item
       (about 2 % of a main replay) give the kernel about as many runs
       as accelgen's. *)
    let cal_reps = 10 in
    if trace then Drive.loop ~seconds:(seconds /. 2.0) ~min_items:2 ~cal_reps item
    else Drive.loop ~seconds ~min_items:2 ~cal_reps ~setup_reps:6 ~setup:(fun () -> ignore (setup ())) item
  in
  let words = Drive.minor_words () -. words0 and majors = Drive.major_collections () - majors0 in
  let m0, r0 = Option.get !replay0 and cap, cap_s = Option.get !capacity in
  let lat = latencies ~cutoff_s:m0.cutoff_s r0 in
  let kind_p99 tick = p99_of (List.filter (fun (t, _) -> t = tick) lat) in
  let lo, hi = cap.bracket in
  let item_ms = Drive.median_of !per_request and cal_ms = Drive.trimmed_mean cal_s *. 1e3 in
  let shared =
    [
      ("modeled_p50_ms", percentile_inf (List.map snd lat) 50.0);
      ("modeled_p99_ms", p99_of lat);
      ("max_rate_hz", cap.max_rate);
      ("items_per_s", float_of_int !requests /. !host_s);
      ("item_ms.p50", item_ms);
      ("cal_ms.mean", cal_ms);
    ]
  in
  let notes =
    [
      ("main replays", string_of_int (n - 1));
      ( "main replay",
        Printf.sprintf "%d solves at %.0f Hz + %d tenants x %d ticks, window %d" main_solves rate_hz tenants
          (Stream.length m0.stream) window );
      ("latency samples", Printf.sprintf "%d after a %d-solve warm-up prefix" (List.length lat) warmup);
      ( "max_rate bracket",
        Printf.sprintf "%.0f..%.0f Hz, %d probes of %d solves, p99 <= %.1f ms after %d" lo hi
          (List.length cap.probes) probe_solves probe_limit_ms warmup );
      ("max_rate_bracket_lo", Printf.sprintf "%.17g" lo);
      ("max_rate_bracket_hi", Printf.sprintf "%.17g" hi);
      ("replay_ms per request", String.concat " " (List.rev_map (Printf.sprintf "%.4f") !per_request));
      ("item_ms.p50", "host ms per simulated request, median over the main replays");
      ("calibration runs", string_of_int (List.length cal_s));
    ]
  in
  let host_values =
    [
      ("setup_s", Drive.median_of (setup0 :: reps));
      ("item_cal.p50", item_ms /. cal_ms);
      ("peak_heap_mb", !first_heap);
    ]
  in
  if not trace then
    { Metric.attempted = !attempted; failed = !failed; errors = !errors; values = host_values @ shared; notes }
  else begin
    (* Traced pass over the same replays. *)
    ignore (Pool.drain_stats ());
    Obs.enable ();
    let traced_wall = ref 0.0 and deltas = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      let thunk =
        if i = 1 then fun () -> ignore (Obs.with_span "capacity_search" (fun () -> capacity_search ~seed))
        else
          let m = main_inputs ~seed ~solves:main_solves (if i = 0 then 0 else i - 1) in
          fun () -> ignore (replay ~kind:"main" ~sessions:m.sessions m.trace)
      in
      let (), dt = Drive.count_into deltas (fun () -> Drive.time thunk) in
      traced_wall := !traced_wall +. dt
    done;
    (* The admission key has no span inside Serve.run: recompute it the
       way admission does for every solve of the first replay.  The
       distinct keys, with the session template's, must be exactly the
       replay's cache misses. *)
    let keys = Hashtbl.create 8 in
    List.iter
      (fun (q : Request.t) ->
        let app = App.find q.Request.app in
        let graphs = Obs.with_span "App.graphs" (fun () -> app.App.graphs (Rng.of_int q.Request.seed)) in
        let key =
          Obs.with_span "Cache.structural_key" (fun () ->
              Cache.structural_key ~opt_level:config.Serve.opt_level graphs)
        in
        Hashtbl.replace keys key ())
      m0.trace;
    List.iter
      (fun q -> Option.iter (fun k -> Hashtbl.replace keys k ()) (Session.key_of m0.sessions q))
      (Session.mission_requests m0.sessions);
    let cstats = r0.Serve.cache in
    if Hashtbl.length keys <> cstats.Cache.misses || cstats.Cache.evictions <> 0 then
      check
        [
          Printf.sprintf "admission keys: %d distinct keys but %d cache misses, %d evictions"
            (Hashtbl.length keys) cstats.Cache.misses cstats.Cache.evictions;
        ];
    (* Windowed session updates run inside Serve.run: replay the first
       replay's mission through a smoother with the session parameters
       and check it sees the same affected counts. *)
    let sm =
      Smoother.create
        ~params:
          {
            Smoother.relin_threshold = session_params.Session.relin_threshold;
            max_relin_passes = session_params.Session.max_relin_passes;
            window = session_params.Session.window;
          }
        ()
    in
    let affected =
      Array.map
        (fun tick ->
          ignore (Obs.with_span "Stream.apply_tick" (fun () -> Stream.apply_tick sm tick));
          Obs.with_span "Smoother.update" (fun () -> Smoother.update sm);
          float_of_int (Smoother.stats sm).Smoother.affected_last)
        m0.stream.Stream.ticks
    in
    let forest = Obs.spans () in
    let records = Pool.drain_stats () in
    (* The full-history smoother, which no serve request runs, on
       missions of its own; see Smoother_pass. *)
    let pass_values, pass_errors, pass_note = Smoother_pass.run ~seed in
    failed := !failed + List.length pass_errors;
    check pass_errors;
    Obs.disable ();
    Drive.write_trace ~path:(Printf.sprintf "%s/serve-seed%d.trace.json" Drive.out_dir seed) records;
    let srep = Option.get r0.Serve.sessions in
    let s0 = List.hd srep.Session.per_session in
    if srep.Session.replays_total = 0 && srep.Session.restarts_total = 0
       && Orianna_util.Stats.median affected <> s0.Session.median_affected
    then
      check
        [
          Printf.sprintf "session replay: median affected %g, the session saw %g"
            (Orianna_util.Stats.median affected) s0.Session.median_affected;
        ];
    let runs = Drive.named "Serve.run" forest in
    let mains = List.filter (fun s -> List.mem ("kind", "main") s.Obs.attrs) runs in
    let compile_dse l =
      Drive.total_s
        (Drive.named "compile.application" l @ Drive.named "dse.optimize" l)
    in
    let n_main = float_of_int (List.length mains) in
    let serve_s = Drive.total_s runs in
    let batches = r0.Serve.batches in
    let update_ms = List.map (fun s -> s.Obs.dur_s *. 1e3) (Drive.named "Smoother.update" forest) in
    {
      Metric.attempted = !attempted;
      failed = !failed;
      errors = !errors;
      values =
        shared
        @ Drive.layer_metrics ~items:(List.length runs) ~item_roots:[ "Serve.run" ]
~counters:deltas forest records
        @ [
            ("target_layer_share", (serve_s -. compile_dse runs) /. !traced_wall);
            ("apps.graphs_ms", Drive.mean_ms "App.graphs" forest);
            ("apps.mission_build_ms", Drive.mean_ms "Stream.manhattan" forest);
            ("apps.trace_build_ms", Drive.mean_ms "Request.generate" forest);
            ( "serve.admission_key_us",
              (Drive.total_s (Drive.named "App.graphs" forest) +. Drive.total_s (Drive.named "Cache.structural_key" forest))
              *. 1e6 /. float_of_int (List.length m0.trace) );
            ("serve.cold_miss_s", compile_dse mains /. n_main);
            ("serve.des_self_s", Drive.self_s mains /. n_main);
            ("serve.compile_dse_share", compile_dse runs /. !traced_wall);
            ("serve.capacity_search_s", cap_s);
            ("serve.capacity_probes", float_of_int (List.length cap.probes));
            ("serve.cache_hit_rate", Cache.hit_rate cstats);
            ( "serve.mean_batch_size",
              float_of_int (List.fold_left (fun acc b -> acc + b.Serve.bsize) 0 batches)
              /. float_of_int (List.length batches) );
            ("serve.queue_depth_max", float_of_int r0.Serve.queue_depth_max);
            ("serve.rejected", float_of_int (List.length r0.Serve.rejections));
            ("serve.deadline_miss_rate", r0.Serve.deadline_miss_rate);
            ("serve.modeled_p99_ms.solve", kind_p99 false);
            ("serve.modeled_p99_ms.tick", kind_p99 true);
            ("serve.modeled_p99_ms.40khz", Option.value (List.assoc_opt (2.0 *. rate_hz) cap.probes) ~default:0.0);
            ("session.update_ms.p50", Orianna_util.Stats.percentile (Array.of_list update_ms) 50.0);
            ("session.affected_fraction.p50", s0.Session.median_affected_fraction);
            ( "session.marginalized",
              float_of_int (List.fold_left (fun acc s -> acc + s.Session.marginalized) 0 srep.Session.per_session) );
            ("session.restarts", float_of_int srep.Session.restarts_total);
            ("gc.minor_mwords_per_item", words /. 1e6 /. float_of_int !requests);
            ("gc.major_collections", float_of_int majors);
            ("obs.trace_overhead_ratio", (!traced_wall /. !host_s) -. 1.0);
          ]
        @ pass_values;
      notes = notes @ [ ("smoother pass", pass_note) ];
    }
  end
