open Orianna_util
module Serve = Orianna_serve.Serve
module Request = Orianna_serve.Request
module Dispatch = Orianna_serve.Dispatch
module Chaos = Orianna_serve.Chaos
module Json = Orianna_obs.Json

type config = {
  runs : int;
  requests : int;
  rate_hz : float;
  apps : string list;
  deadline_s : float * float;
  intensity : float;
  mttr_s : float;
  max_retries : int;
  hedge : bool;
  policy : Dispatch.policy;
  instances : int;
  opt_level : int;
}

let default_config =
  {
    runs = 16;
    requests = 120;
    rate_hz = Request.default_rate_hz;
    apps = [];
    deadline_s = Request.default_deadline_s;
    intensity = 0.1;
    mttr_s = 2e-3;
    max_retries = 2;
    hedge = false;
    policy = Dispatch.Edf;
    instances = 4;
    opt_level = 1;
  }

type run_result = {
  run : int;
  availability : float;
  completion_rate : float;  (** completed / admitted *)
  p99_ms : float;
  deadline_miss_rate : float;
  retries : int;
  failed_after_retries : int;
  crashes : int;
  hangs : int;
  conserved : bool;  (** every trace id in exactly one terminal state *)
}

type summary = {
  config : config;
  results : run_result list;
  availability_min : float;
  availability_mean : float;
  completion_mean : float;
  p99_min_ms : float;
  p99_mean_ms : float;
  p99_max_ms : float;
  total_retries : int;
  total_failed : int;
  all_conserved : bool;
}

(* The fleet-level conservation law: completions and structured
   rejections partition the trace's request ids — nothing lost, nothing
   duplicated, even with hedged copies racing. *)
let conserved (trace : Request.t list) (r : Serve.report) =
  let module IS = Set.Make (Int) in
  let ids = List.fold_left (fun s (q : Request.t) -> IS.add q.Request.id s) IS.empty trace in
  let comp =
    List.fold_left (fun s (c : Serve.completion) -> IS.add c.Serve.request.Request.id s) IS.empty
      r.Serve.completions
  in
  let rej =
    List.fold_left (fun s ((q : Request.t), _) -> IS.add q.Request.id s) IS.empty r.Serve.rejections
  in
  List.length r.Serve.completions = IS.cardinal comp
  && List.length r.Serve.rejections = IS.cardinal rej
  && IS.inter comp rej = IS.empty
  && IS.equal (IS.union comp rej) ids

let run ?(config = default_config) ~rng () =
  if config.runs <= 0 then invalid_arg "Fleet_chaos.run: need at least one run";
  if config.apps = [] then invalid_arg "Fleet_chaos.run: no apps";
  (* Split table up front, sequentially: each Monte-Carlo run gets an
     independent trace stream and chaos seed, so the campaign is a pure
     function of [rng] at any job count. *)
  let inputs =
    List.init config.runs (fun i ->
        let trace_rng = Rng.split rng in
        let chaos_seed = Rng.int (Rng.split rng) 0x3FFFFFFF in
        (i, trace_rng, chaos_seed))
  in
  let one (i, trace_rng, chaos_seed) =
    let trace =
      Request.generate ~rng:trace_rng
        ~shape:(Request.Poisson { rate_hz = config.rate_hz })
        ~apps:config.apps ~deadline_s:config.deadline_s ~n:config.requests
    in
    let serve_config =
      {
        Serve.default_config with
        Serve.instances = config.instances;
        policy = config.policy;
        opt_level = config.opt_level;
        max_retries = config.max_retries;
        hedge = config.hedge;
        chaos =
          Some (Chaos.of_intensity ~seed:chaos_seed ~mttr_s:config.mttr_s config.intensity);
      }
    in
    let r = Serve.run ~config:serve_config ~trace () in
    let c = match r.Serve.chaos with Some c -> c | None -> assert false in
    {
      run = i;
      availability = c.Serve.availability;
      completion_rate =
        (if r.Serve.admitted = 0 then 1.0
         else float_of_int r.Serve.completed /. float_of_int r.Serve.admitted);
      p99_ms = r.Serve.p99_ms;
      deadline_miss_rate = r.Serve.deadline_miss_rate;
      retries = c.Serve.retries;
      failed_after_retries = c.Serve.failed_after_retries;
      crashes = c.Serve.crashes;
      hangs = c.Serve.hangs;
      conserved = conserved trace r;
    }
  in
  let results = Orianna_par.Pool.parallel_map_list ~chunk:1 one inputs in
  let fold f init = List.fold_left f init results in
  let nf = float_of_int config.runs in
  {
    config;
    results;
    availability_min = fold (fun acc r -> Float.min acc r.availability) 1.0;
    availability_mean = fold (fun acc r -> acc +. (r.availability /. nf)) 0.0;
    completion_mean = fold (fun acc r -> acc +. (r.completion_rate /. nf)) 0.0;
    p99_min_ms = fold (fun acc r -> Float.min acc r.p99_ms) infinity;
    p99_mean_ms = fold (fun acc r -> acc +. (r.p99_ms /. nf)) 0.0;
    p99_max_ms = fold (fun acc r -> Float.max acc r.p99_ms) 0.0;
    total_retries = fold (fun acc r -> acc + r.retries) 0;
    total_failed = fold (fun acc r -> acc + r.failed_after_retries) 0;
    all_conserved = fold (fun acc r -> acc && r.conserved) true;
  }

let silent_loss s = not s.all_conserved

let table s =
  let t =
    Texttable.create ~title:"Fleet chaos campaign"
      ~headers:[ "run"; "avail"; "done"; "p99"; "miss"; "retries"; "failed"; "crash"; "hang"; "ok" ]
  in
  List.iter
    (fun r ->
      Texttable.add_row t
        [
          string_of_int r.run;
          Printf.sprintf "%.3f" r.availability;
          Printf.sprintf "%.2f" r.completion_rate;
          Printf.sprintf "%.3f ms" r.p99_ms;
          Printf.sprintf "%.2f" r.deadline_miss_rate;
          string_of_int r.retries;
          string_of_int r.failed_after_retries;
          string_of_int r.crashes;
          string_of_int r.hangs;
          (if r.conserved then "yes" else "LOST");
        ])
    s.results;
  let sum =
    Texttable.create ~title:"Summary" ~headers:[ "metric"; "value" ]
  in
  let add k v = Texttable.add_row sum [ k; v ] in
  add "runs" (string_of_int s.config.runs);
  add "fault intensity" (Printf.sprintf "%.2f (mttr %.3f ms)" s.config.intensity (s.config.mttr_s *. 1e3));
  add "availability min/mean" (Printf.sprintf "%.4f / %.4f" s.availability_min s.availability_mean);
  add "completion rate mean" (Printf.sprintf "%.4f" s.completion_mean);
  add "p99 under faults min/mean/max"
    (Printf.sprintf "%.3f / %.3f / %.3f ms" s.p99_min_ms s.p99_mean_ms s.p99_max_ms);
  add "retries / failed-after-retries"
    (Printf.sprintf "%d / %d" s.total_retries s.total_failed);
  add "conservation" (if s.all_conserved then "all runs conserved" else "SILENT LOSS");
  Texttable.render t ^ "\n" ^ Texttable.render sum

let json s =
  Json.Obj
    [
      ( "config",
        Json.Obj
          [
            ("runs", Json.int s.config.runs);
            ("requests", Json.int s.config.requests);
            ("intensity", Json.Num s.config.intensity);
            ("mttr_s", Json.Num s.config.mttr_s);
            ("max_retries", Json.int s.config.max_retries);
            ("hedge", Json.Bool s.config.hedge);
            ("instances", Json.int s.config.instances);
            ("policy", Json.Str (Dispatch.policy_name s.config.policy));
          ] );
      ( "runs",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("run", Json.int r.run);
                   ("availability", Json.Num r.availability);
                   ("completion_rate", Json.Num r.completion_rate);
                   ("p99_ms", Json.Num r.p99_ms);
                   ("deadline_miss_rate", Json.Num r.deadline_miss_rate);
                   ("retries", Json.int r.retries);
                   ("failed_after_retries", Json.int r.failed_after_retries);
                   ("crashes", Json.int r.crashes);
                   ("hangs", Json.int r.hangs);
                   ("conserved", Json.Bool r.conserved);
                 ])
             s.results) );
      ("availability_min", Json.Num s.availability_min);
      ("availability_mean", Json.Num s.availability_mean);
      ("completion_mean", Json.Num s.completion_mean);
      ("p99_mean_ms", Json.Num s.p99_mean_ms);
      ("p99_max_ms", Json.Num s.p99_max_ms);
      ("total_retries", Json.int s.total_retries);
      ("total_failed", Json.int s.total_failed);
      ("all_conserved", Json.Bool s.all_conserved);
    ]
