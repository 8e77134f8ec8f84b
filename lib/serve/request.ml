open Orianna_util

type priority = Low | Normal | High

let priority_name = function Low -> "low" | Normal -> "normal" | High -> "high"

let priority_rank = function Low -> 0 | Normal -> 1 | High -> 2

type kind = Solve | Tick of { session : int; step : int }

let kind_name = function Solve -> "solve" | Tick _ -> "tick"

type t = {
  id : int;
  app : string;
  seed : int;
  priority : priority;
  arrival_s : float;
  deadline_s : float;
  kind : kind;
}

let slack_s t ~now_s = t.deadline_s -. now_s

type shape = Poisson of { rate_hz : float } | Bursty of { rate_hz : float; burst : int }

let exponential rng ~rate = -.log (1.0 -. Rng.float rng) /. rate

let generate ~rng ~shape ~apps ~deadline_s:(dl_lo, dl_hi) ~n =
  if apps = [] then invalid_arg "Request.generate: no apps";
  if n < 0 then invalid_arg "Request.generate: negative n";
  if dl_lo < 0.0 || dl_hi < dl_lo then invalid_arg "Request.generate: bad deadline range";
  (* The split table: one independent stream per trace dimension. *)
  let arrivals_rng = Rng.split rng in
  let apps_rng = Rng.split rng in
  let prio_rng = Rng.split rng in
  let slack_rng = Rng.split rng in
  let seed_rng = Rng.split rng in
  let apps = Array.of_list apps in
  let clock = ref 0.0 in
  List.init n (fun id ->
      (match shape with
      | Poisson { rate_hz } -> clock := !clock +. exponential arrivals_rng ~rate:rate_hz
      | Bursty { rate_hz; burst } ->
          let burst = max 1 burst in
          (* Gaps only between bursts, scaled so the mean rate still
             holds: every [burst]-th request pays the whole group's
             inter-arrival budget. *)
          if id mod burst = 0 then
            clock := !clock +. exponential arrivals_rng ~rate:(rate_hz /. float_of_int burst));
      let priority =
        let u = Rng.float prio_rng in
        if u < 0.15 then High else if u < 0.85 then Normal else Low
      in
      {
        id;
        app = apps.(Rng.int apps_rng (Array.length apps));
        seed = 1 + Rng.int seed_rng 1_000_000;
        priority;
        arrival_s = !clock;
        deadline_s = !clock +. Rng.uniform slack_rng ~lo:dl_lo ~hi:dl_hi;
        kind = Solve;
      })

let default_rate_hz = 20000.0
let default_deadline_s = (1e-3, 4e-3)

let default_trace ~rng ~apps ~n =
  generate ~rng ~shape:(Poisson { rate_hz = default_rate_hz }) ~apps
    ~deadline_s:default_deadline_s ~n

let pp ppf r =
  Format.fprintf ppf "req#%d %s seed=%d %s arr=%.6fs dl=%.6fs" r.id r.app r.seed
    (priority_name r.priority) r.arrival_s r.deadline_s
