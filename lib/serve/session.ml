open Orianna_fg
module Stream = Orianna_apps.Stream
module Obs = Orianna_obs.Obs
module Json = Orianna_obs.Json
module Texttable = Orianna_util.Texttable

type params = {
  max_sessions : int;
  idle_timeout_s : float;
  window : int option;
  relin_threshold : float;
  max_relin_passes : int;
  template_ticks : int;
  tick_overhead_s : float;
}

let default_params =
  {
    max_sessions = 8;
    idle_timeout_s = 50e-3;
    window = None;
    relin_threshold = 0.05;
    max_relin_passes = 3;
    template_ticks = 12;
    tick_overhead_s = 20e-6;
  }

type mission = {
  mid : int;
  stream : Stream.t;
  start_s : float;
  period_s : float;
  priority : Request.priority;
  deadline_slack_s : float;
}

let staggered_missions ~tenants ~period_s stream =
  let tenants = max 1 tenants in
  List.init tenants (fun mid ->
      {
        mid;
        stream;
        start_s = float_of_int mid *. period_s /. float_of_int tenants;
        period_s;
        priority = Request.Normal;
        deadline_slack_s = 50e-3;
      })

(* Tick request ids live above this base so they can never collide
   with a generated solve trace (ids there are trace positions). *)
let id_base = 1_000_000

let max_steps = 10_000

(* Accounting that survives eviction: the session's whole history. *)
type meta = {
  m_mission : mission;
  m_key : int32;
  m_graphs : (string * Graph.t) list;
  m_template_vars : int;
  mutable m_ticks : int;
  mutable m_replays : int;
  mutable m_restarts : int;
  mutable m_evictions : int;
  mutable m_expiries : int;
  mutable m_dropped : int;
  mutable m_affected : (int * float) list;  (* (affected, fraction) per update, newest first *)
  mutable m_live : int;
  mutable m_marginalized : int;
}

(* A resident session: the live smoother and its replay cursor. *)
type resident = { r_sm : Smoother.t; mutable r_next : int; mutable r_used_s : float }

type t = {
  params : params;
  metas : (int, meta) Hashtbl.t;
  resident : (int, resident) Hashtbl.t;
  order : int list;  (* mission ids, ascending *)
}

let create ?(params = default_params) ~opt_level ~missions () =
  if params.max_sessions <= 0 then invalid_arg "Session.create: max_sessions must be positive";
  if params.template_ticks <= 0 then invalid_arg "Session.create: template_ticks must be positive";
  let metas = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if m.mid < 0 then invalid_arg "Session.create: negative mission id";
      if Hashtbl.mem metas m.mid then invalid_arg "Session.create: duplicate mission id";
      let len = Stream.length m.stream in
      if len = 0 then invalid_arg "Session.create: empty stream";
      if len > max_steps then invalid_arg "Session.create: stream too long";
      let graphs =
        [
          ( m.stream.Stream.sname,
            Stream.prefix_graph m.stream ~n:(min params.template_ticks len) );
        ]
      in
      let key = Cache.structural_key ~opt_level graphs in
      let template_vars =
        List.fold_left (fun acc (_, g) -> acc + List.length (Graph.variables g)) 0 graphs
      in
      Hashtbl.replace metas m.mid
        {
          m_mission = m;
          m_key = key;
          m_graphs = graphs;
          m_template_vars = template_vars;
          m_ticks = 0;
          m_replays = 0;
          m_restarts = 0;
          m_evictions = 0;
          m_expiries = 0;
          m_dropped = 0;
          m_affected = [];
          m_live = 0;
          m_marginalized = 0;
        })
    missions;
  let order = List.sort compare (List.map (fun m -> m.mid) missions) in
  { params; metas; resident = Hashtbl.create 16; order }

let mission_requests t =
  List.concat_map
    (fun mid ->
      let meta = Hashtbl.find t.metas mid in
      let m = meta.m_mission in
      List.init (Stream.length m.stream) (fun step ->
          let arrival = m.start_s +. (float_of_int step *. m.period_s) in
          {
            Request.id = id_base + (mid * max_steps) + step;
            app = m.stream.Stream.sname;
            seed = mid;
            priority = m.priority;
            arrival_s = arrival;
            deadline_s = arrival +. m.deadline_slack_s;
            kind = Request.Tick { session = mid; step };
          }))
    t.order

let key_of t (r : Request.t) =
  match r.Request.kind with
  | Request.Solve -> None
  | Request.Tick { session; _ } ->
      Option.map (fun meta -> meta.m_key) (Hashtbl.find_opt t.metas session)

let template_graphs t ~session = (Hashtbl.find t.metas session).m_graphs

(* Lazy idle-timeout sweep: expire every resident session whose last
   touch is more than the timeout ago.  Sorted ids keep the sweep (and
   its Obs counters) independent of hash-table layout. *)
let expire_idle t ~now_s =
  if t.params.idle_timeout_s > 0.0 then begin
    let stale =
      Hashtbl.fold
        (fun sid r acc ->
          if now_s -. r.r_used_s > t.params.idle_timeout_s then sid :: acc else acc)
        t.resident []
      |> List.sort compare
    in
    List.iter
      (fun sid ->
        Hashtbl.remove t.resident sid;
        let meta = Hashtbl.find t.metas sid in
        meta.m_expiries <- meta.m_expiries + 1;
        Obs.count "serve.session.expired")
      stale
  end

(* LRU capacity eviction: oldest last touch goes, smaller id on a
   tie. *)
let evict_for_room t =
  if Hashtbl.length t.resident >= t.params.max_sessions then begin
    let victim =
      Hashtbl.fold
        (fun sid r acc ->
          match acc with
          | Some (bsid, best) when (best.r_used_s, bsid) <= (r.r_used_s, sid) -> acc
          | _ -> Some (sid, r))
        t.resident None
    in
    match victim with
    | Some (sid, _) ->
        Hashtbl.remove t.resident sid;
        let meta = Hashtbl.find t.metas sid in
        meta.m_evictions <- meta.m_evictions + 1;
        Obs.count "serve.session.evicted"
    | None -> ()
  end

let resident_for t meta ~now_s =
  let sid = meta.m_mission.mid in
  match Hashtbl.find_opt t.resident sid with
  | Some r -> r
  | None ->
      evict_for_room t;
      let sparams =
        {
          Smoother.relin_threshold = t.params.relin_threshold;
          max_relin_passes = t.params.max_relin_passes;
          window = t.params.window;
        }
      in
      let r = { r_sm = Smoother.create ~params:sparams (); r_next = 0; r_used_s = now_s } in
      Hashtbl.replace t.resident sid r;
      if meta.m_ticks > 0 then begin
        (* The session had progress before it was evicted or expired:
           this is a restart, and the fast-forward below refolds the
           stream from the top. *)
        meta.m_restarts <- meta.m_restarts + 1;
        Obs.count "serve.session.restart"
      end;
      r

let execute t ~now_s ~base_s (r : Request.t) =
  match r.Request.kind with
  | Request.Solve -> invalid_arg "Session.execute: not a tick request"
  | Request.Tick { session; step } ->
      let meta =
        match Hashtbl.find_opt t.metas session with
        | Some m -> m
        | None -> invalid_arg "Session.execute: unknown session"
      in
      expire_idle t ~now_s;
      let res = resident_for t meta ~now_s in
      res.r_used_s <- now_s;
      Obs.count "serve.session.tick";
      if step < res.r_next then begin
        (* Already folded in (an earlier tick of the same batch
           fast-forwarded past this step, or a retry of recovered
           in-flight work): nothing to solve. *)
        meta.m_replays <- meta.m_replays + 1;
        Obs.count "serve.session.replay";
        t.params.tick_overhead_s
      end
      else begin
        let stream = meta.m_mission.stream in
        let last = min step (Stream.length stream - 1) in
        for k = res.r_next to last do
          meta.m_dropped <- meta.m_dropped + Stream.apply_tick res.r_sm stream.Stream.ticks.(k)
        done;
        meta.m_ticks <- meta.m_ticks + (last - res.r_next + 1);
        res.r_next <- last + 1;
        Smoother.update res.r_sm;
        let st = Smoother.stats res.r_sm in
        let fraction =
          if st.Smoother.total_variables = 0 then 0.0
          else float_of_int st.Smoother.affected_last /. float_of_int st.Smoother.total_variables
        in
        meta.m_affected <- (st.Smoother.affected_last, fraction) :: meta.m_affected;
        meta.m_live <- st.Smoother.total_variables;
        meta.m_marginalized <- st.Smoother.marginalized;
        t.params.tick_overhead_s
        +. base_s
           *. (float_of_int st.Smoother.affected_last /. float_of_int (max 1 meta.m_template_vars))
      end

type session_stats = {
  sid : int;
  sname : string;
  ticks_applied : int;
  replays : int;
  restarts : int;
  evictions : int;
  expiries : int;
  dropped_factors : int;
  live_variables : int;
  marginalized : int;
  median_affected : float;
  median_affected_fraction : float;
}

type report = {
  per_session : session_stats list;
  active : int;
  ticks_total : int;
  replays_total : int;
  restarts_total : int;
  evictions_total : int;
  expiries_total : int;
}

let median xs = if xs = [] then 0.0 else Orianna_util.Stats.median (Array.of_list xs)

let report t =
  let per_session =
    List.map
      (fun sid ->
        let m = Hashtbl.find t.metas sid in
        {
          sid;
          sname = m.m_mission.stream.Stream.sname;
          ticks_applied = m.m_ticks;
          replays = m.m_replays;
          restarts = m.m_restarts;
          evictions = m.m_evictions;
          expiries = m.m_expiries;
          dropped_factors = m.m_dropped;
          live_variables = m.m_live;
          marginalized = m.m_marginalized;
          median_affected = median (List.map (fun (a, _) -> float_of_int a) m.m_affected);
          median_affected_fraction = median (List.map snd m.m_affected);
        })
      t.order
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 per_session in
  {
    per_session;
    active = Hashtbl.length t.resident;
    ticks_total = sum (fun s -> s.ticks_applied);
    replays_total = sum (fun s -> s.replays);
    restarts_total = sum (fun s -> s.restarts);
    evictions_total = sum (fun s -> s.evictions);
    expiries_total = sum (fun s -> s.expiries);
  }

let report_json r =
  Json.Obj
    [
      ("active", Json.int r.active);
      ("ticks", Json.int r.ticks_total);
      ("replays", Json.int r.replays_total);
      ("restarts", Json.int r.restarts_total);
      ("evictions", Json.int r.evictions_total);
      ("expiries", Json.int r.expiries_total);
      ( "per_session",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("sid", Json.int s.sid);
                   ("stream", Json.Str s.sname);
                   ("ticks", Json.int s.ticks_applied);
                   ("replays", Json.int s.replays);
                   ("restarts", Json.int s.restarts);
                   ("evictions", Json.int s.evictions);
                   ("expiries", Json.int s.expiries);
                   ("dropped_factors", Json.int s.dropped_factors);
                   ("live_variables", Json.int s.live_variables);
                   ("marginalized", Json.int s.marginalized);
                   ("median_affected", Json.Num s.median_affected);
                   ("median_affected_fraction", Json.Num s.median_affected_fraction);
                 ])
             r.per_session) );
    ]

let table r =
  let t =
    Texttable.create ~title:"Sessions"
      ~headers:
        [ "sid"; "stream"; "ticks"; "replays"; "restarts"; "evict"; "expire"; "live"; "marg"; "med affected" ]
  in
  List.iter
    (fun s ->
      Texttable.add_row t
        [
          string_of_int s.sid;
          s.sname;
          string_of_int s.ticks_applied;
          string_of_int s.replays;
          string_of_int s.restarts;
          string_of_int s.evictions;
          string_of_int s.expiries;
          string_of_int s.live_variables;
          string_of_int s.marginalized;
          Printf.sprintf "%.1f (%.1f%%)" s.median_affected (100.0 *. s.median_affected_fraction);
        ])
    r.per_session;
  Texttable.render t
