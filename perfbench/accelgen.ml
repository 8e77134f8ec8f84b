(* accelgen: frames of the `simulate -O 3` flow, closed loop, one
   client.  Each frame compiles one application at -O 3
   (Pipeline.frame), generates its accelerator under the ZC706 budget
   for latency (Pipeline.generate, DSE fanned out on the pool), and
   runs the chosen accelerator (Schedule.run, OoO).  Apps rotate
   MobileRobot -> Manipulator -> AutoVehicle -> Quadrotor with a fresh
   seed per frame; the seed changes values, never the factor-graph
   structure, so every frame after the first four repeats a structure
   already seen. *)

open Orianna_hw
open Orianna_sim
open Orianna_isa
module App = Orianna_apps.App
module Pipeline = Orianna.Pipeline
module Compile = Orianna_compiler.Compile
module Obs = Orianna_obs.Obs
module Pool = Orianna_par.Pool
module Rng = Orianna_util.Rng

let apps = Array.of_list App.all

type frame = {
  app : App.t;
  fseed : int;
  fr : Pipeline.frame;
  dse : Dse.result;
  sched : Schedule.result;
}

(* The timed item. *)
let run_frame app fseed =
  let fr = Obs.with_span "Pipeline.frame" (fun () -> Pipeline.frame ~opt_level:3 app ~seed:fseed) in
  let dse =
    Obs.with_span "Pipeline.generate" (fun () ->
        Pipeline.generate ~budget:Resource.zc706 ~objective:`Latency fr.Pipeline.program)
  in
  let sched =
    Obs.with_span "Schedule.run" (fun () ->
        Schedule.run ~accel:dse.Dse.best ~policy:Schedule.Ooo_full fr.Pipeline.program)
  in
  { app; fseed; fr; dse; sched }

let outputs_agree a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, va) (nb, vb) ->
         na = nb
         && Array.length va = Array.length vb
         && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-9) va vb)
       a b

(* Output checks, outside the timed item: the O3 stream computes what
   the unoptimized stream computes (both built from a fresh App.graphs
   call on the frame's seed), the final schedule's accounting holds,
   and the accelerator fits the budget.  Returns the O0 length too. *)
let check f =
  let what = Printf.sprintf "%s seed %d" f.app.App.name f.fseed in
  let graphs = Obs.with_span "App.graphs" (fun () -> f.app.App.graphs (Rng.of_int f.fseed)) in
  let p0 = Compile.compile_application ~opt_level:0 graphs in
  let out0 = Obs.with_span "Program.run" (fun () -> Program.run p0) in
  let out3 = Obs.with_span "Program.run" (fun () -> Program.run f.fr.Pipeline.program) in
  let errors =
    (if outputs_agree out0 out3 then [] else [ what ^ ": O3 outputs differ from O0 by more than 1e-9" ])
    @ (match Schedule.check_invariants ~accel:f.dse.Dse.best f.fr.Pipeline.program f.sched with
      | Ok () -> []
      | Error m -> [ what ^ ": schedule invariant: " ^ m ])
    @
    if Accel.fits f.dse.Dse.best ~budget:Resource.zc706 then []
    else [ what ^ ": generated accelerator exceeds the ZC706 budget" ]
  in
  (Program.length p0, errors)

(* Pipeline.frame runs the O3 fixpoint loop on all five streams with no
   span of its own.  The traced run re-derives each stream's static -O 3
   compile and times Opt_loop.optimize on it directly; the result must
   hash like the stream the frame returned. *)
let replicate_o3_loop f =
  let g = f.fr.Pipeline.graphs in
  let streams =
    ((fun () -> Compile.compile_application ~opt_level:3 g), f.fr.Pipeline.program)
    :: List.map2
         (fun (i, (_, gi)) (_, expected) -> ((fun () -> Compile.compile ~algo:i ~opt_level:3 gi), expected))
         (List.mapi (fun i x -> (i, x)) g)
         f.fr.Pipeline.algo_programs
    @ [ ((fun () -> Compile.compile_dense_application ~opt_level:3 g), f.fr.Pipeline.dense_program) ]
  in
  List.for_all
    (fun (static, expected) ->
      let p = static () in
      let p3 = Obs.with_span "Opt_loop.optimize" (fun () -> Opt_loop.optimize ~level:3 p) in
      Program.hash p3 = Program.hash expected)
    streams

let run ~seed ~seconds ~jobs ~trace =
  Pool.set_default_jobs jobs;
  let failed = ref 0 and errors = ref [] in
  let fail msgs =
    incr failed;
    errors := !errors @ msgs
  in
  (* Setup: the pool is respawned and one untimed warm-up frame (with
     its checks) fills lazily built state. *)
  let warm_seed = Drive.derive ~seed ~stream:0 0 in
  let setup () =
    Pool.shutdown ();
    let _, errs = check (run_frame apps.(0) warm_seed) in
    if errs <> [] then fail errs
  in
  let (), setup0 = Drive.time setup in
  let frame_input i = (apps.(i mod Array.length apps), Drive.derive ~seed ~stream:1 i) in
  (* Untraced items: host times, modeled results of the first rotation. *)
  let per_app = Array.make (Array.length apps) [] and times = ref [] in
  let first = Array.make (Array.length apps) None and first_heap = ref 0.0 in
  let item i =
    let app, fseed = frame_input i in
    match Drive.time (fun () -> run_frame app fseed) with
    | exception e -> fail [ Printf.sprintf "%s seed %d raised %s" app.App.name fseed (Printexc.to_string e) ]
    | f, dt ->
        let a = i mod Array.length apps in
        per_app.(a) <- (dt *. 1e3) :: per_app.(a);
        times := dt :: !times;
        let len0, errs = check f in
        if errs <> [] then fail errs;
        if i < Array.length apps then first.(a) <- Some (f, len0);
        if i = Array.length apps - 1 then first_heap := Metric.peak_heap_mb ()
  in
  let min_items = Array.length apps in
  let words0 = Drive.minor_words () and majors0 = Drive.major_collections () in
  let { Drive.items = n; setup_s = reps; cal_s } =
    let whole = Array.length apps in
    if trace then Drive.loop ~seconds:(seconds /. 3.0) ~min_items ~whole item
    else Drive.loop ~seconds ~min_items ~whole ~setup_reps:6 ~setup item
  in
  let words = Drive.minor_words () -. words0 and majors = Drive.major_collections () - majors0 in
  let all = Array.of_list (List.rev !times) in
  let first = Array.map (function Some x -> x | None -> failwith "accelgen: first rotation failed") first in
  let results = Array.map (fun (f, _) -> f.sched) first in
  let tail = Metric.tail_pct (Array.length all) in
  let item_ms = Metric.geomean (Array.map Drive.median_of per_app) in
  let cal_ms = Drive.trimmed_mean cal_s *. 1e3 in
  let shared =
    [
      ("cycles_geomean", Metric.geomean (Array.map (fun r -> float_of_int r.Schedule.cycles) results));
      ("energy_uj_geomean", Metric.geomean (Array.map (fun r -> r.Schedule.energy_j *. 1e6) results));
      ("items_per_s", float_of_int n /. Orianna_util.Stats.sum all);
      ("item_ms.p50", item_ms);
      ("cal_ms.mean", cal_ms);
      ("item_ms.tail", Orianna_util.Stats.percentile all tail *. 1e3);
      ("item_ms.tail_pct", tail);
    ]
  in
  let notes =
    [
      ("frames", Printf.sprintf "%d (%d per app)" n (n / Array.length apps));
      ("jobs", string_of_int jobs);
      ( "frame_ms.p50 per app",
        String.concat ", "
          (Array.to_list
             (Array.mapi (fun a l -> Printf.sprintf "%s %.1f" apps.(a).App.name (Drive.median_of l)) per_app)) );
      ("item_ms.p50", "geomean over the four apps of each app's median frame time");
      ("calibration runs", string_of_int (List.length cal_s));
    ]
  in
  if not trace then
    {
      Metric.attempted = n + 1 + List.length reps;
      failed = !failed;
      errors = !errors;
      values =
        [
          ("setup_s", Drive.median_of (setup0 :: reps));
          ("item_cal.p50", item_ms /. cal_ms);
          ("peak_heap_mb", !first_heap);
        ]
        @ shared;
      notes;
    }
  else begin
    (* Traced pass over the same frames. *)
    ignore (Pool.drain_stats ());
    Obs.enable ();
    let traced_wall = ref 0.0 and deltas = Hashtbl.create 16 and replicated = ref true in
    for i = 0 to n - 1 do
      let app, fseed = frame_input i in
      let f, dt = Drive.count_into deltas (fun () -> Drive.time (fun () -> run_frame app fseed)) in
      traced_wall := !traced_wall +. dt;
      ignore (check f);
      if not (replicate_o3_loop f) then replicated := false
    done;
    let forest = Obs.spans () in
    let records = Pool.drain_stats () in
    Obs.disable ();
    Drive.write_trace ~path:(Printf.sprintf "%s/accelgen-seed%d.trace.json" Drive.out_dir seed) records;
    if not !replicated then fail [ "direct Opt_loop.optimize did not reproduce the frame's streams" ];
    let item_roots = [ "Pipeline.frame"; "Pipeline.generate"; "Schedule.run" ] in
    let sum_results f = Array.fold_left (fun acc r -> acc +. f r) 0.0 results in
    let sum_first f = float_of_int (Array.fold_left (fun acc x -> acc + f x) 0 first) in
    {
      Metric.attempted = n + 1;
      failed = !failed;
      errors = !errors;
      values =
        shared
        @ Drive.layer_metrics ~items:n ~item_roots ~counters:deltas forest records
        @ [
            ( "target_layer_share",
              Drive.total_s (List.concat_map (fun k -> Drive.named k forest) item_roots) /. !traced_wall );
            ("apps.graphs_ms", Drive.mean_ms "App.graphs" forest);
            ("compile.instructions", sum_first snd);
            ("opt.loop_ms", Drive.total_s (Drive.named "Opt_loop.optimize" forest) *. 1e3 /. float_of_int n);
            ( "opt.loop_schedule_calls",
              float_of_int (List.length (Drive.under ~parent:"Opt_loop.optimize" "sim.schedule" forest))
              /. float_of_int n );
            ("opt.instructions_o3", sum_first (fun (f, _) -> Program.length f.fr.Pipeline.program));
          ]
        @ Array.to_list
            (Array.map
               (fun (f, _) ->
                 ("sim.cycles." ^ String.lowercase_ascii f.app.App.name, float_of_int f.sched.Schedule.cycles))
               first)
        @ [
            ("sim.stall_operand_cycles", sum_results (fun r -> float_of_int r.Schedule.stall_operand_cycles));
            ("sim.stall_structural_cycles", sum_results (fun r -> float_of_int r.Schedule.stall_structural_cycles));
            ("sim.dynamic_energy_uj", sum_results (fun r -> r.Schedule.dynamic_energy_j *. 1e6));
            ("sim.static_energy_uj", sum_results (fun r -> r.Schedule.static_energy_j *. 1e6));
            ("dse.dsp_used", sum_first (fun (f, _) -> (Accel.resources f.dse.Dse.best).Resource.dsp));
            ("gc.minor_mwords_per_item", words /. 1e6 /. float_of_int n);
            ("gc.major_collections", float_of_int majors);
            ("obs.trace_overhead_ratio", (!traced_wall /. Orianna_util.Stats.sum all) -. 1.0);
          ];
      notes;
    }
  end
