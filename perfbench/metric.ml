(* Metric names, units and output.

   Every workload reports every end-to-end metric (untraced run) and
   every per-layer metric (traced run), so a later change is compared
   metric by metric on each workload.  A layer a workload never calls
   reads 0 on that workload's traced run. *)

module Json = Orianna_obs.Json

type better = Higher | Lower

(* Host metrics, measured with tracing off.  None of them can be 0.
   On the shared host the benchmark was tuned on, the same code runs up
   to a third slower or faster for seconds to minutes at a time, so a
   run's median item time in ms says more about the host than about the
   code.  The gated item metric divides it by the mean time of a
   calibration kernel run between the items in the same process
   (Drive.calibrate), which the host slows alike; the raw times are
   reported beside the per-layer numbers. *)
let end_to_end = [ ("setup_s", "s", Lower); ("item_cal.p50", "cal", Lower); ("peak_heap_mb", "MB", Lower) ]

(* Modeled and counted results: they repeat exactly for one seed, so
   they sit beside the per-layer numbers.  Each belongs to one
   workload. *)
let modeled =
  [
    ("cycles_geomean", "cycles", Lower);
    ("energy_uj_geomean", "uJ", Lower);
    ("modeled_p50_ms", "virtual_ms", Lower);
    ("modeled_p99_ms", "virtual_ms", Lower);
    ("max_rate_hz", "Hz", Higher);
    ("tick_macs.p50", "MAC", Lower);
    ("tick_macs.p99", "MAC", Lower);
    ("error_ratio", "ratio", Lower);
  ]

let per_layer =
  modeled
  @ [
      ("items_per_s", "1/s", Higher);
      ("item_ms.p50", "ms", Lower);
      ("cal_ms.mean", "ms", Lower);
      ("item_ms.tail", "ms", Lower);
      ("item_ms.tail_pct", "%", Higher);
      ("target_layer_share", "ratio", Higher);
      ("apps.graphs_ms", "ms", Lower);
      ("apps.mission_build_ms", "ms", Lower);
      ("apps.trace_build_ms", "ms", Lower);
      ("compile.lower_ms", "ms", Lower);
      ("compile.instructions", "count", Lower);
      ("opt.static_ms", "ms", Lower);
      ("opt.loop_ms", "ms", Lower);
      ("opt.loop_schedule_calls", "count", Lower);
      ("opt.instructions_o3", "count", Lower);
      ("isa.opt.cse_merged", "count", Higher);
      ("isa.opt.fused", "count", Higher);
      ("isa.opt.dce_removed", "count", Higher);
      ("isa.opt.superword_merged", "count", Higher);
      ("isa.opt.cycles_saved", "cycles", Higher);
      ("sim.schedule_calls", "count", Lower);
      ("sim.schedule_ms", "ms", Lower);
      ("sim.instructions_per_s", "1/s", Higher);
      ("sim.cycles.mobilerobot", "cycles", Lower);
      ("sim.cycles.manipulator", "cycles", Lower);
      ("sim.cycles.autovehicle", "cycles", Lower);
      ("sim.cycles.quadrotor", "cycles", Lower);
      ("sim.stall_operand_cycles", "cycles", Lower);
      ("sim.stall_structural_cycles", "cycles", Lower);
      ("sim.dynamic_energy_uj", "uJ", Lower);
      ("sim.static_energy_uj", "uJ", Lower);
      ("dse.generate_ms", "ms", Lower);
      ("dse.candidates_evaluated", "count", Lower);
      ("dse.candidates_cached", "count", Higher);
      ("dse.rounds", "count", Lower);
      ("dse.dsp_used", "count", Lower);
      ("pool.join_wait_ms", "ms", Lower);
      ("pool.steals", "count", Lower);
      ("pool.idle_ratio", "ratio", Lower);
      ("serve.admission_key_us", "us", Lower);
      ("serve.cold_miss_s", "s", Lower);
      ("serve.des_self_s", "s", Lower);
      ("serve.compile_dse_share", "ratio", Lower);
      ("serve.capacity_search_s", "s", Lower);
      ("serve.capacity_probes", "count", Lower);
      ("serve.cache_hit_rate", "ratio", Higher);
      ("serve.mean_batch_size", "count", Lower);
      ("serve.queue_depth_max", "count", Lower);
      ("serve.rejected", "count", Lower);
      ("serve.deadline_miss_rate", "ratio", Lower);
      ("serve.modeled_p99_ms.solve", "virtual_ms", Lower);
      ("serve.modeled_p99_ms.tick", "virtual_ms", Lower);
      ("serve.modeled_p99_ms.40khz", "virtual_ms", Lower);
      ("session.update_ms.p50", "ms", Lower);
      ("session.affected_fraction.p50", "ratio", Lower);
      ("session.marginalized", "count", Lower);
      ("session.restarts", "count", Lower);
      ("stream.apply_ms", "ms", Lower);
      ("smoother.update_ms.p50", "ms", Lower);
      ("smoother.update_ms.p99", "ms", Lower);
      ("smoother.affected.p50", "count", Lower);
      ("smoother.affected.p99", "count", Lower);
      ("smoother.relinearized_total", "count", Lower);
      ("smoother.relin_passes_total", "count", Lower);
      ("linalg.macs_total", "MAC", Lower);
      ("fg.batch_check_ms", "ms", Lower);
      ("gc.minor_mwords_per_item", "Mword", Lower);
      ("gc.major_collections", "count", Lower);
      ("obs.trace_overhead_ratio", "ratio", Lower);
    ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) (end_to_end @ per_layer) with
  | Some (_, u, _) -> u
  | None -> invalid_arg ("Metric.unit_of: unregistered metric " ^ name)

(* The metric lists as BENCHMARK.json states them; the benchmark's
   self-test checks the two agree. *)
let list_json () =
  let entry (name, u, better) =
    Json.Obj
      [ ("name", Json.Str name); ("unit", Json.Str u); ("better", Json.Str (if better = Higher then "higher" else "lower")) ]
  in
  Json.Obj [ ("end_to_end", Json.Arr (List.map entry end_to_end)); ("per_layer", Json.Arr (List.map entry per_layer)) ]

(* What one run of a workload produced. *)
type report = {
  attempted : int;
  failed : int;  (** items that raised, were refused, or failed a check *)
  errors : string list;  (** one line per failed check, for the log *)
  values : (string * float) list;  (** every metric the run measured *)
  notes : (string * string) list;  (** sample counts, brackets, shares *)
}

(* The tail the run has samples for: the highest of these percentiles
   with at least ten samples beyond it. *)
let tail_pct n =
  let beyond p = float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 in
  Option.value (List.find_opt beyond [ 99.9; 99.0; 95.0; 90.0; 80.0; 75.0 ]) ~default:50.0

let geomean xs =
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (Array.length xs))

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

let value r name = Option.value (List.assoc_opt name r.values) ~default:0.0

let print_human ~workload r =
  Printf.printf "%s: %d attempted, %d failed\n" workload r.attempted r.failed;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) r.errors;
  List.iter (fun (k, v) -> Printf.printf "  %-32s %s\n" k v) r.notes;
  List.iter
    (fun (name, v) -> Printf.printf "  %-32s %.6g %s\n" name v (unit_of name))
    r.values

let metrics_json names r =
  Json.Obj
    (List.map
       (fun (name, u, _) -> (name, Json.Obj [ ("value", Json.Num (value r name)); ("unit", Json.Str u) ]))
       names)

let correct r = r.failed = 0 && r.errors = []

let result_line ~trace r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.int r.attempted);
         ("failed", Json.int r.failed);
         ("metrics", metrics_json (if trace then per_layer else end_to_end) r);
       ])

(* A value that is not a finite number fails the run and reads 0, so
   the result line stays valid JSON. *)
let finite r =
  match List.filter (fun (_, v) -> not (Float.is_finite v)) r.values with
  | [] -> r
  | bad ->
      {
        r with
        errors = r.errors @ List.map (fun (k, _) -> k ^ " is not finite") bad;
        values = List.map (fun (k, v) -> (k, if Float.is_finite v then v else 0.0)) r.values;
      }

(* The full record of a run, written to
   .bench_out/<workload>-seed<N>-trace<T>.json. *)
let write_artifact ~workload ~seed ~seconds ~trace r =
  let json =
    Json.Obj
      [
        ( "meta",
          Json.Obj
            [
              ("workload", Json.Str workload);
              ("seed", Json.int seed);
              ("seconds", Json.Num seconds);
              ("trace", Json.Bool trace);
              ("ocaml", Json.Str Sys.ocaml_version);
            ] );
        ("attempted", Json.int r.attempted);
        ("failed", Json.int r.failed);
        ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.errors));
        ("notes", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.notes));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v) ->
                 (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
               r.values) );
      ]
  in
  let oc = open_out (Printf.sprintf "%s/%s-seed%d-trace%d.json" Drive.out_dir workload seed (Bool.to_int trace)) in
  output_string oc (Json.to_string json);
  close_out oc
