(* The full-history smoother pass of serve's traced run: back-to-back
   ticks (Stream.apply_tick + Smoother.update) of fresh Manhattan
   missions, 200 steps each, default relinearization, no window.  A
   random walk never repeats its structure, so nothing here can be
   served from a structure-keyed cache.  Per-tick cost spans four
   orders of magnitude: most ticks touch a short suffix, loop closures
   re-eliminate most of the history.

   The pass is not a timed workload: how much a mission costs depends
   so strongly on its random walk (the median tick's MACs vary by half
   from mission to mission) that no run of a minute holds enough
   missions for a steady host time.  Its MAC counts repeat exactly for
   a seed, so they carry this layer's results. *)

module Stream = Orianna_apps.Stream
module Datasets = Orianna_apps.Datasets
module Smoother = Orianna_fg.Smoother
module Optimizer = Orianna_fg.Optimizer
module Macs = Orianna_linalg.Macs
module Obs = Orianna_obs.Obs
module Stats = Orianna_util.Stats

let steps = 200

(* At 201 ticks each, five missions give over 1000 ticks: enough for a
   p99 with ten samples beyond it. *)
let missions = 5

(* 200-step missions stay within 1.0048 at the default relinearization
   threshold; shorter ones do not (150 steps exceeded 1.01 about once
   in a hundred missions), so the length and the limit go together. *)
let error_limit = 1.01

let mission ~seed m =
  Obs.with_span "Stream.manhattan" (fun () ->
      Stream.manhattan
        ~cfg:{ Datasets.default_config with Datasets.steps; seed = Drive.derive ~seed ~stream:4 m }
        ())

(* One tick: stage it and fold it in.  Returns the dropped measurements
   and the update's MACs. *)
let tick sm t =
  let dropped = Obs.with_span "Stream.apply_tick" (fun () -> Stream.apply_tick sm t) in
  let (), macs = Macs.measure (fun () -> Obs.with_span "Smoother.update" (fun () -> Smoother.update sm)) in
  (dropped, macs)

(* Runs the missions with Obs enabled by the caller; returns the
   per-layer metrics, the failed checks (each mission's error against
   batch Gauss-Newton on the same prefix, and no dropped measurement)
   and a note. *)
let run ~seed =
  let errors = ref [] and macs = ref [] and affected = ref [] and ratios = ref [] in
  let relin = ref 0 and passes = ref 0 and ticks = ref 0 in
  let one m =
    let stream = mission ~seed m in
    let sm = Smoother.create () in
    let dropped = ref 0 in
    Array.iter
      (fun t ->
        let d, mac = tick sm t in
        let s = Smoother.stats sm in
        incr ticks;
        dropped := !dropped + d;
        macs := float_of_int mac :: !macs;
        affected := float_of_int s.Smoother.affected_last :: !affected;
        relin := !relin + s.Smoother.relinearized_last;
        passes := !passes + s.Smoother.relin_passes_last)
      stream.Stream.ticks;
    let g = Stream.prefix_graph stream ~n:(Stream.length stream) in
    let batch = Obs.with_span "Optimizer.optimize" (fun () -> Optimizer.optimize g) in
    let ratio = Smoother.error sm /. batch.Optimizer.final_error in
    ratios := ratio :: !ratios;
    if not (ratio <= error_limit) || !dropped > 0 then
      errors :=
        !errors
        @ [
            Printf.sprintf "mission %d: error ratio %.6f (limit %.2f), %d measurements dropped" m ratio error_limit
              !dropped;
          ]
  in
  Obs.with_span "smoother_pass" (fun () ->
      for m = 0 to missions - 1 do
        one m
      done);
  let macs = Array.of_list !macs and affected = Array.of_list !affected in
  let forest = Drive.named "smoother_pass" (Obs.spans ()) in
  let update_ms = Array.of_list (List.map (fun s -> s.Obs.dur_s *. 1e3) (Drive.named "Smoother.update" forest)) in
  let values =
    [
      ("tick_macs.p50", Stats.percentile macs 50.0);
      ("tick_macs.p99", Stats.percentile macs 99.0);
      ("error_ratio", List.fold_left Float.max 0.0 !ratios);
      ("stream.apply_ms", Drive.mean_ms "Stream.apply_tick" forest);
      ("smoother.update_ms.p50", Stats.percentile update_ms 50.0);
      ("smoother.update_ms.p99", Stats.percentile update_ms 99.0);
      ("smoother.affected.p50", Stats.percentile affected 50.0);
      ("smoother.affected.p99", Stats.percentile affected 99.0);
      ("smoother.relinearized_total", float_of_int !relin);
      ("smoother.relin_passes_total", float_of_int !passes);
      ("linalg.macs_total", Stats.sum macs);
      ("fg.batch_check_ms", Drive.mean_ms "Optimizer.optimize" forest);
    ]
  in
  (values, !errors, Printf.sprintf "%d missions of %d steps, %d ticks" missions steps !ticks)
