(* The runs CI smokes through the CLI, rebuilt in-process from the same
   library defaults the CLI uses, and the hand-edited bound files under
   ci/ that the baseline tests check them against.

   The bound files are read, never written: ORIANNA_UPDATE_GOLDEN does
   not touch them.  dune runtest runs a test from _build/default/test
   with ci/ copied beside it (a test/dune dependency); dune exec from
   the repository root finds ci/ directly. *)

open Orianna_util
module Json = Orianna_obs.Json
module App = Orianna_apps.App
module Serve = Orianna_serve.Serve
module Request = Orianna_serve.Request
module Session = Orianna_serve.Session
module Chaos = Orianna_serve.Chaos

let load name =
  let dir = if Sys.file_exists "../ci" then "../ci" else "ci" in
  Json.parse (In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all)

(* The number at [path] (object keys from the root). *)
let num j path =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
  | Some (Json.Num v) -> v
  | _ -> Alcotest.failf "baseline lacks a number at %s" (String.concat "." path)

(* [j] with the number at [path] mapped through [f]: the mutated bound
   files that show each check can fail. *)
let rec mutate path f j =
  match (path, j) with
  | [], Json.Num v -> Json.Num (f v)
  | k :: rest, Json.Obj fields ->
      if not (List.mem_assoc k fields) then Alcotest.failf "baseline lacks %s" k;
      Json.Obj (List.map (fun (k', v) -> (k', if k' = k then mutate rest f v else v)) fields)
  | _ -> Alcotest.failf "baseline lacks a number at %s" (String.concat "." path)

(* A gate's verdict: the messages of the checks that failed. *)
let violations checks = List.filter_map (fun (failed, what) -> if failed then Some what else None) checks

(* `serve --apps KEY --requests 120 --seed 42 [--chaos 0.1 --retries 2]`:
   the trace and the report. *)
let serve_run ?(chaos = false) key =
  let apps = Result.get_ok (App.select key) in
  let trace = Request.default_trace ~rng:(Rng.of_int 42) ~apps ~n:120 in
  let config =
    if not chaos then Serve.default_config
    else
      {
        Serve.default_config with
        Serve.chaos =
          Some (Chaos.of_intensity ~seed:42 ~mttr_s:Chaos.default.Chaos.restart_mean_s 0.1);
        max_retries = 2;
      }
  in
  (trace, Serve.run ~config ~trace ())

(* `sessions --dataset D --seed 42 [--solves N]`: three tenants at
   200 us per tick, admission queue of 256. *)
let sessions_run ?(solves = 0) dataset =
  let module Stream = Orianna_apps.Stream in
  let stream =
    match dataset with
    | `Manhattan ->
        Stream.manhattan
          ~cfg:{ Orianna_apps.Datasets.default_config with Orianna_apps.Datasets.steps = 80; seed = 42 }
          ()
    | `Loopy -> Stream.loopy ~cfg:{ Stream.default_loopy_config with Stream.seed = 42 } ()
  in
  (* [--period-us 200] converted as the CLI converts it: the product
     is one ulp off the literal 200e-6. *)
  let missions = Session.staggered_missions ~tenants:3 ~period_s:(200.0 *. 1e-6) stream in
  let sessions = Session.create ~opt_level:1 ~missions () in
  let trace =
    if solves = 0 then [] else Request.default_trace ~rng:(Rng.of_int 42) ~apps:App.names ~n:solves
  in
  Serve.run ~config:{ Serve.default_config with Serve.queue_capacity = 256 } ~sessions ~trace ()
