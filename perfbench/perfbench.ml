(* Entry point: run one workload, print its metrics, and end with the
   result line.  See README.md. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref "0" and jobs = ref 2 in
  Arg.parse
    [
      ("--workload", Arg.Symbol ([ "accelgen"; "serve" ], ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Symbol ([ "0"; "1" ], ( := ) trace), " 1 for the traced per-layer run");
      ("--jobs", Arg.Set_int jobs, "N accelgen pool jobs (default 2)");
      ( "--list-metrics",
        Arg.Unit
          (fun () ->
            print_endline (Orianna_obs.Json.to_string (Metric.list_json ()));
            exit 0),
        " print every metric name, unit and direction as JSON" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = "1" in
  let run =
    match !workload with
    | "accelgen" -> Accelgen.run ~jobs:!jobs
    | "serve" -> Serve_load.run
    | _ ->
        prerr_endline "perfbench: --workload is required";
        exit 2
  in
  if not (Sys.file_exists Drive.out_dir) then Unix.mkdir Drive.out_dir 0o755;
  let r = Metric.finite (run ~seed:!seed ~seconds:!seconds ~trace) in
  Metric.print_human ~workload:!workload r;
  Metric.write_artifact ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace r;
  print_endline (Metric.result_line ~trace r);
  exit (if Metric.correct r then 0 else 1)
