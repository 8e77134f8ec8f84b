(* The timing loop, input seeds, and span arithmetic shared by the
   workloads. *)

module Obs = Orianna_obs.Obs
module Rng = Orianna_util.Rng

let now = Unix.gettimeofday

let time f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

(* The [i]th input seed of input stream [stream]: a pure function of the
   workload seed, so one seed always gives the same inputs. *)
let derive ~seed ~stream i = Rng.int (Rng.of_int ((((seed * 7919) + stream) * 1_000_003) + i)) 0x3FFF_FFFF

(* The calibration kernel: fixed work that never calls the library.
   The host the benchmark was tuned on (a 2-vCPU VM shared with other
   tenants) runs the same code up to a third slower or faster for
   seconds to minutes at a time, and a process's speed also drifts as
   its heap grows.  The items' median time is divided by this kernel's
   mean time over the same run, which takes most of that out.  The
   kernel has two parts, shaped like the items: it allocates, grows a
   balanced tree of 6,000 entries and sorts a list (minor and major heap
   work), then follows 20,000 links of a random cycle through 16 MB
   (cache and memory latency).  The cycle lives outside the OCaml heap,
   so it does not count in peak_heap_mb.  About 5 ms in all. *)
module Int_map = Map.Make (Int)

let ring =
  let n = 1 lsl 21 in
  let a = Bigarray.(Array1.create int c_layout n) in
  for i = 0 to n - 1 do
    a.{i} <- i
  done;
  (* Sattolo's shuffle: one cycle through every slot. *)
  let rng = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let calibrate () =
  let m = ref Int_map.empty in
  for i = 0 to 5999 do
    m := Int_map.add ((i * 7919) land 65535) (float_of_int i) !m
  done;
  let l = Int_map.fold (fun k v acc -> (k, v) :: acc) !m [] in
  ignore (Sys.opaque_identity (List.sort (fun (_, a) (_, b) -> compare b a) l));
  let p = ref 0 in
  for _ = 1 to 20_000 do
    p := Bigarray.Array1.unsafe_get ring !p
  done;
  ignore (Sys.opaque_identity !p)

type run = {
  items : int;
  setup_s : float list;  (** the setup repetitions made inside the loop *)
  cal_s : float list;  (** every calibration run *)
}

(* [loop ~seconds ~min_items item] calls [item 0], [item 1], ... until
   [seconds] have passed and at least [min_items] items ran, stopping
   only after a multiple of [whole] items (a full app rotation) so the
   mix of inputs stays balanced; items time their own measured part.
   Before each item it times [cal_reps] runs of the calibration kernel,
   so the kernel samples the host as the items see it.  The caller ran
   one [setup] repetition before the loop; the other [setup_reps - 1]
   are spread evenly over the loop, so the setup median sees the same
   host conditions as the items. *)
let loop ~seconds ~min_items ?(whole = 1) ?(cal_reps = 1) ?(setup_reps = 1) ?(setup = ignore) item =
  let t0 = now () in
  let n = ref 0 and next = ref 1 and reps = ref [] and cal = ref [] in
  let run_setup () =
    reps := snd (time setup) :: !reps;
    incr next
  in
  while !n < min_items || !n mod whole <> 0 || now () -. t0 < seconds do
    if !next < setup_reps && now () -. t0 >= seconds *. float_of_int !next /. float_of_int setup_reps
    then run_setup ();
    for _ = 1 to cal_reps do
      cal := snd (time calibrate) :: !cal
    done;
    item !n;
    incr n
  done;
  while !next < setup_reps do
    run_setup ()
  done;
  { items = !n; setup_s = List.rev !reps; cal_s = !cal }

let median_of l = Orianna_util.Stats.median (Array.of_list l)

(* The mean of the middle 80 %: a kernel run that a stall of the host
   hit does not move it. *)
let trimmed_mean l =
  let a = Array.of_list l in
  Array.sort compare a;
  let k = Array.length a / 10 in
  Orianna_util.Stats.mean (Array.sub a k (Array.length a - (2 * k)))

(* Minor words allocated by the calling domain so far. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* ---- spans recorded while Obs is enabled ---- *)

let named name forest =
  List.rev (Obs.fold_spans (fun acc s -> if s.Obs.name = name then s :: acc else acc) [] forest)

let children spans = List.concat_map (fun s -> s.Obs.children) spans

let total_s spans = List.fold_left (fun acc s -> acc +. s.Obs.dur_s) 0.0 spans

let self_s spans = List.fold_left (fun acc s -> acc +. Obs.span_self_s s) 0.0 spans

(* Spans named [name] anywhere below a span named [parent]. *)
let under ~parent name forest = named name (children (named parent forest))

(* Counters the library bumps inside the layers the items call. *)
let item_counters =
  [
    "isa.opt.cse_merged";
    "isa.opt.fused";
    "isa.opt.dce_removed";
    "isa.opt.superword_merged";
    "isa.opt.cycles_saved";
    "dse.candidates.evaluated";
    "dse.candidates.cached";
    "dse.rounds";
    "sim.instructions";
  ]

(* Runs [f] and adds the [item_counters] deltas it caused to [into]. *)
let count_into into f =
  let before = List.map Obs.counter item_counters in
  let r = f () in
  List.iter2
    (fun name b ->
      let d = Obs.counter name - b in
      Hashtbl.replace into name (d + Option.value (Hashtbl.find_opt into name) ~default:0))
    item_counters before;
  r

let out_dir = ".bench_out"

let write_trace ~path pool_records =
  let module Chrome = Orianna_obs.Chrome_trace in
  Chrome.write_file path
    (Chrome.of_spans (Obs.spans ()) @ Orianna_par.Pool.chrome_events pool_records)

(* Per-item metrics of the layers under the items' own spans: the
   benchmark spans named [item_roots] plus the scheduler spans that
   pool workers record as roots of their own.  [counters] holds the
   library counter deltas summed over the items only ({!count_into}). *)
let layer_metrics ~items ~item_roots ~counters forest (records : Orianna_par.Pool.run_record list) =
  let module Pool = Orianna_par.Pool in
  let n = float_of_int (max 1 items) in
  let scope =
    List.filter (fun s -> List.mem s.Obs.name item_roots || s.Obs.name = "sim.schedule") forest
  in
  let spans name = named name scope in
  let ms l = total_s l *. 1e3 /. n in
  let count k = float_of_int (Option.value (Hashtbl.find_opt counters k) ~default:0) in
  let sim = spans "sim.schedule" in
  let busy, lane_s, join_wait, steals =
    List.fold_left
      (fun (busy, lane_s, wait, steals) (r : Pool.run_record) ->
        ( Array.fold_left (fun acc l -> acc +. l.Pool.busy_s) busy r.Pool.lanes,
          lane_s +. ((r.Pool.done_s -. r.Pool.submit_s) *. float_of_int r.Pool.rjobs),
          wait +. r.Pool.join_wait_s,
          Array.fold_left (fun acc l -> acc + l.Pool.steals) steals r.Pool.lanes ))
      (0.0, 0.0, 0.0, 0) records
  in
  [
    ("compile.lower_ms", ms (spans "compile.lower" @ spans "compile.lower_dense"));
    ("opt.static_ms", ms (spans "compile.optimize"));
    ("isa.opt.cse_merged", count "isa.opt.cse_merged" /. n);
    ("isa.opt.fused", count "isa.opt.fused" /. n);
    ("isa.opt.dce_removed", count "isa.opt.dce_removed" /. n);
    ("isa.opt.superword_merged", count "isa.opt.superword_merged" /. n);
    ("isa.opt.cycles_saved", count "isa.opt.cycles_saved" /. n);
    ("sim.schedule_calls", float_of_int (List.length sim) /. n);
    ("sim.schedule_ms", ms sim);
    ("sim.instructions_per_s", if sim = [] then 0.0 else count "sim.instructions" /. total_s sim);
    ("dse.generate_ms", ms (spans "dse.optimize"));
    ("dse.candidates_evaluated", count "dse.candidates.evaluated" /. n);
    ("dse.candidates_cached", count "dse.candidates.cached" /. n);
    ("dse.rounds", count "dse.rounds" /. n);
    ("pool.join_wait_ms", join_wait *. 1e3 /. n);
    ("pool.steals", float_of_int steals /. n);
    ("pool.idle_ratio", if lane_s > 0.0 then 1.0 -. (busy /. lane_s) else 0.0);
  ]

(* Mean duration of the spans named [name], in ms; 0 when there are none. *)
let mean_ms name forest =
  match named name forest with
  | [] -> 0.0
  | l -> total_s l *. 1e3 /. float_of_int (List.length l)
