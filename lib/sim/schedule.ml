open Orianna_isa
open Orianna_hw
module Heap = Orianna_util.Heap
module Obs = Orianna_obs.Obs

type policy = In_order | Ooo_fine | Ooo_full

exception
  Deadlock of {
    cycle : int;
    stuck : int list;
    occupancy : (Unit_model.unit_class * int list) list;
  }

let policy_name = function
  | In_order -> "in-order"
  | Ooo_fine -> "ooo-fine"
  | Ooo_full -> "ooo-full"

type result = {
  cycles : int;
  seconds : float;
  dynamic_energy_j : float;
  static_energy_j : float;
  energy_j : float;
  phase_busy : (Instr.phase * int) list;
  unit_busy : (Unit_model.unit_class * int) list;
  utilization : (Unit_model.unit_class * float) list;
  instructions : int;
  starts : int array;
  finishes : int array;
  issue_base : int array;
  stall_operand_cycles : int;
  stall_structural_cycles : int;
}

let class_index cls =
  let rec find i = function
    | [] -> assert false
    | c :: rest -> if c = cls then i else find (i + 1) rest
  in
  find 0 Unit_model.all_classes

let num_classes = List.length Unit_model.all_classes
let classes_arr = Array.of_list Unit_model.all_classes

(* Declaration order, which is also [compare]'s order. *)
let phases = [| Instr.Construct; Instr.Decompose; Instr.Backsub |]
let phase_index = function Instr.Construct -> 0 | Instr.Decompose -> 1 | Instr.Backsub -> 2

(* Dense per-run scratch, sized to the program.  [schedule_ooo] used
   to rebuild hashtables keyed by instruction id on every call; these
   arrays are allocated once per [run] and reused across the
   [Ooo_fine] partitions.  Invariant between calls: [in_subset] is all
   [false] and [children] all [[]] ([indeg]/[ready_dep_time] are
   (re)initialised per subset id, so they need no clearing).  The
   ready-queue depth statistics accumulate over every partition of the
   run. *)
type scratch = {
  in_subset : bool array;
  indeg : int array;
  children : int list array;
  ready_dep_time : int array;
  mutable depth_peak : int;
  mutable depth_sum : int;
  mutable steps : int;
}

let make_scratch n =
  {
    in_subset = Array.make n false;
    indeg = Array.make n 0;
    children = Array.make n [];
    ready_dep_time = Array.make n 0;
    depth_peak = 0;
    depth_sum = 0;
    steps = 0;
  }

(* Critical-path priority: longest latency-weighted path to a sink. *)
let priorities (p : Program.t) ~lat =
  let n = Array.length p.Program.instrs in
  let prio = Array.make n 0 in
  for i = n - 1 downto 0 do
    let srcs = p.Program.instrs.(i).Instr.srcs in
    prio.(i) <- Int.max prio.(i) lat.(i);
    for k = 0 to Array.length srcs - 1 do
      let s = srcs.(k) in
      prio.(s) <- Int.max prio.(s) (prio.(i) + lat.(s))
    done
  done;
  prio

(* The cycle all of [srcs] have finished by, and no earlier than
   [base]. *)
let operands_ready finishes (srcs : int array) base =
  let ready = ref base in
  for k = 0 to Array.length srcs - 1 do
    ready := Int.max !ready finishes.(srcs.(k))
  done;
  !ready

(* The unit instance an instruction issues on at cycle [t]: among the
   instances free by [t], the one free earliest (lowest index on a
   tie); [-1] when every instance is busy. *)
let free_instance (free : int array) t =
  let best = ref (-1) in
  for k = 0 to Array.length free - 1 do
    let ft = free.(k) in
    if ft <= t && (!best < 0 || ft < free.(!best)) then best := k
  done;
  !best

(* An instruction finishing at [finish] retires its edges to
   [children]; a child whose last operand this was arrives at
   [max finish t0]. *)
let rec release ~indeg ~ready_dep_time ~arrivals ~arrival_min ~cls_of ~t0 finish = function
  | [] -> ()
  | child :: rest ->
      let d = indeg.(child) - 1 in
      indeg.(child) <- d;
      if finish > ready_dep_time.(child) then ready_dep_time.(child) <- finish;
      if d = 0 then begin
        let c = cls_of.(child) and key = if finish > t0 then finish else t0 in
        Heap.push arrivals.(c) ~key child;
        if key < arrival_min.(c) then arrival_min.(c) <- key
      end;
      release ~indeg ~ready_dep_time ~arrivals ~arrival_min ~cls_of ~t0 finish rest

(* Dataflow (OoO) list scheduling of the instruction subset [ids],
   starting no earlier than [t0].  Returns the subset makespan.
   [lat] holds each instruction's execution cycles; [cls_of] maps
   instruction id to its dense unit-class index (the per-arrival
   [class_index] list scan, hoisted to one pass in [run]); [scratch]
   is the caller's reusable dependency-tracking state.

   Per class, [arrivals] is keyed by the cycle an instruction's
   operands are ready and [ready] by its negated priority, so each
   pops its smallest key first.  Equal keys pop in the order the
   [Heap] sift rules leave them in, which depends on push order: the
   traversal orders here (ids order for roots, srcs order for
   dependency edges, prepend-then-iterate for children) and the heap's
   sift rules are part of the bit-identical contract with the seed
   scheduler.  The event loop allocates nothing beyond growing a
   heap's arrays. *)
let schedule_ooo (p : Program.t) ~lat ~prio ~cls_of ~scratch ~counts ~starts ~finishes
    ~ids ~t0 =
  let { in_subset; indeg; children; ready_dep_time; _ } = scratch in
  Array.iter (fun id -> in_subset.(id) <- true) ids;
  Array.iter
    (fun id ->
      let srcs = p.Program.instrs.(id).Instr.srcs in
      let deps = ref 0 in
      for k = 0 to Array.length srcs - 1 do
        let s = srcs.(k) in
        if in_subset.(s) then begin
          incr deps;
          children.(s) <- id :: children.(s)
        end
      done;
      indeg.(id) <- !deps;
      ready_dep_time.(id) <- t0)
    ids;
  let arrivals = Array.init num_classes (fun _ -> Heap.create ()) in
  let ready = Array.init num_classes (fun _ -> Heap.create ()) in
  let free : int array array =
    Array.of_list
      (List.map (fun cls -> Array.make (List.assoc cls counts) t0) Unit_model.all_classes)
  in
  Array.iter
    (fun id -> if indeg.(id) = 0 then Heap.push arrivals.(cls_of.(id)) ~key:t0 id)
    ids;
  (* Per class, mirrors of [Heap.min_key arrivals.(c)] and of the
     number of entries in [ready.(c)], so the per-step scans over the
     classes read an array instead of calling into the heaps. *)
  let arrival_min = Array.map Heap.min_key arrivals in
  let ready_len = Array.make num_classes 0 in
  let remaining = ref (Array.length ids) in
  let t = ref t0 in
  let makespan = ref t0 in
  let depth = ref 0 and depth_peak = ref 0 and depth_sum = ref 0 and steps = ref 0 in
  while !remaining > 0 do
    (* Promote arrivals whose time has come. *)
    for c = 0 to num_classes - 1 do
      if arrival_min.(c) <= !t then begin
        let arr = arrivals.(c) in
        while Heap.min_key arr <= !t do
          let id = Heap.pop arr in
          Heap.push ready.(c) ~key:(-prio.(id)) id;
          ready_len.(c) <- ready_len.(c) + 1;
          incr depth
        done;
        arrival_min.(c) <- Heap.min_key arr
      end
    done;
    incr steps;
    depth_sum := !depth_sum + !depth;
    if !depth > !depth_peak then depth_peak := !depth;
    (* Greedily fill free unit instances with the highest-priority
       ready instruction of their class. *)
    let scheduled_any = ref false in
    for c = 0 to num_classes - 1 do
      if ready_len.(c) > 0 then begin
        let rdy = ready.(c) and fr = free.(c) in
        let k = ref (free_instance fr !t) in
        while !k >= 0 do
          let id = Heap.pop rdy in
          ready_len.(c) <- ready_len.(c) - 1;
          decr depth;
          let dep = ready_dep_time.(id) in
          let start = if dep > !t then dep else !t in
          let finish = start + lat.(id) in
          starts.(id) <- start;
          finishes.(id) <- finish;
          fr.(!k) <- finish;
          if finish > !makespan then makespan := finish;
          decr remaining;
          scheduled_any := true;
          release ~indeg ~ready_dep_time ~arrivals ~arrival_min ~cls_of ~t0 finish
            children.(id);
          k := if ready_len.(c) = 0 then -1 else free_instance fr !t
        done
      end
    done;
    if !remaining > 0 && not !scheduled_any then begin
      (* Advance time to the next event: an arrival or a unit free. *)
      let next = ref max_int in
      for c = 0 to num_classes - 1 do
        let ta = arrival_min.(c) in
        if ta > !t && ta < !next then next := ta;
        if ready_len.(c) > 0 then
          for k = 0 to Array.length free.(c) - 1 do
            let ft = free.(c).(k) in
            if ft > !t && ft < !next then next := ft
          done
      done;
      if !next = max_int then begin
        (* Everything ready but no instance ever frees — e.g. a class
           needed by a pending instruction has zero live instances.
           Report which instructions are stuck and what every unit
           instance is doing so campaign logs stay actionable. *)
        let stuck = ref [] in
        for c = num_classes - 1 downto 0 do
          List.iter
            (fun h ->
              while not (Heap.is_empty h) do
                stuck := Heap.pop h :: !stuck
              done)
            [ ready.(c); arrivals.(c) ]
        done;
        let occupancy =
          List.mapi (fun c cls -> (cls, Array.to_list free.(c))) Unit_model.all_classes
        in
        raise (Deadlock { cycle = !t; stuck = List.sort compare !stuck; occupancy })
      end;
      t := !next
    end
  done;
  scratch.depth_peak <- Int.max scratch.depth_peak !depth_peak;
  scratch.depth_sum <- scratch.depth_sum + !depth_sum;
  scratch.steps <- scratch.steps + !steps;
  (* Restore the inter-call scratch invariant for the next partition. *)
  Array.iter
    (fun id ->
      in_subset.(id) <- false;
      children.(id) <- [])
    ids;
  !makespan

(* The in-order controller has no scoreboard: it dispatches one matrix
   instruction, waits for its completion, then dispatches the next —
   instructions never overlap, whatever units exist (Sec. 7.1's
   ORIANNA-IO). *)
let schedule_in_order (p : Program.t) ~lat ~counts ~starts ~finishes =
  ignore counts;
  let makespan = ref 0 in
  Array.iter
    (fun (ins : Instr.t) ->
      let id = ins.Instr.id in
      let dep_ready = operands_ready finishes ins.Instr.srcs 0 in
      let start = max dep_ready !makespan in
      let finish = start + lat.(id) in
      starts.(id) <- start;
      finishes.(id) <- finish;
      makespan := finish)
    p.Program.instrs;
  !makespan

type priority_policy = Critical_path | Fifo

let nominal_latency_of ~accel (p : Program.t) =
  let src_shape id = (p.Program.instrs.(id).Instr.rows, p.Program.instrs.(id).Instr.cols) in
  fun id ->
    let ins = p.Program.instrs.(id) in
    Unit_model.latency
      (Unit_model.class_of_op ins.Instr.op)
      ~qr_rotators:accel.Accel.qr_rotators ins ~src_shape

let run ?(priority = Critical_path) ?jitter ~accel ~policy (p : Program.t) =
  Obs.with_span "sim.schedule"
    ~attrs:
      [
        ("policy", policy_name policy);
        ("instructions", string_of_int (Array.length p.Program.instrs));
      ]
  @@ fun () ->
  let n = Array.length p.Program.instrs in
  let src_shape id = (p.Program.instrs.(id).Instr.rows, p.Program.instrs.(id).Instr.cols) in
  let nominal = nominal_latency_of ~accel p in
  (* Execution cycles per instruction, computed once: the priority
     pass, the issue loop and the accounting all read this array.
     [jitter] models degraded silicon: extra execution cycles per
     instruction, on top of the analytic unit latency.  The fault
     campaign injects here; without it the schedule is bit-identical
     to the jitter-free one. *)
  let lat =
    match jitter with
    | None -> Array.init n nominal
    | Some j -> Array.init n (fun id -> nominal id + max 0 (j id))
  in
  let counts = accel.Accel.counts in
  let starts = Array.make n 0 and finishes = Array.make n 0 in
  (* Dense class index per instruction, computed once — the scheduler
     and the accounting below used to redo an O(num_classes) list scan
     per lookup. *)
  let cls_of =
    Array.map
      (fun (ins : Instr.t) -> class_index (Unit_model.class_of_op ins.Instr.op))
      p.Program.instrs
  in
  (* Earliest cycle each instruction may issue at: 0 except under
     [Ooo_fine], where each algorithm partition starts after the
     previous one's makespan. Stall accounting is relative to it. *)
  let issue_base = Array.make n 0 in
  let scratch = make_scratch n in
  let makespan =
    match policy with
    | In_order -> schedule_in_order p ~lat ~counts ~starts ~finishes
    | Ooo_full ->
        let prio =
          match priority with
          | Critical_path -> priorities p ~lat
          | Fifo -> Array.init n (fun i -> -i)
        in
        schedule_ooo p ~lat ~prio ~cls_of ~scratch ~counts ~starts ~finishes
          ~ids:(Array.init n Fun.id) ~t0:0
    | Ooo_fine ->
        let prio =
          match priority with
          | Critical_path -> priorities p ~lat
          | Fifo -> Array.init n (fun i -> -i)
        in
        (* Partition by algorithm in first-appearance order, one pass
           over the stream, then run the partitions back to back. *)
        let buckets = Hashtbl.create 8 in
        let algo_order = ref [] in
        Array.iter
          (fun (i : Instr.t) ->
            match Hashtbl.find_opt buckets i.Instr.algo with
            | Some ids -> ids := i.Instr.id :: !ids
            | None ->
                Hashtbl.add buckets i.Instr.algo (ref [ i.Instr.id ]);
                algo_order := i.Instr.algo :: !algo_order)
          p.Program.instrs;
        List.fold_left
          (fun t0 algo ->
            let ids = Array.of_list (List.rev !(Hashtbl.find buckets algo)) in
            Array.iter (fun id -> issue_base.(id) <- t0) ids;
            schedule_ooo p ~lat ~prio ~cls_of ~scratch ~counts ~starts ~finishes ~ids
              ~t0)
          0 (List.rev !algo_order)
  in
  (* Accounting.  Busy cycles per phase, in [phases] order. *)
  let phase_busy_arr = Array.make (Array.length phases) 0 in
  let phase_seen = Array.make (Array.length phases) false in
  let unit_busy_arr = Array.make num_classes 0 in
  let unit_seen = Array.make num_classes false in
  let dynamic = ref 0.0 in
  (* Stall causes: an instruction issuing at [start] after becoming
     issuable at [issue_base] spent [ready - issue_base] cycles waiting
     on operands (its sources still executing) and [start - ready]
     cycles on a structural hazard (operands done, every unit instance
     of its class busy — or, in order, the serial controller). *)
  let stall_operand = ref 0 and stall_structural = ref 0 in
  for i = 0 to n - 1 do
    let ins = p.Program.instrs.(i) in
    let id = ins.Instr.id in
    let c = cls_of.(id) in
    let ph = phase_index ins.Instr.phase in
    phase_busy_arr.(ph) <- phase_busy_arr.(ph) + lat.(id);
    phase_seen.(ph) <- true;
    unit_busy_arr.(c) <- unit_busy_arr.(c) + lat.(id);
    unit_seen.(c) <- true;
    let base = issue_base.(id) in
    let ready = operands_ready finishes ins.Instr.srcs base in
    stall_operand := !stall_operand + (ready - base);
    stall_structural := !stall_structural + (starts.(id) - ready);
    dynamic := !dynamic +. Unit_model.dynamic_energy_nj classes_arr.(c) ins ~src_shape
  done;
  if Obs.enabled () then begin
    Obs.count "sim.instructions" ~n;
    Obs.count "sim.stall.operand_cycles" ~n:!stall_operand;
    Obs.count "sim.stall.structural_cycles" ~n:!stall_structural;
    Obs.set_gauge "sim.makespan_cycles" (float_of_int makespan);
    (* Ready-queue depth (summed over classes, sampled once per event
       step), recorded once per run. *)
    if scratch.steps > 0 then begin
      Obs.observe "sim.ready_queue_depth.peak" (float_of_int scratch.depth_peak);
      Obs.observe "sim.ready_queue_depth.mean"
        (float_of_int scratch.depth_sum /. float_of_int scratch.steps)
    end
  end;
  let seconds = float_of_int makespan /. (accel.Accel.clock_mhz *. 1e6) in
  let dynamic_energy_j = !dynamic *. 1e-9 in
  let static_energy_j = Accel.static_power_w accel *. seconds in
  let utilization =
    List.map
      (fun (cls, k) ->
        let busy = unit_busy_arr.(class_index cls) in
        let denom = float_of_int (max 1 (makespan * k)) in
        (cls, float_of_int busy /. denom))
      counts
  in
  let unit_busy =
    let acc = ref [] in
    for c = num_classes - 1 downto 0 do
      if unit_seen.(c) then acc := (classes_arr.(c), unit_busy_arr.(c)) :: !acc
    done;
    List.sort compare !acc
  in
  {
    cycles = makespan;
    seconds;
    dynamic_energy_j;
    static_energy_j;
    energy_j = dynamic_energy_j +. static_energy_j;
    phase_busy =
      List.filter_map
        (fun ph ->
          let k = phase_index ph in
          if phase_seen.(k) then Some (ph, phase_busy_arr.(k)) else None)
        (Array.to_list phases);
    unit_busy;
    utilization;
    instructions = n;
    starts;
    finishes;
    issue_base;
    stall_operand_cycles = !stall_operand;
    stall_structural_cycles = !stall_structural;
  }

(* The PR-1 stall accounting, re-derived from nominal unit latencies
   and checked against what the schedule actually recorded.  Under
   fault injection this is the runtime assertion that flags latency
   anomalies (a unit taking longer than its analytic model) and broken
   degraded schedules; on a healthy run it always returns [Ok]. *)
let check_invariants ~accel (p : Program.t) r =
  let n = Array.length p.Program.instrs in
  if r.instructions <> n || Array.length r.starts <> n then
    Result.Error "result does not describe this program"
  else begin
    let latency_of = nominal_latency_of ~accel p in
    let violation = ref None in
    let flag msg = if !violation = None then violation := Some msg in
    let operand = ref 0 and structural = ref 0 and makespan = ref 0 in
    Array.iter
      (fun (ins : Instr.t) ->
        let id = ins.Instr.id in
        let lat = latency_of id in
        let base = r.issue_base.(id) in
        let ready = operands_ready r.finishes ins.Instr.srcs base in
        if r.finishes.(id) - r.starts.(id) <> lat then
          flag
            (Printf.sprintf "latency anomaly: #%d ran %d cycles, unit model says %d" id
               (r.finishes.(id) - r.starts.(id))
               lat)
        else if r.starts.(id) < ready then
          flag (Printf.sprintf "causality violation: #%d issued before its operands" id);
        operand := !operand + (ready - base);
        structural := !structural + (r.starts.(id) - ready);
        makespan := max !makespan r.finishes.(id))
      p.Program.instrs;
    if !violation = None then begin
      if !operand <> r.stall_operand_cycles then
        flag
          (Printf.sprintf "stall accounting: operand %d recorded, %d derived"
             r.stall_operand_cycles !operand);
      if !structural <> r.stall_structural_cycles then
        flag
          (Printf.sprintf "stall accounting: structural %d recorded, %d derived"
             r.stall_structural_cycles !structural);
      if !makespan <> r.cycles then
        flag (Printf.sprintf "makespan %d recorded, %d derived" r.cycles !makespan)
    end;
    match !violation with None -> Ok () | Some msg -> Result.Error msg
  end

let frame_seconds r = r.seconds

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%d instrs, %d cycles (%.3f ms), energy %.3f mJ (dyn %.3f + static %.3f)@,"
    r.instructions r.cycles (r.seconds *. 1e3) (r.energy_j *. 1e3) (r.dynamic_energy_j *. 1e3)
    (r.static_energy_j *. 1e3);
  List.iter
    (fun (ph, c) -> Format.fprintf ppf "  %-10s %8d busy cycles@," (Instr.phase_name ph) c)
    r.phase_busy;
  List.iter
    (fun (cls, u) -> Format.fprintf ppf "  %-8s %5.1f%% utilized@," (Unit_model.class_name cls) (100.0 *. u))
    r.utilization;
  Format.fprintf ppf "  stalls: %d operand + %d structural instruction-cycles@,"
    r.stall_operand_cycles r.stall_structural_cycles;
  Format.fprintf ppf "@]"
