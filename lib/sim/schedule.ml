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

(* Dense per-run scratch, sized to the program.  [schedule_ooo] used
   to rebuild hashtables keyed by instruction id on every call; these
   arrays are allocated once per [run] and reused across the
   [Ooo_fine] partitions.  Invariant between calls: [in_subset] is all
   [false] and [children] all [[]] ([indeg]/[ready_dep_time] are
   (re)initialised per subset id, so they need no clearing). *)
type scratch = {
  in_subset : bool array;
  indeg : int array;
  children : int list array;
  ready_dep_time : int array;
}

let make_scratch n =
  {
    in_subset = Array.make n false;
    indeg = Array.make n 0;
    children = Array.make n [];
    ready_dep_time = Array.make n 0;
  }

(* Critical-path priority: longest latency-weighted path to a sink. *)
let priorities (p : Program.t) ~lat =
  let n = Array.length p.Program.instrs in
  let prio = Array.make n 0 in
  for i = n - 1 downto 0 do
    let ins = p.Program.instrs.(i) in
    prio.(i) <- max prio.(i) lat.(i);
    Array.iter (fun s -> prio.(s) <- max prio.(s) (prio.(i) + lat.(s))) ins.Instr.srcs
  done;
  prio

(* Dataflow (OoO) list scheduling of the instruction subset [ids],
   starting no earlier than [t0].  Returns the subset makespan.
   [lat] holds each instruction's execution cycles; [cls_of] maps
   instruction id to its dense unit-class index (the per-arrival
   [class_index] list scan, hoisted to one pass in [run]); [scratch]
   is the caller's reusable dependency-tracking state.
   Heap tie-breaking depends on push order, so the traversal orders
   here (ids order for roots, srcs order for dependency edges,
   prepend-then-iterate for children) are part of the bit-identical
   contract with the seed scheduler. *)
let schedule_ooo (p : Program.t) ~lat ~prio ~cls_of ~scratch ~counts ~starts ~finishes
    ~ids ~t0 =
  let { in_subset; indeg; children; ready_dep_time } = scratch in
  Array.iter (fun id -> in_subset.(id) <- true) ids;
  Array.iter
    (fun id ->
      let ins = p.Program.instrs.(id) in
      let deps = ref 0 in
      Array.iter
        (fun s ->
          if in_subset.(s) then begin
            incr deps;
            children.(s) <- id :: children.(s)
          end)
        ins.Instr.srcs;
      indeg.(id) <- !deps;
      ready_dep_time.(id) <- t0)
    ids;
  (* Per-class: arrivals ordered by ready time, ready ordered by
     descending priority.  Unit instances as free-time arrays. *)
  let arrivals =
    Array.init num_classes (fun _ -> Heap.create ~cmp:(fun (ta, _) (tb, _) -> compare ta tb))
  in
  let ready =
    Array.init num_classes (fun _ -> Heap.create ~cmp:(fun (pa, _) (pb, _) -> compare pb pa))
  in
  let free : int array array =
    Array.of_list
      (List.map (fun cls -> Array.make (List.assoc cls counts) t0) Unit_model.all_classes)
  in
  let arrive id t = Heap.push arrivals.(cls_of.(id)) (max t t0, id) in
  Array.iter
    (fun id -> if indeg.(id) = 0 then arrive id t0)
    ids;
  let remaining = ref (Array.length ids) in
  let t = ref t0 in
  let makespan = ref t0 in
  let telemetry = Obs.enabled () in
  while !remaining > 0 do
    (* Promote arrivals whose time has come. *)
    for c = 0 to num_classes - 1 do
      let continue_ = ref true in
      while !continue_ do
        match Heap.peek arrivals.(c) with
        | Some (ta, id) when ta <= !t ->
            ignore (Heap.pop arrivals.(c));
            Heap.push ready.(c) (prio.(id), id)
        | Some _ | None -> continue_ := false
      done
    done;
    if telemetry then begin
      let depth = ref 0 in
      for c = 0 to num_classes - 1 do
        depth := !depth + Heap.size ready.(c)
      done;
      Obs.observe "sim.ready_queue_depth" (float_of_int !depth)
    end;
    (* Greedily fill free unit instances with the highest-priority
       ready instruction of their class. *)
    let scheduled_any = ref false in
    for c = 0 to num_classes - 1 do
      let continue_ = ref true in
      while !continue_ && not (Heap.is_empty ready.(c)) do
        (* Find a free instance. *)
        let best = ref (-1) in
        Array.iteri (fun k ft -> if ft <= !t && (!best < 0 || ft < free.(c).(!best)) then best := k) free.(c);
        if !best < 0 then continue_ := false
        else begin
          match Heap.pop ready.(c) with
          | None -> continue_ := false
          | Some (_, id) ->
              let start = max !t ready_dep_time.(id) in
              let finish = start + lat.(id) in
              starts.(id) <- start;
              finishes.(id) <- finish;
              free.(c).(!best) <- finish;
              makespan := max !makespan finish;
              decr remaining;
              scheduled_any := true;
              List.iter
                (fun child ->
                  let d = indeg.(child) - 1 in
                  indeg.(child) <- d;
                  if finish > ready_dep_time.(child) then ready_dep_time.(child) <- finish;
                  if d = 0 then arrive child finish)
                children.(id)
        end
      done
    done;
    if !remaining > 0 && not !scheduled_any then begin
      (* Advance time to the next event: an arrival or a unit free. *)
      let next = ref max_int in
      for c = 0 to num_classes - 1 do
        (match Heap.peek arrivals.(c) with Some (ta, _) when ta > !t -> next := min !next ta | _ -> ());
        if not (Heap.is_empty ready.(c)) then
          Array.iter (fun ft -> if ft > !t then next := min !next ft) free.(c)
      done;
      if !next = max_int then begin
        (* Everything ready but no instance ever frees — e.g. a class
           needed by a pending instruction has zero live instances.
           Report which instructions are stuck and what every unit
           instance is doing so campaign logs stay actionable. *)
        let stuck = ref [] in
        for c = num_classes - 1 downto 0 do
          let drain h of_entry =
            let continue_ = ref true in
            while !continue_ do
              match Heap.pop h with
              | Some e -> stuck := of_entry e :: !stuck
              | None -> continue_ := false
            done
          in
          drain ready.(c) snd;
          drain arrivals.(c) snd
        done;
        let occupancy =
          List.mapi (fun c cls -> (cls, Array.to_list free.(c))) Unit_model.all_classes
        in
        raise (Deadlock { cycle = !t; stuck = List.sort compare !stuck; occupancy })
      end;
      t := !next
    end
  done;
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
      let dep_ready = Array.fold_left (fun acc s -> max acc finishes.(s)) 0 ins.Instr.srcs in
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
  let makespan =
    match policy with
    | In_order -> schedule_in_order p ~lat ~counts ~starts ~finishes
    | Ooo_full ->
        let prio =
          match priority with
          | Critical_path -> priorities p ~lat
          | Fifo -> Array.init n (fun i -> -i)
        in
        schedule_ooo p ~lat ~prio ~cls_of ~scratch:(make_scratch n) ~counts ~starts
          ~finishes ~ids:(Array.init n Fun.id) ~t0:0
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
        let scratch = make_scratch n in
        List.fold_left
          (fun t0 algo ->
            let ids = Array.of_list (List.rev !(Hashtbl.find buckets algo)) in
            Array.iter (fun id -> issue_base.(id) <- t0) ids;
            schedule_ooo p ~lat ~prio ~cls_of ~scratch ~counts ~starts ~finishes ~ids
              ~t0)
          0 (List.rev !algo_order)
  in
  (* Accounting. *)
  let phase_busy = Hashtbl.create 4 in
  let bump tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let unit_busy_arr = Array.make num_classes 0 in
  let unit_seen = Array.make num_classes false in
  let dynamic = ref 0.0 in
  (* Stall causes: an instruction issuing at [start] after becoming
     issuable at [issue_base] spent [ready - issue_base] cycles waiting
     on operands (its sources still executing) and [start - ready]
     cycles on a structural hazard (operands done, every unit instance
     of its class busy — or, in order, the serial controller). *)
  let stall_operand = ref 0 and stall_structural = ref 0 in
  Array.iter
    (fun (ins : Instr.t) ->
      let id = ins.Instr.id in
      let c = cls_of.(id) in
      bump phase_busy ins.Instr.phase lat.(id);
      unit_busy_arr.(c) <- unit_busy_arr.(c) + lat.(id);
      unit_seen.(c) <- true;
      let base = issue_base.(id) in
      let ready = Array.fold_left (fun acc s -> max acc finishes.(s)) base ins.Instr.srcs in
      stall_operand := !stall_operand + (ready - base);
      stall_structural := !stall_structural + (starts.(id) - ready);
      dynamic := !dynamic +. Unit_model.dynamic_energy_nj classes_arr.(c) ins ~src_shape)
    p.Program.instrs;
  if Obs.enabled () then begin
    Obs.count "sim.instructions" ~n;
    Obs.count "sim.stall.operand_cycles" ~n:!stall_operand;
    Obs.count "sim.stall.structural_cycles" ~n:!stall_structural;
    Obs.set_gauge "sim.makespan_cycles" (float_of_int makespan)
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
    phase_busy = Hashtbl.fold (fun k v acc -> (k, v) :: acc) phase_busy [] |> List.sort compare;
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
        let ready =
          Array.fold_left (fun acc s -> max acc r.finishes.(s)) base ins.Instr.srcs
        in
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
