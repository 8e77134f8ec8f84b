open Orianna_isa
open Orianna_hw

let gantt_csv (p : Program.t) (r : Schedule.result) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "id,opcode,phase,algo,unit,start,finish,cycles\n";
  Array.iter
    (fun (ins : Instr.t) ->
      let id = ins.Instr.id in
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%d,%s,%d,%d,%d\n" id
           (Instr.opcode_name ins.Instr.op)
           (Instr.phase_name ins.Instr.phase)
           ins.Instr.algo
           (Unit_model.class_name (Unit_model.class_of_op ins.Instr.op))
           r.Schedule.starts.(id) r.Schedule.finishes.(id)
           (r.Schedule.finishes.(id) - r.Schedule.starts.(id))))
    p.Program.instrs;
  Buffer.contents buf

let utilization_timeline ?(width = 72) (p : Program.t) (r : Schedule.result) =
  let makespan = max 1 r.Schedule.cycles in
  let buf = Buffer.create 1024 in
  List.iter
    (fun cls ->
      let busy = Array.make width 0.0 in
      Array.iter
        (fun (ins : Instr.t) ->
          if Unit_model.class_of_op ins.Instr.op = cls then begin
            let s = r.Schedule.starts.(ins.Instr.id) and f = r.Schedule.finishes.(ins.Instr.id) in
            (* Spread the busy interval over the bins it overlaps. *)
            let bin_width = float_of_int makespan /. float_of_int width in
            let b0 = int_of_float (float_of_int s /. bin_width) in
            let b1 = min (width - 1) (int_of_float (float_of_int (f - 1) /. bin_width)) in
            for b = b0 to b1 do
              let bin_lo = float_of_int b *. bin_width in
              let bin_hi = bin_lo +. bin_width in
              let overlap = Float.min bin_hi (float_of_int f) -. Float.max bin_lo (float_of_int s) in
              if overlap > 0.0 then busy.(b) <- busy.(b) +. overlap
            done
          end)
        p.Program.instrs;
      Buffer.add_string buf (Printf.sprintf "%-8s " (Unit_model.class_name cls));
      let bin_width = float_of_int makespan /. float_of_int width in
      Array.iter
        (fun b ->
          let frac = b /. bin_width in
          if frac <= 0.01 then Buffer.add_char buf '.'
          else begin
            let level = min 9 (int_of_float (frac *. 10.0)) in
            Buffer.add_char buf (Char.chr (Char.code '0' + level))
          end)
        busy;
      Buffer.add_char buf '\n')
    Unit_model.all_classes;
  Buffer.contents buf

module Json = Orianna_obs.Json
module Chrome_trace = Orianna_obs.Chrome_trace

(* One Chrome-trace "process" for the accelerator, one "thread" per
   unit-class instance.  Instances are not recorded by the scheduler
   (only class counts are), so replay the valid schedule greedily:
   instructions of a class, in start order, each take the
   lowest-numbered instance free at their start cycle.  A valid
   schedule never overlaps more instructions than instances, so this
   interval coloring never needs an extra track — but allocate one
   defensively rather than stack slices on top of each other. *)
let accel_pid = 1

let chrome_events (p : Program.t) (r : Schedule.result) =
  let by_class =
    List.map
      (fun cls ->
        let mine =
          Array.to_list p.Program.instrs
          |> List.filter (fun (i : Instr.t) -> Unit_model.class_of_op i.Instr.op = cls)
          |> List.sort (fun (a : Instr.t) (b : Instr.t) ->
                 compare
                   (r.Schedule.starts.(a.Instr.id), a.Instr.id)
                   (r.Schedule.starts.(b.Instr.id), b.Instr.id))
        in
        (cls, mine))
      Unit_model.all_classes
  in
  let events = ref [] in
  let tid_base = ref 0 in
  List.iter
    (fun (cls, instrs) ->
      let free = ref [||] in
      let instance_of start =
        let k = ref (-1) in
        Array.iteri (fun i ft -> if !k < 0 && ft <= start then k := i) !free;
        if !k < 0 then begin
          free := Array.append !free [| 0 |];
          k := Array.length !free - 1
        end;
        !k
      in
      let used = ref 0 in
      List.iter
        (fun (ins : Instr.t) ->
          let id = ins.Instr.id in
          let start = r.Schedule.starts.(id) and finish = r.Schedule.finishes.(id) in
          let k = instance_of start in
          !free.(k) <- finish;
          used := max !used (k + 1);
          events :=
            Chrome_trace.Duration
              {
                name = Instr.opcode_name ins.Instr.op;
                cat = Instr.phase_name ins.Instr.phase;
                pid = accel_pid;
                tid = !tid_base + k;
                ts_us = float_of_int start;
                dur_us = float_of_int (finish - start);
                args =
                  [
                    ("id", Json.int id);
                    ("algo", Json.int ins.Instr.algo);
                    ("tag", Json.Str ins.Instr.tag);
                    ("shape", Json.Str (Printf.sprintf "%dx%d" ins.Instr.rows ins.Instr.cols));
                  ];
              }
            :: !events)
        instrs;
      for k = 0 to !used - 1 do
        events :=
          Chrome_trace.Thread_name
            {
              pid = accel_pid;
              tid = !tid_base + k;
              name = Printf.sprintf "%s#%d" (Unit_model.class_name cls) k;
            }
          :: !events
      done;
      tid_base := !tid_base + max 1 !used)
    by_class;
  Chrome_trace.Process_name { pid = accel_pid; name = "accelerator" } :: List.rev !events

let chrome_trace p r = Chrome_trace.to_string (chrome_events p r)

let phase_color = function
  | Instr.Construct -> "lightblue"
  | Instr.Decompose -> "lightsalmon"
  | Instr.Backsub -> "lightgreen"

let to_dot (p : Program.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph program {\n  rankdir=LR;\n  node [shape=box, style=filled];\n";
  Array.iter
    (fun (ins : Instr.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  i%d [label=\"%s\\n%dx%d\", fillcolor=%s];\n" ins.Instr.id
           (Instr.opcode_name ins.Instr.op) ins.Instr.rows ins.Instr.cols
           (phase_color ins.Instr.phase));
      Array.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "  i%d -> i%d;\n" s ins.Instr.id))
        ins.Instr.srcs)
    p.Program.instrs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Stall attribution for the operand-aware reorder pass.               *)

let operand_stalls (p : Program.t) (r : Schedule.result) =
  let n = Array.length p.Program.instrs in
  let out = Array.make n 0 in
  Array.iter
    (fun (ins : Instr.t) ->
      let id = ins.Instr.id in
      let base = r.Schedule.issue_base.(id) in
      let ready = ref base and culprit = ref (-1) in
      Array.iter
        (fun s ->
          if r.Schedule.finishes.(s) > !ready then begin
            ready := r.Schedule.finishes.(s);
            culprit := s
          end)
        ins.Instr.srcs;
      if !culprit >= 0 && !ready > base then
        out.(!culprit) <- out.(!culprit) + (!ready - base))
    p.Program.instrs;
  out
