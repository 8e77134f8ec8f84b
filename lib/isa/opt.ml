open Orianna_linalg
module Obs = Orianna_obs.Obs
module Heap = Orianna_util.Heap

type report = {
  before : int;
  after : int;
  cse_merged : int;
  fused : int;
  dce_removed : int;
  reorder_moved : int;
  superword_merged : int;
  cycle_deltas : (string * int) list;
}

let clamp_level n = max 0 (min 3 n)
let last_static_level = 1

(* Accepted steps carry their saving (>= 0); rejected candidates carry
   the regression they would have cost (< 0). *)
let cycles_saved r = List.fold_left (fun acc (_, d) -> if d > 0 then acc + d else acc) 0 r.cycle_deltas

let identity_map n = Array.init n (fun i -> i)

(* Compose register maps: [m1] old->mid, [m2] mid->new. *)
let compose m1 m2 = Array.map (fun m -> if m < 0 then -1 else m2.(m)) m1

let rec resolve subst i =
  let j = subst.(i) in
  if j = i then i
  else begin
    let r = resolve subst j in
    subst.(i) <- r;
    r
  end

(* Rebuild [p] keeping instruction [i] iff [keep.(i)], with every
   register first redirected through [subst].  Representatives
   (targets of [subst]) must be kept.  Returns the rebuilt program and
   the old->new register map; a dropped-but-forwarded register maps to
   its representative's new id, a dropped dead register to [-1]. *)
let rebuild (p : Program.t) ~(instrs : Instr.t array) ~subst ~keep =
  let n = Array.length instrs in
  let map = Array.make n (-1) in
  let b = Program.Builder.create () in
  Array.iteri
    (fun i (ins : Instr.t) ->
      if keep.(i) then begin
        let srcs = Array.map (fun s -> map.(resolve subst s)) ins.Instr.srcs in
        map.(i) <-
          Program.Builder.emit b ~op:ins.Instr.op ~srcs ~rows:ins.Instr.rows ~cols:ins.Instr.cols
            ~phase:ins.Instr.phase ~algo:ins.Instr.algo ~tag:ins.Instr.tag
      end)
    instrs;
  let map = Array.mapi (fun i m -> if m >= 0 then m else map.(resolve subst i)) map in
  let outputs = List.map (fun (nm, r) -> (nm, map.(resolve subst r))) p.Program.outputs in
  (Program.Builder.finish b ~outputs, map)

(* ------------------------------------------------------------------ *)
(* CSE                                                                 *)

let opcode_tag : Instr.opcode -> int = function
  | Instr.Load _ -> 0
  | Instr.Vadd -> 1
  | Instr.Vsub -> 2
  | Instr.Scale _ -> 3
  | Instr.Neg -> 4
  | Instr.Transpose -> 5
  | Instr.Gemm -> 6
  | Instr.Gemv -> 7
  | Instr.Logm -> 8
  | Instr.Expm -> 9
  | Instr.Skew -> 10
  | Instr.Jr -> 11
  | Instr.Jrinv -> 12
  | Instr.Assemble _ -> 13
  | Instr.Extract _ -> 14
  | Instr.Qr -> 15
  | Instr.Backsolve -> 16
  | Instr.Kernel _ -> 17

(* Structural value key: opcode + payload (Load matrices by bytes) +
   resolved sources + declared shape.  Phase/algo/tag are metadata,
   not semantics, and are deliberately excluded so duplicates merge
   across graphs of a concatenated application.  [Vadd] sources are
   sorted: IEEE-754 addition is commutative bit-for-bit. *)
let value_key subst (ins : Instr.t) =
  match ins.Instr.op with
  | Instr.Kernel _ -> None
  | op ->
      let buf = Buffer.create 64 in
      let w32 v = Buffer.add_int32_le buf (Int32.of_int v) in
      let wf64 x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
      w32 (opcode_tag op);
      (match op with
      | Instr.Load m ->
          let r, c = Mat.dims m in
          w32 r;
          w32 c;
          for i = 0 to r - 1 do
            for j = 0 to c - 1 do
              wf64 (Mat.get m i j)
            done
          done
      | Instr.Scale s -> wf64 s
      | Instr.Assemble places ->
          w32 (List.length places);
          List.iter
            (fun (r, c) ->
              w32 r;
              w32 c)
            places
      | Instr.Extract { row; col; rows; cols } ->
          w32 row;
          w32 col;
          w32 rows;
          w32 cols
      | _ -> ());
      let srcs = Array.map (resolve subst) ins.Instr.srcs in
      (match op with
      | Instr.Vadd when Array.length srcs = 2 && srcs.(0) > srcs.(1) ->
          let t = srcs.(0) in
          srcs.(0) <- srcs.(1);
          srcs.(1) <- t
      | _ -> ());
      w32 (Array.length srcs);
      Array.iter w32 srcs;
      w32 ins.Instr.rows;
      w32 ins.Instr.cols;
      Some (Buffer.contents buf)

let cse_pass (p : Program.t) =
  let instrs = p.Program.instrs in
  let n = Array.length instrs in
  let subst = identity_map n in
  let keep = Array.make n true in
  let table = Hashtbl.create ((2 * n) + 1) in
  let merged = ref 0 in
  Array.iteri
    (fun i ins ->
      match value_key subst ins with
      | None -> ()
      | Some k -> (
          match Hashtbl.find_opt table k with
          | Some rep ->
              subst.(i) <- rep;
              keep.(i) <- false;
              incr merged
          | None -> Hashtbl.add table k i))
    instrs;
  let p', map = rebuild p ~instrs ~subst ~keep in
  (p', map, !merged)

let cse p =
  let p', map, _ = cse_pass p in
  (p', map)

(* ------------------------------------------------------------------ *)
(* Peephole fusion                                                     *)

let fuse_pass (p : Program.t) =
  let instrs = Array.copy p.Program.instrs in
  let n = Array.length instrs in
  let subst = identity_map n in
  let keep = Array.make n true in
  let fused = ref 0 in
  let changed = ref true in
  let forward i target =
    subst.(i) <- resolve subst target;
    keep.(i) <- false;
    incr fused;
    changed := true
  in
  let set i op srcs =
    instrs.(i) <- { (instrs.(i)) with Instr.op; srcs };
    incr fused;
    changed := true
  in
  let def s = instrs.(resolve subst s) in
  let rounds = ref 0 in
  while !changed && !rounds < 8 do
    changed := false;
    incr rounds;
    for i = 0 to n - 1 do
      if keep.(i) then begin
        (* Resolve sources through the substitution first so chains
           expose themselves within one round. *)
        let rs = Array.map (resolve subst) instrs.(i).Instr.srcs in
        if rs <> instrs.(i).Instr.srcs then instrs.(i) <- { (instrs.(i)) with Instr.srcs = rs };
        let ins = instrs.(i) in
        match ins.Instr.op with
        | Instr.Scale s when s = 1.0 -> forward i ins.Instr.srcs.(0)
        | Instr.Scale s -> (
            let dx = def ins.Instr.srcs.(0) in
            match dx.Instr.op with
            | Instr.Scale s' -> set i (Instr.Scale (s *. s')) [| dx.Instr.srcs.(0) |]
            | Instr.Neg -> set i (Instr.Scale (-.s)) [| dx.Instr.srcs.(0) |]
            | _ -> ())
        | Instr.Neg -> (
            let dx = def ins.Instr.srcs.(0) in
            match dx.Instr.op with
            | Instr.Neg -> forward i dx.Instr.srcs.(0)
            | Instr.Scale s -> set i (Instr.Scale (-.s)) [| dx.Instr.srcs.(0) |]
            | Instr.Vsub -> set i Instr.Vsub [| dx.Instr.srcs.(1); dx.Instr.srcs.(0) |]
            | _ -> ())
        | Instr.Transpose -> (
            let dx = def ins.Instr.srcs.(0) in
            match dx.Instr.op with
            | Instr.Transpose -> forward i dx.Instr.srcs.(0)
            | _ -> ())
        | Instr.Vadd -> (
            let a = ins.Instr.srcs.(0) and b = ins.Instr.srcs.(1) in
            match ((def b).Instr.op, (def a).Instr.op) with
            | Instr.Neg, _ -> set i Instr.Vsub [| a; (def b).Instr.srcs.(0) |]
            | _, Instr.Neg -> set i Instr.Vsub [| b; (def a).Instr.srcs.(0) |]
            | _ -> ())
        | Instr.Vsub -> (
            let a = ins.Instr.srcs.(0) and b = ins.Instr.srcs.(1) in
            match (def b).Instr.op with
            | Instr.Neg -> set i Instr.Vadd [| a; (def b).Instr.srcs.(0) |]
            | _ -> ())
        | Instr.Assemble [ (0, 0) ] when Array.length ins.Instr.srcs = 1 ->
            let ds = def ins.Instr.srcs.(0) in
            if ds.Instr.rows = ins.Instr.rows && ds.Instr.cols = ins.Instr.cols then
              forward i ins.Instr.srcs.(0)
        | Instr.Extract { row; col; rows; cols } -> (
            let x = ins.Instr.srcs.(0) in
            let dx = def x in
            if row = 0 && col = 0 && rows = dx.Instr.rows && cols = dx.Instr.cols then forward i x
            else
              match dx.Instr.op with
              | Instr.Assemble places ->
                  (* Forward an extract that reads exactly one placed
                     block, provided no later block clobbers it (later
                     blocks overwrite earlier ones in [execute]). *)
                  let places = Array.of_list places in
                  let nb = Array.length places in
                  let region k =
                    let r, c = places.(k) in
                    let s = def dx.Instr.srcs.(k) in
                    (r, c, s.Instr.rows, s.Instr.cols)
                  in
                  let overlaps (r1, c1, h1, w1) (r2, c2, h2, w2) =
                    r1 < r2 + h2 && r2 < r1 + h1 && c1 < c2 + w2 && c2 < c1 + w1
                  in
                  let found = ref (-1) in
                  for k = 0 to nb - 1 do
                    let r, c, h, w = region k in
                    if r = row && c = col && h = rows && w = cols then found := k
                  done;
                  if !found >= 0 then begin
                    let k = !found in
                    let clobbered = ref false in
                    for j = k + 1 to nb - 1 do
                      if overlaps (region k) (region j) then clobbered := true
                    done;
                    if not !clobbered then forward i dx.Instr.srcs.(k)
                  end
              | _ -> ())
        | _ -> ()
      end
    done
  done;
  let p', map = rebuild p ~instrs ~subst ~keep in
  (p', map, !fused)

let fuse p =
  let p', map, _ = fuse_pass p in
  (p', map)

(* ------------------------------------------------------------------ *)
(* DCE                                                                 *)

let dce_pass (p : Program.t) =
  let instrs = p.Program.instrs in
  let n = Array.length instrs in
  let live = Array.make n false in
  List.iter (fun (_, r) -> live.(r) <- true) p.Program.outputs;
  for i = n - 1 downto 0 do
    if live.(i) then Array.iter (fun s -> live.(s) <- true) instrs.(i).Instr.srcs
  done;
  let removed = ref 0 in
  Array.iter (fun l -> if not l then incr removed) live;
  let p', map = rebuild p ~instrs ~subst:(identity_map n) ~keep:live in
  (p', map, !removed)

let dce p =
  let p', map, _ = dce_pass p in
  (p', map)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

(* The hardware layer ([Orianna_hw]) sits above [Orianna_isa], so the
   real per-opcode latencies and unit-instance counts are injected
   through this record (see [Orianna_hw.Accel.cost_model]) rather than
   referenced directly.  [static_cost_model] mirrors the shape (not
   the exact parameters) of [Unit_model] with one port per class. *)
type cost_model = {
  classes : int;
  class_of : Instr.opcode -> int;
  ports : int array;
  latency : Instr.t -> src_shape:(int -> int * int) -> int;
}

let static_class_of : Instr.opcode -> int = function
  | Instr.Gemm | Instr.Gemv | Instr.Kernel _ -> 0
  | Instr.Vadd | Instr.Vsub | Instr.Scale _ | Instr.Neg | Instr.Transpose -> 1
  | Instr.Logm | Instr.Expm | Instr.Skew | Instr.Jr | Instr.Jrinv -> 2
  | Instr.Qr -> 3
  | Instr.Backsolve -> 4
  | Instr.Load _ | Instr.Assemble _ | Instr.Extract _ -> 5

let static_latency_of (ins : Instr.t) ~src_shape =
  let out = ins.Instr.rows * ins.Instr.cols in
  let cd a b = (a + b - 1) / b in
  match ins.Instr.op with
  | Instr.Load _ | Instr.Assemble _ | Instr.Extract _ -> 2 + cd out 8
  | Instr.Vadd | Instr.Vsub | Instr.Scale _ | Instr.Neg | Instr.Transpose -> 2 + cd out 16
  | Instr.Logm | Instr.Expm | Instr.Skew | Instr.Jr | Instr.Jrinv -> 20
  | Instr.Gemm | Instr.Gemv ->
      let _, k = src_shape ins.Instr.srcs.(0) in
      2 + (cd ins.Instr.rows 8 * cd ins.Instr.cols 8 * (k + 8))
  | Instr.Qr ->
      let m, nn = src_shape ins.Instr.srcs.(0) in
      let w = ref 6 in
      for k = 0 to min m nn - 1 do
        w := !w + (cd (max (m - k - 1) 1) 8 * (nn - k))
      done;
      !w
  | Instr.Backsolve ->
      let nn, _ = src_shape ins.Instr.srcs.(0) in
      2 + (nn * cd nn 4) + nn
  | Instr.Kernel k -> 2 + cd k.Instr.flops 64

let static_cost_model =
  {
    classes = 6;
    class_of = static_class_of;
    ports = Array.make 6 1;
    latency = static_latency_of;
  }

type probe = Program.t -> int * int array

(* Resource-constrained list scheduling over the whole stream: at each
   step pick, among dependence-ready instructions, the one that can
   start earliest given per-class port availability; ties go to the
   higher critical-path priority, then the lower id.  Returns the
   issue order and the modeled makespan.  Deterministic by
   construction.

   A ready instruction of class [c] can start at
   [max dep_ready free.(c)], where [free.(c)] is the class's earliest
   port-free time.  [free.(c)] never decreases: an instruction issues
   on the earliest port, at or after its free time, and occupies it
   for at least one cycle.  So each class splits its ready
   instructions into two heaps.  [avail] holds those with
   [dep_ready <= free.(c)]: all start at [free.(c)], ordered by
   (priority desc, id) — the key is the instruction's [priority_rank].
   [waiting] holds the rest: each starts at its own [dep_ready],
   ordered by (dep_ready, priority desc, id) — the key
   [dep_ready * n + rank].  Both orders are total, so no two entries
   of a heap share a key.  An
   instruction moves from [waiting] to [avail] once [free.(c)]
   reaches its [dep_ready], and never back.  A class's best candidate
   is the head of [avail] when there is one (it starts strictly before
   any waiting instruction), else the head of [waiting]; each step
   takes the minimum (start, -priority, id) over the class heads,
   the same instruction a scan of the whole ready list would pick.
   Cost O(n (log n + classes + ports) + edges). *)
(* [rank.(i)] is [i]'s position in the order (priority desc, id):
   one int key for that total order. *)
let priority_rank prio =
  let by_rank = Array.init (Array.length prio) Fun.id in
  Array.stable_sort (fun a b -> compare (prio.(b) : int) prio.(a)) by_rank;
  let rank = Array.make (Array.length prio) 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_rank;
  rank

let list_schedule ~(cost_model : cost_model) ?stalls (p : Program.t) =
  let cm = cost_model in
  let instrs = p.Program.instrs in
  let n = Array.length instrs in
  (match stalls with
  | Some s when Array.length s <> n -> invalid_arg "Opt.list_schedule: stalls length mismatch"
  | _ -> ());
  let src_shape s = (instrs.(s).Instr.rows, instrs.(s).Instr.cols) in
  let lat = Array.init n (fun i -> max 1 (cm.latency instrs.(i) ~src_shape)) in
  let cls =
    Array.init n (fun i ->
        let c = cm.class_of instrs.(i).Instr.op in
        if c < 0 || c >= cm.classes then invalid_arg "Opt.list_schedule: class out of range";
        c)
  in
  let w i = lat.(i) + match stalls with Some s -> s.(i) | None -> 0 in
  let prio = Array.init n w in
  for i = n - 1 downto 0 do
    Array.iter
      (fun s -> if prio.(s) < prio.(i) + w s then prio.(s) <- prio.(i) + w s)
      instrs.(i).Instr.srcs
  done;
  let indeg = Array.make n 0 and consumers = Array.make n [] in
  for i = 0 to n - 1 do
    Array.iter
      (fun s ->
        indeg.(i) <- indeg.(i) + 1;
        consumers.(s) <- i :: consumers.(s))
      instrs.(i).Instr.srcs
  done;
  let port_free = Array.init cm.classes (fun c -> Array.make (max 1 cm.ports.(c)) 0) in
  let earliest_port c =
    let free = port_free.(c) in
    let k = ref 0 in
    for j = 1 to Array.length free - 1 do
      if free.(j) < free.(!k) then k := j
    done;
    !k
  in
  let free = Array.make cm.classes 0 in
  let dep_ready = Array.make n 0 in
  let rank = priority_rank prio in
  let avail = Array.init cm.classes (fun _ -> Heap.create ()) in
  let waiting = Array.init cm.classes (fun _ -> Heap.create ()) in
  (* [dep_ready.(i)] is final once [i] is ready: all its producers
     have issued. *)
  let make_ready i =
    let c = cls.(i) in
    if dep_ready.(i) <= free.(c) then Heap.push avail.(c) ~key:rank.(i) i
    else Heap.push waiting.(c) ~key:((dep_ready.(i) * n) + rank.(i)) i
  in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then make_ready i
  done;
  let order = Array.make n 0 in
  let makespan = ref 0 in
  for pos = 0 to n - 1 do
    let best = ref (-1) and best_start = ref max_int in
    let consider i st =
      if
        st < !best_start
        || st = !best_start
           && (!best < 0 || prio.(i) > prio.(!best) || (prio.(i) = prio.(!best) && i < !best))
      then begin
        best := i;
        best_start := st
      end
    in
    for c = 0 to cm.classes - 1 do
      if not (Heap.is_empty avail.(c)) then consider (Heap.min_value avail.(c)) free.(c)
      else if not (Heap.is_empty waiting.(c)) then begin
        let i = Heap.min_value waiting.(c) in
        consider i dep_ready.(i)
      end
    done;
    let i = !best in
    if i < 0 then failwith "Opt.list_schedule: no ready instruction (cycle?)";
    let c = cls.(i) in
    ignore (Heap.pop (if Heap.is_empty avail.(c) then waiting.(c) else avail.(c)));
    let k = earliest_port c in
    let fin = !best_start + lat.(i) in
    port_free.(c).(k) <- fin;
    free.(c) <- port_free.(c).(earliest_port c);
    while
      (not (Heap.is_empty waiting.(c))) && dep_ready.(Heap.min_value waiting.(c)) <= free.(c)
    do
      let j = Heap.pop waiting.(c) in
      Heap.push avail.(c) ~key:rank.(j) j
    done;
    if fin > !makespan then makespan := fin;
    order.(pos) <- i;
    List.iter
      (fun c ->
        if fin > dep_ready.(c) then dep_ready.(c) <- fin;
        indeg.(c) <- indeg.(c) - 1;
        if indeg.(c) = 0 then make_ready c)
      consumers.(i)
  done;
  (order, !makespan)

let estimate_cycles ?(cost_model = static_cost_model) p = snd (list_schedule ~cost_model p)

module Testing = struct
  let list_schedule = list_schedule
end

(* ------------------------------------------------------------------ *)
(* Operand-aware reorder                                               *)

let static_latency (instrs : Instr.t array) i =
  let src_shape s = (instrs.(s).Instr.rows, instrs.(s).Instr.cols) in
  static_latency_of instrs.(i) ~src_shape

(* Emit [p]'s instructions in [order]; shared by both reorder modes. *)
let emit_order (p : Program.t) order =
  let instrs = p.Program.instrs in
  let map = Array.make (Array.length instrs) (-1) in
  let b = Program.Builder.create () in
  Array.iter
    (fun i ->
      let ins = instrs.(i) in
      let srcs = Array.map (fun s -> map.(s)) ins.Instr.srcs in
      map.(i) <-
        Program.Builder.emit b ~op:ins.Instr.op ~srcs ~rows:ins.Instr.rows ~cols:ins.Instr.cols
          ~phase:ins.Instr.phase ~algo:ins.Instr.algo ~tag:ins.Instr.tag)
    order;
  let outputs = List.map (fun (nm, r) -> (nm, map.(r))) p.Program.outputs in
  (Program.Builder.finish b ~outputs, map)

let reorder_static ?stalls (p : Program.t) =
  let instrs = p.Program.instrs in
  let n = Array.length instrs in
  (match stalls with
  | Some s when Array.length s <> n -> invalid_arg "Opt.reorder: stalls length mismatch"
  | _ -> ());
  let w i = static_latency instrs i + match stalls with Some s -> s.(i) | None -> 0 in
  (* Priority: longest latency-weighted path from the instruction to
     any sink.  Descending sweep finalizes each consumer before its
     producers are relaxed (sources always have smaller ids). *)
  let prio = Array.init n w in
  for i = n - 1 downto 0 do
    Array.iter
      (fun s -> if prio.(s) < prio.(i) + w s then prio.(s) <- prio.(i) + w s)
      instrs.(i).Instr.srcs
  done;
  let rank = priority_rank prio in
  (* Greedy list order within each contiguous algo run, highest
     priority first, lower id on a tie.  Runs are not
     merged or interleaved: cross-run dependencies always point
     backwards, and the per-algorithm partition order used by
     [Ooo_fine] scheduling is preserved. *)
  let order = Array.make n 0 in
  let pos = ref 0 in
  let seg = ref 0 in
  while !seg < n do
    let lo = !seg in
    let a = instrs.(lo).Instr.algo in
    let hi = ref lo in
    while !hi < n && instrs.(!hi).Instr.algo = a do
      incr hi
    done;
    let hi = !hi in
    let indeg = Array.make n 0 in
    let consumers = Array.make n [] in
    for i = lo to hi - 1 do
      Array.iter
        (fun s ->
          if s >= lo then begin
            indeg.(i) <- indeg.(i) + 1;
            consumers.(s) <- i :: consumers.(s)
          end)
        instrs.(i).Instr.srcs
    done;
    let heap = Heap.create () in
    for i = lo to hi - 1 do
      if indeg.(i) = 0 then Heap.push heap ~key:rank.(i) i
    done;
    while not (Heap.is_empty heap) do
      let i = Heap.pop heap in
      order.(!pos) <- i;
      incr pos;
      List.iter
        (fun c ->
          indeg.(c) <- indeg.(c) - 1;
          if indeg.(c) = 0 then Heap.push heap ~key:rank.(c) c)
        consumers.(i)
    done;
    seg := hi
  done;
  if !pos <> n then failwith "Opt.reorder: scheduling did not cover the program";
  emit_order p order

let reorder ?stalls ?cost_model (p : Program.t) =
  match cost_model with
  | Some cm ->
      (* Resource-aware global schedule: port contention modeled, algo
         runs freely interleaved. *)
      let order, _ = list_schedule ~cost_model:cm ?stalls p in
      emit_order p order
  | None -> reorder_static ?stalls p

(* ------------------------------------------------------------------ *)
(* Superword batching                                                  *)

(* Merge small independent same-shape ops of the same [algo]/[phase]
   into one wide [Kernel] invocation whose result vertically stacks
   the member results; each member's register becomes an [Extract] of
   its slice.  Amortizes the per-instruction issue overhead and fills
   the systolic array the way the GPU baseline batches GEMMs.
   [`Mul] batches only matmul-class ops (Gemm/Gemv); [`All] also
   routes elementwise Vadd/Vsub/Scale/Neg batches through the matmul
   unit (worth it only when the vector queue, not the matmul port, is
   the constraint — callers gate it on measured cycles).

   Safety: two ops may share a batch only if they sit at the same
   dependence depth (longest path from a source).  Equal-depth nodes
   are automatically independent — any path strictly increases depth —
   and contraction cannot create a cycle: every contracted edge goes
   from a batch at depth d to a node at depth > d, so batch-to-batch
   edges strictly increase depth and the contracted graph stays
   acyclic.  (Checking only pairwise member independence is NOT
   enough: two batches can form a cycle through unrelated members.)
   The rebuilt stream is a topological order of the contracted
   graph. *)

let eligible_kind kinds (op : Instr.opcode) =
  match op with
  | Instr.Gemm | Instr.Gemv -> true
  | Instr.Vadd | Instr.Vsub | Instr.Scale _ | Instr.Neg -> kinds = `All
  | _ -> false

let superword_pass ?(min_batch = 3) ?(max_batch = 16) ?(kinds = `Mul) (p : Program.t) =
  let instrs = p.Program.instrs in
  let n = Array.length instrs in
  let src_shape s = (instrs.(s).Instr.rows, instrs.(s).Instr.cols) in
  (* [bit.(i)] numbers the eligible instructions, -1 for the rest. *)
  let bit = Array.make n (-1) in
  let candidates = ref 0 in
  Array.iteri
    (fun i (ins : Instr.t) ->
      if eligible_kind kinds ins.Instr.op then begin
        bit.(i) <- !candidates;
        incr candidates
      end)
    instrs;
  if !candidates < min_batch then (p, identity_map n, 0)
  else begin
    (* Transitive-ancestor bitsets (32 bits per word, flat array).
       Only eligible instructions are ever tested as ancestors, so only
       they get a bit, [bit.(i)]. *)
    let w = (!candidates + 31) / 32 in
    let anc = Array.make (n * w) 0 in
    let test_bit i j =
      let b = bit.(j) in
      anc.((i * w) + (b lsr 5)) land (1 lsl (b land 31)) <> 0
    in
    for i = 0 to n - 1 do
      Array.iter
        (fun s ->
          let bi = i * w and bs = s * w in
          for k = 0 to w - 1 do
            anc.(bi + k) <- anc.(bi + k) lor anc.(bs + k)
          done;
          let b = bit.(s) in
          if b >= 0 then anc.(bi + (b lsr 5)) <- anc.(bi + (b lsr 5)) lor (1 lsl (b land 31)))
        instrs.(i).Instr.srcs
    done;
    (* Greedy grouping in id order; flush a group on dependence
       conflict or when it reaches [max_batch]. *)
    let key (ins : Instr.t) =
      ( opcode_tag ins.Instr.op,
        ins.Instr.rows,
        ins.Instr.cols,
        Array.length ins.Instr.srcs,
        ins.Instr.algo,
        ins.Instr.phase )
    in
    let open_groups = Hashtbl.create 32 in
    let collected = ref [] in
    let commit members =
      (* members arrive newest-first *)
      if List.length members >= min_batch then collected := List.rev members :: !collected
    in
    Array.iteri
      (fun i (ins : Instr.t) ->
        if eligible_kind kinds ins.Instr.op then begin
          let k = key ins in
          match Hashtbl.find_opt open_groups k with
          | None -> Hashtbl.add open_groups k (ref [ i ])
          | Some cur ->
              if List.exists (fun m -> test_bit i m) !cur then begin
                commit !cur;
                cur := [ i ]
              end
              else begin
                cur := i :: !cur;
                if List.length !cur >= max_batch then begin
                  commit !cur;
                  cur := []
                end
              end
        end)
      instrs;
    (* The order batches are collected in is immaterial: the repair
       and the emission both order batches by their first member. *)
    Hashtbl.iter (fun _ cur -> commit !cur) open_groups;
    (* Pairwise member independence does not rule out a cycle crossing
       TWO batches (A -> B through one pair of members, B -> A through
       an unrelated pair), which would deadlock the contracted
       topological sort.  Repair: one counting-only Kahn pass over the
       contracted graph; whenever it stalls, dissolve the lowest-rep
       batch still blocked into its members and continue from where it
       stopped.  This dissolves the same batches, in the same order, as
       re-running Kahn on the rebuilt graph after every dissolve: the
       set a Kahn pass pops is the set of nodes no cycle reaches,
       whatever the pop order; dissolving a blocked batch keeps every
       popped node poppable and every pending edge count (an edge into
       or out of the batch becomes one into or out of a member); so
       the continued pass stalls on the same blocked set as a fresh
       pass on the rebuilt graph.  Dissolving every batch recovers the
       original (acyclic) program, so this terminates.  Node [s < n] is
       an unbatched instruction, [n + bi] batch [bi]; edges are stored
       per instruction and resolved to their current node when
       released, so dissolving rewires nothing. *)
    let batches = Array.of_list (List.rev !collected) in
    let nbatches = Array.length batches in
    if nbatches = 0 then (p, identity_map n, 0)
    else begin
      let batch_of = Array.make n (-1) in
      Array.iteri (fun bi ms -> List.iter (fun m -> batch_of.(m) <- bi) ms) batches;
      let dissolved = Array.make nbatches false in
      let node i = if batch_of.(i) >= 0 then n + batch_of.(i) else i in
      let live s = if s < n then batch_of.(s) < 0 else not dissolved.(s - n) in
      let iter_members f s = if s < n then f s else List.iter f batches.(s - n) in
      let consumers = Array.make n [] in
      for j = n - 1 downto 0 do
        Array.iter (fun s -> consumers.(s) <- j :: consumers.(s)) instrs.(j).Instr.srcs
      done;
      let nsup = n + nbatches in
      let indeg = Array.make nsup 0 in
      let count_in_edges () =
        Array.fill indeg 0 nsup 0;
        for j = 0 to n - 1 do
          let t = node j in
          Array.iter (fun s -> if node s <> t then indeg.(t) <- indeg.(t) + 1) instrs.(j).Instr.srcs
        done
      in
      (* Retire node [s]'s out-edges, handing each node they free to
         [ready]. *)
      let release ready s =
        iter_members
          (fun i ->
            List.iter
              (fun j ->
                let t = node j in
                if t <> s then begin
                  indeg.(t) <- indeg.(t) - 1;
                  if indeg.(t) = 0 then ready t
                end)
              consumers.(i))
          s
      in
      (* Hands every live node without pending in-edges to [ready];
         returns the number of live nodes. *)
      let ready_roots ready =
        let nodes = ref 0 in
        for s = 0 to nsup - 1 do
          if live s then begin
            incr nodes;
            if indeg.(s) = 0 then ready s
          end
        done;
        !nodes
      in
      count_in_edges ();
      let popped = Array.make nsup false in
      let stack = ref [] in
      let push s = stack := s :: !stack in
      let remaining = ref (ready_roots push) in
      let batch_rep bi = List.hd batches.(bi) in
      let by_rep = Array.init nbatches Fun.id in
      Array.sort (fun a b -> compare (batch_rep a : int) (batch_rep b)) by_rep;
      let cursor = ref 0 in
      while !remaining > 0 do
        match !stack with
        | s :: rest ->
            stack := rest;
            popped.(s) <- true;
            decr remaining;
            release push s
        | [] ->
            (* Stalled: every live node left is blocked, and a cycle
               among them runs through a batch. *)
            while popped.(n + by_rep.(!cursor)) || dissolved.(by_rep.(!cursor)) do
              incr cursor
            done;
            let bi = by_rep.(!cursor) in
            dissolved.(bi) <- true;
            List.iter (fun m -> batch_of.(m) <- -1) batches.(bi);
            remaining := !remaining - 1 + List.length batches.(bi);
            List.iter
              (fun m ->
                Array.iter
                  (fun s -> if not popped.(node s) then indeg.(m) <- indeg.(m) + 1)
                  instrs.(m).Instr.srcs;
                if indeg.(m) = 0 then push m)
              batches.(bi)
      done;
      if Array.for_all Fun.id dissolved then (p, identity_map n, 0)
      else begin
        (* Contracted-graph Kahn, ready nodes popped in old-id order: a
           batch by its first member. *)
        count_in_edges ();
        let heap = Heap.create () in
        let ready s = Heap.push heap ~key:(if s < n then s else batch_rep (s - n)) s in
        let nodes = ready_roots ready in
        let map = Array.make n (-1) in
        let b = Program.Builder.create () in
        let merged = ref 0 in
        let kcount = ref 0 in
        let emit_single i =
          let ins = instrs.(i) in
          let srcs = Array.map (fun s -> map.(s)) ins.Instr.srcs in
          map.(i) <-
            Program.Builder.emit b ~op:ins.Instr.op ~srcs ~rows:ins.Instr.rows ~cols:ins.Instr.cols
              ~phase:ins.Instr.phase ~algo:ins.Instr.algo ~tag:ins.Instr.tag
        in
        let emit_batch bi =
          let members = Array.of_list batches.(bi) in
          let count = Array.length members in
          let first = instrs.(members.(0)) in
          let mrows = first.Instr.rows and mcols = first.Instr.cols in
          let member_instrs = Array.map (fun m -> instrs.(m)) members in
          let arity = Array.map (fun (m : Instr.t) -> Array.length m.Instr.srcs) member_instrs in
          let flops =
            Array.fold_left (fun acc m -> acc + Instr.flops instrs.(m) ~src_shape) 0 members
          in
          let srcs =
            Array.concat
              (Array.to_list
                 (Array.map
                    (fun m -> Array.map (fun s -> map.(s)) instrs.(m).Instr.srcs)
                    members))
          in
          let idx = !kcount in
          incr kcount;
          let kname =
            Printf.sprintf "sw%d.%s.%dx%d.b%d" idx (Instr.opcode_name first.Instr.op) mrows mcols
              count
          in
          let apply mats =
            let out = Mat.create (count * mrows) mcols in
            let off = ref 0 in
            Array.iteri
              (fun j (m : Instr.t) ->
                let args = Array.sub mats !off arity.(j) in
                off := !off + arity.(j);
                Mat.set_block out (j * mrows) 0 (Program.eval_op m args))
              member_instrs;
            out
          in
          let kid =
            Program.Builder.emit b
              ~op:(Instr.Kernel { Instr.kname; flops; apply })
              ~srcs ~rows:(count * mrows) ~cols:mcols ~phase:first.Instr.phase
              ~algo:first.Instr.algo
              ~tag:"superword"
          in
          Array.iteri
            (fun j m ->
              let ins = instrs.(m) in
              map.(m) <-
                Program.Builder.emit b
                  ~op:(Instr.Extract { row = j * mrows; col = 0; rows = mrows; cols = mcols })
                  ~srcs:[| kid |] ~rows:mrows ~cols:mcols ~phase:ins.Instr.phase
                  ~algo:ins.Instr.algo
                  ~tag:ins.Instr.tag)
            members;
          merged := !merged + count
        in
        let emitted = ref 0 in
        while not (Heap.is_empty heap) do
          let s = Heap.pop heap in
          incr emitted;
          if s < n then emit_single s else emit_batch (s - n);
          release ready s
        done;
        if !emitted <> nodes then failwith "Opt.superword: contracted graph not covered";
        let outputs = List.map (fun (nm, r) -> (nm, map.(r))) p.Program.outputs in
        (Program.Builder.finish b ~outputs, map, !merged)
      end
    end
  end

let superword ?min_batch ?max_batch ?kinds p =
  let p', map, _ = superword_pass ?min_batch ?max_batch ?kinds p in
  (p', map)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)

let optimize_traced ?(level = 1) ?cost_model ?probe (p : Program.t) =
  let before = Program.length p in
  let zero =
    {
      before;
      after = before;
      cse_merged = 0;
      fused = 0;
      dce_removed = 0;
      reorder_moved = 0;
      superword_merged = 0;
      cycle_deltas = [];
    }
  in
  if level <= 0 || before = 0 then (p, identity_map before, zero)
  else begin
    let cm = match cost_model with Some c -> c | None -> static_cost_model in
    (* Measured cycles when a probe is injected; the cost-model
       list-schedule estimate otherwise (used only at level >= 3,
       where the fixpoint needs a metric to accept against). *)
    let measurable = Option.is_some probe || level >= 3 in
    let measure =
      match probe with
      | Some f -> f
      | None -> fun q -> (estimate_cycles ~cost_model:cm q, Array.make (Program.length q) 0)
    in
    let prog = ref p in
    let map = ref (identity_map before) in
    let cse_merged = ref 0 and fused = ref 0 in
    let continue_ = ref true in
    let rounds = ref 0 in
    while !continue_ && !rounds < 5 do
      incr rounds;
      let q, m, df = fuse_pass !prog in
      prog := q;
      map := compose !map m;
      fused := !fused + df;
      let q, m, dc = cse_pass !prog in
      prog := q;
      map := compose !map m;
      cse_merged := !cse_merged + dc;
      continue_ := df + dc > 0
    done;
    let q, m, dce_removed = dce_pass !prog in
    prog := q;
    map := compose !map m;
    let reorder_moved = ref 0 in
    let superword_merged = ref 0 in
    let deltas = ref [] in
    (* The measurement of the accepted stream [!prog], taken at most
       once: a winning candidate's measurement becomes the accepted
       one, so no stream is handed to [measure] twice. *)
    let measured = ref None in
    let measure_prog () =
      match !measured with
      | Some m -> m
      | None ->
          let m = measure !prog in
          measured := Some m;
          m
    in
    let accept (q, m) mq =
      prog := q;
      map := compose !map m;
      measured := mq
    in
    let accept_reorder ((_, m) as cand) mq =
      Array.iteri (fun i mi -> if i <> mi then incr reorder_moved) m;
      accept cand mq
    in
    (* A reorder whose map is the identity emits [!prog] again, so it
       measures what [!prog] measures. *)
    let measure_reorder (q, m) =
      let moved = ref false in
      Array.iteri (fun i mi -> if i <> mi then moved := true) m;
      if !moved then measure q else measure_prog ()
    in
    (* Fusion, CSE and DCE that changed nothing leave a stream equal to
       [p]: its first measurement is also [p]'s. *)
    let cleanup_changed = !fused + !cse_merged + dce_removed > 0 in
    let measured_input =
      if measurable && not cleanup_changed then Some (measure_prog ()) else None
    in
    (* Accept-if-better guard: with a measurement available, keep a
       candidate stream only if it does not cost cycles; without one
       (levels 1-2, no probe: the static O1 pipeline), reorder
       unconditionally. *)
    (if not measurable then accept_reorder (reorder !prog) None
     else begin
       let c0, _ = measure_prog () in
       let cand = reorder !prog in
       let ((c1, _) as mq) = measure_reorder cand in
       if c1 <= c0 then begin
         accept_reorder cand (Some mq);
         deltas := ("reorder", c0 - c1) :: !deltas
       end
       else deltas := ("reorder (rejected)", c0 - c1) :: !deltas
     end);
    (* O2: one measured-stall feedback round. *)
    if level >= 2 && measurable && Option.is_some probe then begin
      let c0, stalls = measure_prog () in
      let cand = reorder ~stalls !prog in
      let ((c1, _) as mq) = measure_reorder cand in
      if c1 < c0 then begin
        accept_reorder cand (Some mq);
        deltas := ("reorder+stalls", c0 - c1) :: !deltas
      end
    end;
    (* O3: profile-guided fixpoint — resource-aware global reorder and
       superword batching candidates, each accepted only if measured
       (or modeled) cycles strictly improve, iterated until no
       candidate helps. *)
    if level >= 3 then begin
      let improved = ref true in
      let fixrounds = ref 0 in
      (* Each proposer is a pure function of the accepted stream and its
         cached measurement, so one that failed on this very stream (a
         rejected candidate, or a superword pass that merged nothing)
         fails there again: remember, per proposer, the stream it last
         failed on, and skip it while that stream is still [!prog]. *)
      let failed_on = Array.make 3 None in
      let propose k f =
        match failed_on.(k) with
        | Some q when q == !prog -> ()
        | _ -> if f () then improved := true else failed_on.(k) <- Some !prog
      in
      while !improved && !fixrounds < 6 do
        incr fixrounds;
        improved := false;
        let label name = Printf.sprintf "%s#%d" name !fixrounds in
        propose 0 (fun () ->
            let c0, stalls = measure_prog () in
            let cand = reorder ~stalls ~cost_model:cm !prog in
            let ((c1, _) as mq) = measure_reorder cand in
            if c1 < c0 then begin
              accept_reorder cand (Some mq);
              deltas := (label "reorder+ports", c0 - c1) :: !deltas;
              true
            end
            else false);
        List.iteri
          (fun k (kinds, name) ->
            propose (k + 1) (fun () ->
                let q, m, merged = superword_pass ~kinds !prog in
                if merged = 0 then false
                else begin
                  let c0, _ = measure_prog () in
                  let q, m2, _ = dce_pass q in
                  let ((c1, _) as mq) = measure q in
                  if c1 < c0 then begin
                    accept (q, compose m m2) (Some mq);
                    superword_merged := !superword_merged + merged;
                    deltas := (label name, c0 - c1) :: !deltas;
                    true
                  end
                  else false
                end))
          [ (`Mul, "superword"); (`All, "superword+vec") ]
      done
    end;
    (* Monotonicity net: an optimized stream must never measure worse
       than its input.  (Reachable when fusion, CSE and DCE degrade the
       schedule: measured from O0, MobileRobot's cleanup passes cost 6
       cycles and the whole stream is reverted here.) *)
    if measurable then begin
      let cf, _ = measure_prog () in
      let corig, _ = match measured_input with Some m -> m | None -> measure p in
      if cf > corig then begin
        prog := p;
        map := identity_map before;
        cse_merged := 0;
        fused := 0;
        reorder_moved := 0;
        superword_merged := 0;
        deltas := [ ("reverted (optimized stream measured slower)", 0) ]
      end
    end;
    Program.validate !prog;
    let after = Program.length !prog in
    let cycle_deltas = List.rev !deltas in
    let report =
      {
        before;
        after;
        cse_merged = !cse_merged;
        fused = !fused;
        dce_removed = (if !prog == p then 0 else dce_removed);
        reorder_moved = !reorder_moved;
        superword_merged = !superword_merged;
        cycle_deltas;
      }
    in
    (* The counters add up accepted work only: they mirror [report]. *)
    let bump name n = if n > 0 then Obs.count name ~n in
    bump "isa.opt.cse_merged" report.cse_merged;
    bump "isa.opt.fused" report.fused;
    bump "isa.opt.dce_removed" report.dce_removed;
    bump "isa.opt.reorder_moved" report.reorder_moved;
    bump "isa.opt.superword_merged" report.superword_merged;
    bump "isa.opt.instructions_saved" (before - after);
    bump "isa.opt.cycles_saved" (cycles_saved report);
    (!prog, !map, report)
  end

let optimize ?level ?cost_model ?probe p =
  let p', _, _ = optimize_traced ?level ?cost_model ?probe p in
  p'

let pp_report ppf r =
  Format.fprintf ppf "%d -> %d instructions (cse %d, fused %d, dce %d, reordered %d, superword %d)"
    r.before r.after r.cse_merged r.fused r.dce_removed r.reorder_moved r.superword_merged;
  if r.cycle_deltas <> [] then Format.fprintf ppf ", %+d cycles" (-cycles_saved r)
