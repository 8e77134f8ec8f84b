type attr = string * string

type span = {
  name : string;
  attrs : attr list;
  start_s : float;
  dur_s : float;
  children : span list;
}

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms.

   [Hist.t] is the mutable accumulator (domain-local inside the
   registry, or standalone — the serving runtime builds one over its
   latency samples); [histogram] below is the immutable public
   snapshot.  Buckets are logarithmic: [sub] per octave over
   [2^min_exp, 2^max_exp), so any quantile read off the bucket counts
   carries a bounded relative error of [2^(1/sub) - 1] (~4.4%).
   Values outside the range clamp into the end buckets; non-positive
   values are counted separately (they still contribute to
   samples/sum/min/max). *)

module Hist = struct
  let sub = 16
  let min_exp = -30 (* ~9.3e-10 *)
  let max_exp = 34 (* ~1.7e10 *)
  let buckets = (max_exp - min_exp) * sub

  type t = {
    mutable samples : int;
    mutable sum : float;
    mutable hmin : float;
    mutable hmax : float;
    mutable last : float;
    mutable last_seq : int;  (* global write sequence; merge keeps the newest *)
    mutable nonpos : int;  (* samples <= 0, kept out of the log buckets *)
    counts : int array;
  }

  let create () =
    {
      samples = 0;
      sum = 0.0;
      hmin = infinity;
      hmax = neg_infinity;
      last = 0.0;
      last_seq = 0;
      nonpos = 0;
      counts = Array.make buckets 0;
    }

  let index v =
    (* v > 0 *)
    let i = int_of_float (Float.floor (Float.log2 v *. float_of_int sub)) - (min_exp * sub) in
    if i < 0 then 0 else if i >= buckets then buckets - 1 else i

  (* Lower bound of bucket [i]; bucket [i] covers [bound i, bound (i+1)). *)
  let bound i = Float.pow 2.0 (float_of_int ((min_exp * sub) + i) /. float_of_int sub)

  let add ?(seq = 0) h v =
    h.samples <- h.samples + 1;
    h.sum <- h.sum +. v;
    if v < h.hmin then h.hmin <- v;
    if v > h.hmax then h.hmax <- v;
    h.last <- v;
    h.last_seq <- seq;
    if v > 0.0 then begin
      let i = index v in
      h.counts.(i) <- h.counts.(i) + 1
    end
    else h.nonpos <- h.nonpos + 1

  let merge_into ~into h =
    into.samples <- into.samples + h.samples;
    into.sum <- into.sum +. h.sum;
    if h.hmin < into.hmin then into.hmin <- h.hmin;
    if h.hmax > into.hmax then into.hmax <- h.hmax;
    if h.last_seq >= into.last_seq then begin
      into.last <- h.last;
      into.last_seq <- h.last_seq
    end;
    into.nonpos <- into.nonpos + h.nonpos;
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts
end

type histogram = {
  samples : int;
  sum : float;
  hmin : float;
  hmax : float;
  last : float;
  nonpos : int;
  counts : int array;
}

let snapshot_hist (h : Hist.t) =
  {
    samples = h.Hist.samples;
    sum = h.Hist.sum;
    hmin = h.Hist.hmin;
    hmax = h.Hist.hmax;
    last = h.Hist.last;
    nonpos = h.Hist.nonpos;
    counts = Array.copy h.Hist.counts;
  }

let mean h = if h.samples = 0 then 0.0 else h.sum /. float_of_int h.samples

(* Value of the [j]-th order statistic (0-based), reconstructed from
   the bucket counts with linear interpolation inside the bucket and
   clamped to the recorded extrema. *)
let value_at_rank h j =
  let clamp v = Float.min h.hmax (Float.max h.hmin v) in
  if j < h.nonpos then clamp h.hmin (* non-positive samples sort first *)
  else begin
    let j = j - h.nonpos in
    let rec walk i cum =
      if i >= Hist.buckets then clamp h.hmax
      else begin
        let c = h.counts.(i) in
        if j < cum + c then begin
          let lo = Hist.bound i and hi = Hist.bound (i + 1) in
          let frac = (float_of_int (j - cum) +. 0.5) /. float_of_int c in
          clamp (lo +. (frac *. (hi -. lo)))
        end
        else walk (i + 1) (cum + c)
      end
    in
    walk 0 0
  end

let quantile h p =
  if h.samples = 0 then 0.0
  else if p <= 0.0 then h.hmin
  else if p >= 100.0 then h.hmax
  else begin
    (* Same rank convention as Stats.percentile: linear interpolation
       between the two order statistics straddling p. *)
    let rank = p /. 100.0 *. float_of_int (h.samples - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (h.samples - 1) in
    let frac = rank -. float_of_int lo in
    let vlo = value_at_rank h lo in
    let vhi = if hi = lo then vlo else value_at_rank h hi in
    vlo +. (frac *. (vhi -. vlo))
  end

(* ------------------------------------------------------------------ *)
(* Registry.

   Multicore design: metric tables are sharded per domain.  Each
   domain that emits a metric owns a shard (counters / gauges /
   histogram accumulators) guarded by its own mutex; the shard mutex
   is only ever contended by a snapshot, so the hot path pays an
   uncontended lock instead of fighting every other domain for one
   global mutex and its cache line.  Snapshots take the registry lock
   (shard list + completed roots), then each shard's lock in turn, and
   merge deterministically:

   - counters sum across shards (order-independent);
   - histograms sum samples/sums/bucket counts, combine extrema, and
     keep the [last] written under the highest global sequence number;
   - gauges keep the value with the highest global sequence number
     (last-writer-wins, as with the old single-table registry).

   Merged snapshots are name-sorted, so at any job count the same work
   yields the same counters and histogram contents.

   A reset bumps [generation] and empties the shard list; live domains
   notice their cached shard is stale on the next write and register a
   fresh one, so no lock is ever required on a pure metric write apart
   from the shard's own.  The open-span stack stays per-domain (DLS);
   a pool slot swaps in its own stack (see [in_slot]), so spans follow
   the work across domains.  [on] is read unguarded — a torn read
   merely drops or admits a sample at the enable/disable boundary. *)

type shard = {
  slock : Mutex.t;
  scounters : (string, int ref) Hashtbl.t;
  sgauges : (string, (float * int) ref) Hashtbl.t;  (* value, write seq *)
  shists : (string, Hist.t) Hashtbl.t;
}

(* An open span being timed: children accumulate in reverse. *)
type frame = {
  fname : string;
  fattrs : attr list;
  fstart : float;
  fgc : Gc.stat option;  (* quick_stat at entry when GC accounting is on *)
  mutable fchildren : span list;
}

type registry = {
  mutable on : bool;
  mutable clock : unit -> float;
  mutable epoch : float;
  mutable roots : span list;  (** completed top-level spans, reversed *)
  mutable shards : shard list;
  mutable generation : int;
}

let default_clock = Unix.gettimeofday

let reg =
  { on = false; clock = default_clock; epoch = 0.0; roots = []; shards = []; generation = 0 }

let lock = Mutex.create ()
let locked f = Mutex.lock lock; Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Global write sequence for last-writer-wins merges (gauges and the
   histogram [last] field).  One fetch-and-add per gauge/observe —
   still far cheaper than a contended mutex. *)
let write_seq = Atomic.make 1

let new_shard () =
  {
    slock = Mutex.create ();
    scounters = Hashtbl.create 32;
    sgauges = Hashtbl.create 16;
    shists = Hashtbl.create 16;
  }

let shard_key : (int * shard) option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let my_shard () =
  let cell = Domain.DLS.get shard_key in
  match !cell with
  | Some (gen, s) when gen = reg.generation -> s
  | _ ->
      let s = new_shard () in
      let gen =
        locked (fun () ->
            reg.shards <- s :: reg.shards;
            reg.generation)
      in
      cell := Some (gen, s);
      s

let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let stack () = Domain.DLS.get stack_key

let enabled () = reg.on

let clear_data () =
  (stack ()) := [];
  locked (fun () ->
      reg.roots <- [];
      reg.shards <- [];
      reg.generation <- reg.generation + 1);
  (Domain.DLS.get shard_key) := None;
  reg.epoch <- reg.clock ()

let enable () =
  reg.on <- true;
  reg.epoch <- reg.clock ()

let disable () = reg.on <- false

let reset () = clear_data ()

let set_clock clock =
  reg.clock <- clock;
  reg.epoch <- clock ()

let now_rel () = reg.clock () -. reg.epoch
let now_s = now_rel

(* The three write paths below sit inside every pool lane's hot loop,
   so they avoid closure and option allocation: straight-line
   lock/find/unlock, with [Not_found] as the miss path (misses only
   ever allocate on a metric's first write).  The table mutations
   cannot raise, so no [Fun.protect] is needed to keep the shard lock
   balanced. *)

let count ?(n = 1) name =
  if reg.on then begin
    let s = my_shard () in
    Mutex.lock s.slock;
    (match Hashtbl.find s.scounters name with
    | r -> r := !r + n
    | exception Not_found -> Hashtbl.add s.scounters name (ref n));
    Mutex.unlock s.slock
  end

let set_gauge name v =
  if reg.on then begin
    let seq = Atomic.fetch_and_add write_seq 1 in
    let s = my_shard () in
    Mutex.lock s.slock;
    (match Hashtbl.find s.sgauges name with
    | r -> r := (v, seq)
    | exception Not_found -> Hashtbl.add s.sgauges name (ref (v, seq)));
    Mutex.unlock s.slock
  end

let observe name v =
  if reg.on then begin
    let seq = Atomic.fetch_and_add write_seq 1 in
    let s = my_shard () in
    Mutex.lock s.slock;
    let h =
      match Hashtbl.find s.shists name with
      | h -> h
      | exception Not_found ->
          let h = Hist.create () in
          Hashtbl.add s.shists name h;
          h
    in
    Hist.add ~seq h v;
    Mutex.unlock s.slock
  end

(* ---------------- spans ---------------- *)

let gc_attrs (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  [
    ("gc.minor_words", Printf.sprintf "%.0f" (g1.Gc.minor_words -. g0.Gc.minor_words));
    ("gc.promoted_words", Printf.sprintf "%.0f" (g1.Gc.promoted_words -. g0.Gc.promoted_words));
    ( "gc.minor_collections",
      string_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
    ( "gc.major_collections",
      string_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
  ]

let finish_frame f =
  let dur = now_rel () -. f.fstart in
  let attrs = match f.fgc with None -> f.fattrs | Some g0 -> f.fattrs @ gc_attrs g0 in
  let span =
    { name = f.fname; attrs; start_s = f.fstart; dur_s = dur; children = List.rev f.fchildren }
  in
  match !(stack ()) with
  | parent :: _ -> parent.fchildren <- span :: parent.fchildren
  | [] -> locked (fun () -> reg.roots <- span :: reg.roots)

let with_span ?(attrs = []) ?(gc = false) name f =
  if not reg.on then f ()
  else begin
    let stack = stack () in
    let frame =
      {
        fname = name;
        fattrs = attrs;
        fstart = now_rel ();
        fgc = (if gc then Some (Gc.quick_stat ()) else None);
        fchildren = [];
      }
    in
    stack := frame :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with
        | top :: rest when top == frame -> stack := rest
        | frames ->
            (* Mismatched nesting can only come from a [with_span] body
               capturing and resuming continuations — drop down to the
               matching frame rather than corrupt the tree. *)
            let rec unwind = function
              | top :: rest when top == frame -> rest
              | _ :: rest -> unwind rest
              | [] -> []
            in
            stack := unwind frames);
        finish_frame frame)
      f
  end

(* ---------------- pool slots ---------------- *)

(* A slot runs with a fresh frame as its only open span, on whichever
   domain claims it, so the spans it closes at its top level collect
   there instead of becoming roots of that domain; the caller moves
   them under its own innermost open span after the join. *)
type slot = frame

let slot () = { fname = ""; fattrs = []; fstart = 0.0; fgc = None; fchildren = [] }

let in_slot slot f =
  let stack = stack () in
  let saved = !stack in
  stack := [ slot ];
  Fun.protect ~finally:(fun () -> stack := saved) f

let attach_slots slots =
  (* Children are kept newest first: prepending each slot's (reversed)
     spans in slot order leaves them in slot order. *)
  let spans = Array.fold_left (fun acc s -> s.fchildren @ acc) [] slots in
  match !(stack ()) with
  | parent :: _ -> parent.fchildren <- spans @ parent.fchildren
  | [] -> locked (fun () -> reg.roots <- spans @ reg.roots)

(* ---------------- snapshots ---------------- *)

let shards_snapshot () = locked (fun () -> reg.shards)

let fold_shards f init =
  List.fold_left
    (fun acc s ->
      Mutex.lock s.slock;
      Fun.protect ~finally:(fun () -> Mutex.unlock s.slock) (fun () -> f acc s))
    init (shards_snapshot ())

let sorted_bindings l = List.sort (fun (a, _) (b, _) -> compare a b) l

let counters () =
  let tbl = Hashtbl.create 32 in
  fold_shards
    (fun () s ->
      Hashtbl.iter
        (fun k r ->
          match Hashtbl.find_opt tbl k with
          | Some acc -> acc := !acc + !r
          | None -> Hashtbl.add tbl k (ref !r))
        s.scounters)
    ();
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [] |> sorted_bindings

let counter name =
  fold_shards
    (fun acc s -> acc + Option.fold ~none:0 ~some:( ! ) (Hashtbl.find_opt s.scounters name))
    0

let gauges () =
  let tbl = Hashtbl.create 16 in
  fold_shards
    (fun () s ->
      Hashtbl.iter
        (fun k r ->
          let v, seq = !r in
          match Hashtbl.find_opt tbl k with
          | Some acc when snd !acc >= seq -> ()
          | Some acc -> acc := (v, seq)
          | None -> Hashtbl.add tbl k (ref (v, seq)))
        s.sgauges)
    ();
  Hashtbl.fold (fun k r acc -> (k, fst !r) :: acc) tbl [] |> sorted_bindings

let histograms () =
  let tbl : (string, Hist.t) Hashtbl.t = Hashtbl.create 16 in
  fold_shards
    (fun () s ->
      Hashtbl.iter
        (fun k h ->
          match Hashtbl.find_opt tbl k with
          | Some into -> Hist.merge_into ~into h
          | None ->
              let into = Hist.create () in
              Hist.merge_into ~into h;
              Hashtbl.add tbl k into)
        s.shists)
    ();
  Hashtbl.fold (fun k h acc -> (k, snapshot_hist h) :: acc) tbl [] |> sorted_bindings

let spans () = locked (fun () -> List.rev reg.roots)

let span_self_s s =
  Float.max 0.0 (s.dur_s -. List.fold_left (fun acc c -> acc +. c.dur_s) 0.0 s.children)

let rec fold_spans f acc spans =
  List.fold_left (fun acc s -> fold_spans f (f acc s) s.children) acc spans

let pp_spans ppf spans =
  let rec pp depth s =
    Format.fprintf ppf "%s%-*s %10.3f ms%s@," (String.make (2 * depth) ' ')
      (32 - (2 * depth)) s.name (1e3 *. s.dur_s)
      (match s.attrs with
      | [] -> ""
      | attrs ->
          "  [" ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs) ^ "]");
    List.iter (pp (depth + 1)) s.children
  in
  Format.fprintf ppf "@[<v>";
  List.iter (pp 0) spans;
  Format.fprintf ppf "@]"
