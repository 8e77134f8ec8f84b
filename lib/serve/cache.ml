open Orianna_util
open Orianna_isa
open Orianna_hw
module Graph = Orianna_fg.Graph
module Var = Orianna_fg.Var
module Factor = Orianna_fg.Factor
module Obs = Orianna_obs.Obs

type entry = { program : Program.t; dse : Dse.result; program_hash : int32 }

type slot = { entry : entry; mutable last_used : int }

type t = {
  capacity : int;
  slots : (int32, slot) Hashtbl.t;
  mutable tick : int;  (** logical LRU clock *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  { capacity; slots = Hashtbl.create (2 * capacity); tick = 0; hits = 0; misses = 0; evictions = 0 }

let structural_key ?(opt_level = 1) graphs =
  let buf = Buffer.create 4096 in
  let var_kind g name =
    match Graph.value g name with
    | Var.Pose2 _ -> "p2"
    | Var.Pose3 _ -> "p3"
    | Var.Se3 _ -> "se3"
    | Var.Vector v -> "v" ^ string_of_int (Orianna_linalg.Vec.dim v)
  in
  List.iter
    (fun (gname, g) ->
      Buffer.add_string buf "G|";
      Buffer.add_string buf gname;
      Buffer.add_char buf '\n';
      List.iter
        (fun v ->
          Buffer.add_string buf "V|";
          Buffer.add_string buf v;
          Buffer.add_char buf '|';
          Buffer.add_string buf (var_kind g v);
          Buffer.add_char buf '\n')
        (Graph.variables g);
      List.iter
        (fun f ->
          Buffer.add_string buf "F|";
          Buffer.add_string buf (Factor.name f);
          Buffer.add_char buf '|';
          Buffer.add_string buf (String.concat "," (Factor.vars f));
          Buffer.add_char buf '|';
          Buffer.add_string buf (string_of_int (Factor.error_dim f));
          Buffer.add_char buf '\n')
        (Graph.factors g))
    graphs;
  (* The optimizer changes the compiled artifact (and its
     [Program.hash]) without changing the template, so the cache key
     is the pair (structural key, level): entries compiled at
     different levels must not alias, and levels that clamp alike
     produce the same artifact and share one entry. *)
  Buffer.add_string buf "O|";
  Buffer.add_string buf (string_of_int (Opt.clamp_level opt_level));
  Buffer.add_char buf '\n';
  Int32.of_int (Checksum.crc32 (Buffer.contents buf) land 0xFFFFFFFF)

let program_key = Program.hash

let touch t slot =
  t.tick <- t.tick + 1;
  slot.last_used <- t.tick

let find t key =
  match Hashtbl.find_opt t.slots key with
  | Some slot ->
      touch t slot;
      Some slot.entry
  | None -> None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, best) when best.last_used <= slot.last_used -> acc
        | _ -> Some (key, slot))
      t.slots None
  in
  Option.iter
    (fun (key, _) ->
      Hashtbl.remove t.slots key;
      t.evictions <- t.evictions + 1;
      Obs.count "serve.cache.evict")
    victim

let find_or_add t key compile =
  match Hashtbl.find_opt t.slots key with
  | Some slot ->
      touch t slot;
      t.hits <- t.hits + 1;
      Obs.count "serve.cache.hit";
      (true, slot.entry)
  | None ->
      t.misses <- t.misses + 1;
      Obs.count "serve.cache.miss";
      let program, dse = compile () in
      let entry = { program; dse; program_hash = Program.hash program } in
      if Hashtbl.length t.slots >= t.capacity then evict_lru t;
      let slot = { entry; last_used = 0 } in
      touch t slot;
      Hashtbl.replace t.slots key slot;
      (false, entry)

type stats = { capacity : int; entries : int; hits : int; misses : int; evictions : int }

let stats (t : t) =
  {
    capacity = t.capacity;
    entries = Hashtbl.length t.slots;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
  }

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
