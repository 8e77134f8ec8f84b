(** Content-addressed compile cache: the amortization layer of the
    serving runtime.

    ORIANNA compiles a factor-graph {e template} once and replays the
    instruction stream every tick (Fig. 2); what varies between
    requests is the measurement values, not the graph structure.  The
    cache therefore keys on a {e structural} hash of the template —
    factor types and arities, variable kinds and dimensions, graph
    shape — computed with {!Orianna_util.Checksum.crc32} over a
    canonical description that deliberately excludes numeric values.
    Two requests with different seeds hash identically and share one
    compiled program and one generated accelerator.

    [Program.hash] (CRC-32 over the canonical instruction encoding)
    is the fallback content key for entries inserted from a bare
    compiled program, with no factor-graph template in hand; it is
    also recorded on every entry so batches can be grouped by compiled
    artifact.

    Eviction is LRU over a fixed capacity.  Hit / miss / eviction
    counters are kept locally and mirrored into {!Orianna_obs.Obs}
    ([serve.cache.hit] / [.miss] / [.evict]) when telemetry is on. *)

open Orianna_isa
open Orianna_hw

type entry = {
  program : Program.t;  (** the compiled application stream *)
  dse : Dse.result;  (** the accelerator generated for it *)
  program_hash : int32;  (** {!Program.hash} of [program] *)
}

type t

val create : capacity:int -> t
(** LRU cache holding at most [capacity] entries; capacity must be
    positive. *)

val structural_key : ?opt_level:int -> (string * Orianna_fg.Graph.t) list -> int32
(** Structural hash of an application's graphs (one per algorithm):
    graph names and order, variable names / kinds / dimensions, factor
    names / scopes / error dimensions.  Values (poses, measurements,
    sigmas) are excluded, so all seeds of one template collide — by
    design.  [opt_level] (default 1) is mixed into the key: the
    instruction-stream optimizer changes the compiled artifact (and
    its {!Program.hash}) without changing the template, so entries
    compiled at different levels must not alias.  The level is
    clamped with [Orianna_isa.Opt.clamp_level] (0..3): levels beyond 3
    compile identically to 3 and share its entry. *)

val program_key : Program.t -> int32
(** The fallback content key: {!Program.hash}. *)

val find : t -> int32 -> entry option
(** Lookup without counting a hit or miss (inspection only). *)

val find_or_add : t -> int32 -> (unit -> Program.t * Dse.result) -> bool * entry
(** [find_or_add t key compile] returns [(true, entry)] on a hit
    (bumping the entry's recency) or runs [compile], inserts, evicts
    the least-recently-used entry if over capacity, and returns
    [(false, entry)]. *)

type stats = {
  capacity : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when no lookups happened. *)
