(** A binary min-heap of [int] values ordered by [int] keys, on flat
    arrays: no operation allocates except when the heap outgrows its
    capacity.  Used by the cycle-level scheduler and by the
    instruction-stream optimizer.

    Entries with equal keys pop in the order the classic binary-heap
    sift rules leave them in (sift-up stops at an equal parent,
    sift-down prefers the left child on a tie) — a deterministic
    function of the push/pop sequence, which the scheduler's
    bit-identical contract relies on.  Callers that need a total order
    encode their tie-break in the key. *)

type t

val create : unit -> t

val is_empty : t -> bool

val push : t -> key:int -> int -> unit

val min_key : t -> int
(** The smallest key, or [max_int] when the heap is empty. *)

val min_value : t -> int
(** The value of the entry {!pop} would remove.  Raises
    [Invalid_argument] on an empty heap. *)

val pop : t -> int
(** Remove the entry with the smallest key and return its value.
    Raises [Invalid_argument] on an empty heap. *)
