(* Two parallel flat arrays instead of an array of pairs: pushing,
   popping and peeking allocate nothing (the arrays only grow).  The
   sift rules are the classic ones — an entry moves up only past a
   strictly larger key, and sift-down prefers the left child on a tie
   — because callers' bit-identical contracts rely on the resulting
   pop order among equal keys. *)
type t = { mutable keys : int array; mutable vals : int array; mutable len : int }

let create () = { keys = [||]; vals = [||]; len = 0 }

let is_empty h = h.len = 0

let grow h =
  let cap = max 8 (2 * Array.length h.keys) in
  let keys = Array.make cap 0 and vals = Array.make cap 0 in
  Array.blit h.keys 0 keys 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.vals <- vals

(* Both sifts move a hole instead of swapping, then fill it with the
   entry ([key], [v]) — the same final layout as swapping the entry
   along the same path.  The [int] annotations matter: without them
   the sifts are polymorphic and every comparison calls the generic
   [compare] (about 6x slower per push/pop pair). *)
let rec sift_up (keys : int array) (vals : int array) i (key : int) v =
  let parent = (i - 1) / 2 in
  if i > 0 && key < keys.(parent) then begin
    keys.(i) <- keys.(parent);
    vals.(i) <- vals.(parent);
    sift_up keys vals parent key v
  end
  else begin
    keys.(i) <- key;
    vals.(i) <- v
  end

let rec sift_down (keys : int array) (vals : int array) len i (key : int) v =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let c = if l < len && keys.(l) < key then l else i in
  let c = if r < len && keys.(r) < (if c = i then key else keys.(c)) then r else c in
  if c <> i then begin
    keys.(i) <- keys.(c);
    vals.(i) <- vals.(c);
    sift_down keys vals len c key v
  end
  else begin
    keys.(i) <- key;
    vals.(i) <- v
  end

let push h ~key v =
  if h.len = Array.length h.keys then grow h;
  h.len <- h.len + 1;
  sift_up h.keys h.vals (h.len - 1) key v

let min_key h = if h.len = 0 then max_int else h.keys.(0)

let min_value h =
  if h.len = 0 then invalid_arg "Heap.min_value: empty heap";
  h.vals.(0)

let pop h =
  if h.len = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.vals.(0) in
  let len = h.len - 1 in
  h.len <- len;
  if len > 0 then sift_down h.keys h.vals len 0 h.keys.(len) h.vals.(len);
  top
