(** A global string-interning pool.

    PDB traffic is dominated by a small vocabulary repeated enormously
    often: item names ([Stack<int>], [method3]), enumerated attribute
    values ([pub], [class], [virt], [C++]), type spellings.  Every parsed
    PDB of a project re-materializes the same strings; interning them makes
    repeats physically shared across all the PDBs a process holds, which
    both shrinks the heap and turns many string equalities into pointer
    equalities downstream.

    The pool is shared by {!Pdt_pdb.Pdb_parse} (every name and enumerated
    attribute it reads in the writer's spelling) and available to writers
    and mergers for their own literals.  The table is hand-rolled
    (power-of-two bucket array, FNV-1a hash) rather than a [Hashtbl] so
    {!intern_sub} can look a substring up directly in its source buffer:
    on a hit — the overwhelmingly common case for a parser streaming a
    fixed vocabulary — no substring is ever allocated.

    Concurrency: lookups are optimistic and lock-free; only insertions
    take the mutex.  This is sound under the OCaml 5 memory model because
    the structure is add-only and every reachable value is immutable: a
    racing reader sees the bucket list either with or without a
    concurrent insertion, and in the miss case it falls through to the
    locked path, which re-checks before inserting.
    Hit/miss counters are atomics, so the stats stay coherent without
    putting a lock on the hit path.

    Strings longer than {!max_len} (template bodies, macro texts) are not
    worth pooling and pass through untouched. *)

let max_len = 128

type stats = {
  entries : int;  (** distinct strings resident in the pool *)
  hits : int;     (** intern calls answered by an existing entry *)
  misses : int;   (** intern calls that inserted a new entry *)
}

let initial_buckets = 4096  (* power of two *)

let buckets : string list array ref = ref (Array.make initial_buckets [])
let entry_count = ref 0
let mutex = Mutex.create ()
let hit_count = Atomic.make 0
let miss_count = Atomic.make 0

(* FNV-1a over src[pos, pos+len), masked to a non-negative OCaml int *)
let hash_sub (src : string) pos len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get src i)) * 0x01000193
  done;
  !h land max_int

let rec eq_from (src : string) pos len (canonical : string) i =
  i >= len
  || (String.unsafe_get canonical i = String.unsafe_get src (pos + i)
      && eq_from src pos len canonical (i + 1))

let eq_sub (src : string) pos len (canonical : string) =
  String.length canonical = len && eq_from src pos len canonical 0

(* [find_sub]'s answer when the bucket has no such string: a fresh string,
   never inserted, so no pooled string is physically equal to it *)
let missing = String.make 1 '\000'

(* the pooled copy of src[pos, pos+len) in [bucket], or [missing]; a hit
   allocates nothing *)
let rec find_sub bucket src pos len =
  match bucket with
  | [] -> missing
  | c :: tl -> if eq_sub src pos len c then c else find_sub tl src pos len

(* double the bucket array once load factor exceeds 2; rehashes into a
   fresh array and publishes it with a single assignment (readers see
   either the old or the new array, both complete). Caller holds the
   mutex. *)
let maybe_grow () =
  let b = !buckets in
  let n = Array.length b in
  if !entry_count > 2 * n then begin
    let nb = Array.make (2 * n) [] in
    Array.iter
      (List.iter (fun s ->
           let i = hash_sub s 0 (String.length s) land (Array.length nb - 1) in
           nb.(i) <- s :: nb.(i)))
      b;
    buckets := nb
  end

(* locked slow path: re-check (a racing domain may have inserted the same
   string since the optimistic miss), then insert *)
let insert_sub (src : string) pos len h : string =
  Mutex.lock mutex;
  let b = !buckets in
  let i = h land (Array.length b - 1) in
  let r =
    let canonical = find_sub b.(i) src pos len in
    if canonical != missing then begin
      Atomic.incr hit_count;
      canonical
    end
    else begin
      Atomic.incr miss_count;
      let s = String.sub src pos len in
      b.(i) <- s :: b.(i);
      incr entry_count;
      maybe_grow ();
      s
    end
  in
  Mutex.unlock mutex;
  r

(** The canonical copy of [src[pos, pos+len)]: physically equal across all
    intern calls with an equal argument.  Allocates only on the first
    sighting of a string; a hit returns the resident copy without taking a
    lock or materializing the substring.  Over-long slices are returned as
    plain substrings and not counted. *)
let intern_sub (src : string) pos len : string =
  if len > max_len then String.sub src pos len
  else begin
    let h = hash_sub src pos len in
    let b = !buckets in
    let canonical = find_sub b.(h land (Array.length b - 1)) src pos len in
    if canonical != missing then begin
      Atomic.incr hit_count;
      canonical
    end
    else insert_sub src pos len h
  end

(** [intern s] = [intern_sub s 0 (String.length s)]. *)
let intern (s : string) : string = intern_sub s 0 (String.length s)

let stats () : stats =
  Mutex.lock mutex;
  let s =
    { entries = !entry_count;
      hits = Atomic.get hit_count;
      misses = Atomic.get miss_count }
  in
  Mutex.unlock mutex;
  s

(** Hits over total lookups; 0.0 before any lookup. *)
let hit_rate () : float =
  let s = stats () in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
