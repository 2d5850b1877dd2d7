(** Stable digest of a program database.

    Two PDBs have the same digest iff their canonical serializations are
    byte-identical.  [Pdb_write.to_string] already emits items in a fixed
    order (the in-memory list order, which the merge and the analyzer keep
    deterministic), so hashing the serialization gives a digest that is
    stable across processes — the build cache and the order-independence
    tests both key on it. *)

let of_string (s : string) : string = Digest.to_hex (Digest.string s)

let of_pdb (pdb : Pdb.t) : string = of_string (Pdb_write.to_string pdb)
