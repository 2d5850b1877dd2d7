(** Source locations and ranges.

    Every entity PDT reports carries a source position; the PDB format prints
    them as [file line column] triples (see Figure 3 of the paper).  A
    {!t} names a point in a source file; a {!range} covers a header/body
    extent as used by the [rpos]/[cpos]/[tpos] PDB attributes. *)

type t = {
  file : string;  (** path as seen by the preprocessor *)
  line : int;     (** 1-based *)
  col : int;      (** 1-based *)
}

let make ~file ~line ~col = { file; line; col }

let dummy = { file = "<builtin>"; line = 0; col = 0 }

let is_dummy l = l.line = 0

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (match Int.compare a.line b.line with 0 -> Int.compare a.col b.col | c -> c)
  | c -> c

let equal a b = compare a b = 0

let pp ppf l = Fmt.pf ppf "%s:%d:%d" l.file l.line l.col

let to_string l = Fmt.str "%a" pp l

(** A contiguous source extent, [start] inclusive to [stop] inclusive. *)
type range = { start : t; stop : t }

let range start stop = { start; stop }

(** Extent of a "fat" item: separate header and body ranges, as stored by the
    PDB [rpos]/[cpos]/[tpos] attributes.  Either part may be missing (e.g. a
    declaration without a body). *)
type extent = { header : range option; body : range option }

let extent ?header ?body () = { header; body }

let no_extent = { header = None; body = None }
