(** The TAU instrumentor (paper §4.1, Figure 6).

    Iterates over the PDB descriptions of functions and templates, plans
    which entities to annotate, and rewrites the original source files,
    inserting [TAU_PROFILE] measurement macros at the top of each routine
    body.  For member functions the type argument is [CT( *this )] so that the
    unique template instantiation is incorporated into the timer name at run
    time — exactly the strategy of Figure 6. *)

module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape

(** One planned instrumentation: where to insert, and what. *)
type item_ref = {
  ir_name : string;          (** display name for the TAU_PROFILE label *)
  ir_file : string;
  ir_line : int;             (** line of the opening brace of the body *)
  ir_col : int;              (** column of the opening brace *)
  ir_signature : string;
  ir_use_ct_this : bool;     (** member function: add CT( *this ) *)
  ir_group : string;         (** TAU profile group *)
}

let loc_cmp a b =
  match compare a.ir_file b.ir_file with
  | 0 -> ( match compare a.ir_line b.ir_line with 0 -> compare a.ir_col b.ir_col | c -> c)
  | c -> c

(* body start of a fat item, if instrumentable *)
let body_start (pos : P.extent) =
  if pos.P.bstart = P.null_loc then None else Some pos.P.bstart

(** Plan instrumentation for the routines and templates defined in [file]
    (or everywhere when [file] is [None]).

    This is the Figure 6 algorithm: iterate [getTemplateVec()], keep only
    TE_MEMFUNC / TE_STATMEM / TE_FUNC kinds, and decide per kind whether the
    measured type needs [CT( *this )].  Non-template routines with bodies are
    instrumented as plain functions. *)
let plan ?file (d : D.t) : item_ref list =
  let file_name fid =
    match D.file d fid with Some f -> Some f.P.so_name | None -> None
  in
  let in_target (l : P.loc) =
    match (file, file_name l.P.lfile) with
    | None, Some _ -> true
    | Some want, Some got -> String.equal want got
    | _, None -> false
  in
  let items = ref [] in
  (* templates: the Figure 6 loop *)
  List.iter
    (fun (te : P.template_item) ->
      if in_target te.te_loc then begin                                   (* (1) *)
        let tekind = te.P.te_kind in
        if tekind = "memfunc" || tekind = "statmem" || tekind = "func" then begin
          (* (2): templates need some processing.  The kind tells whether to
             put a CT( *this ) in the type. *)
          match body_start te.P.te_pos with
          | None -> ()
          | Some b ->
              let use_ct =
                (* (3): no parent class for func/statmem; member functions
                   get CT( *this ) *)
                not (tekind = "func" || tekind = "statmem")
              in
              (match file_name b.P.lfile with
               | Some fn ->
                   items :=
                     { ir_name = te.P.te_name; ir_file = fn; ir_line = b.P.lline;
                       ir_col = b.P.lcol; ir_signature = "template";
                       ir_use_ct_this = use_ct; ir_group = "TAU_USER" }
                     :: !items
               | None -> ())
        end
      end)
    (D.templates d);
  (* member functions defined inline inside a class template: they have no
     memfunc template item of their own, but their instantiations' body
     positions all point at the pattern text, so instrumenting that location
     once covers every instantiation (CT( *this ) disambiguates at run
     time) *)
  List.iter
    (fun (r : P.routine_item) ->
      match r.P.ro_templ with
      | Some te_id
        when (match D.template d te_id with
              | Some te -> te.P.te_kind = "class" || te.P.te_kind = "memclass"
              | None -> false)
             && r.P.ro_defined && in_target r.P.ro_loc -> (
          match body_start r.P.ro_pos with
          | None -> ()
          | Some b -> (
              match file_name b.P.lfile with
              | Some fn ->
                  items :=
                    { ir_name = r.P.ro_name; ir_file = fn; ir_line = b.P.lline;
                      ir_col = b.P.lcol; ir_signature = "template";
                      ir_use_ct_this = not r.P.ro_static;
                      ir_group = "TAU_USER" }
                    :: !items
              | None -> ()))
      | _ -> ())
    (D.routines d);
  (* non-template routines defined in the target file *)
  List.iter
    (fun (r : P.routine_item) ->
      if r.P.ro_templ = None && r.P.ro_defined && in_target r.P.ro_loc then
        match body_start r.P.ro_pos with
        | None -> ()
        | Some b -> (
            match file_name b.P.lfile with
            | Some fn ->
                let is_member = match r.P.ro_parent with P.Pcl _ -> true | _ -> false in
                items :=
                  { ir_name = D.routine_full_name d r; ir_file = fn;
                    ir_line = b.P.lline; ir_col = b.P.lcol;
                    ir_signature = D.typeref_name d r.P.ro_sig;
                    ir_use_ct_this = is_member && not r.P.ro_static;
                    ir_group = "TAU_USER" }
                  :: !items
            | None -> ())
      )
    (D.routines d);
  (* multiple instantiations share one pattern body: dedupe by location *)
  let seen = Hashtbl.create 64 in
  let deduped =
    List.filter
      (fun ir ->
        let key = (ir.ir_file, ir.ir_line, ir.ir_col) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      (List.rev !items)
  in
  List.sort loc_cmp deduped   (* sort(itemvec.begin(), itemvec.end(), locCmp) *)

(** Restrict a plan to routines the MHP analysis marks as possibly
    concurrent ([tau_instr --mhp-only]): instrument exactly where thread
    interleavings can happen, nothing else.  The filter matches plan
    entries by body location, so template patterns whose instantiations
    participate in MHP pairs are kept too. *)
let mhp_only (d : D.t) (plan : item_ref list) : item_ref list =
  let m = Pdt_analyzer.Mhp.compute (D.pdb d) in
  let keep = Hashtbl.create 32 in
  List.iter
    (fun id ->
      match D.routine d id with
      | Some r -> (
          match body_start r.P.ro_pos with
          | Some b -> (
              match D.file d b.P.lfile with
              | Some f -> Hashtbl.replace keep (f.P.so_name, b.P.lline, b.P.lcol) ()
              | None -> ())
          | None -> ())
      | None -> ())
    (Pdt_analyzer.Mhp.concurrent_routines m);
  List.filter (fun ir -> Hashtbl.mem keep (ir.ir_file, ir.ir_line, ir.ir_col)) plan

(** The text inserted after a routine's opening brace. *)
let macro_text (ir : item_ref) : string =
  let type_arg =
    if ir.ir_use_ct_this then "CT(*this)"
    else Printf.sprintf "%S" ir.ir_signature
  in
  Printf.sprintf " TAU_PROFILE(%S, %s, %s);" ir.ir_name type_arg ir.ir_group

(** Rewrite one source file, inserting the planned TAU macros.  [source] is
    the original text of [file]. *)
let rewrite ~file ~source (plan : item_ref list) : string =
  let for_file =
    List.filter (fun ir -> String.equal ir.ir_file file) plan
    (* bottom-up so earlier insertions don't shift later positions *)
    |> List.sort (fun a b -> loc_cmp b a)
  in
  let lines = String.split_on_char '\n' source |> Array.of_list in
  List.iter
    (fun ir ->
      let li = ir.ir_line - 1 in
      if li >= 0 && li < Array.length lines then begin
        let line = lines.(li) in
        (* insert right after the opening brace at (or after) ir_col *)
        let brace =
          let from = min (max 0 (ir.ir_col - 1)) (String.length line - 1) in
          let rec find i =
            if i >= String.length line then None
            else if line.[i] = '{' then Some i
            else find (i + 1)
          in
          match find (max from 0) with
          | Some i -> Some i
          | None -> find 0
        in
        match brace with
        | Some i ->
            let before = String.sub line 0 (i + 1) in
            let after = String.sub line (i + 1) (String.length line - i - 1) in
            lines.(li) <- before ^ macro_text ir ^ after
        | None ->
            (* body brace on a later line; look downward *)
            let rec scan li' =
              if li' < Array.length lines then
                match String.index_opt lines.(li') '{' with
                | Some i ->
                    let line' = lines.(li') in
                    let before = String.sub line' 0 (i + 1) in
                    let after = String.sub line' (i + 1) (String.length line' - i - 1) in
                    lines.(li') <- before ^ macro_text ir ^ after
                | None -> scan (li' + 1)
            in
            scan li
      end)
    for_file;
  String.concat "\n" (Array.to_list lines)

(** The declarations instrumented code needs; prepended by
    {!instrument_vfs} as a system header ([tau.h]). *)
let tau_header =
  {|#ifndef TAU_H
#define TAU_H

#define TAU_USER 0
#define TAU_DEFAULT 1

void TAU_PROFILE(const char *name, const char *type, int group);
const char *CT(...);

#endif
|}

(** Instrument all the planned files inside a VFS copy: returns a new VFS
    with rewritten sources (and [tau.h] mounted), ready for recompilation. *)
let instrument_vfs (vfs : Pdt_util.Vfs.t) (plan : item_ref list) :
    Pdt_util.Vfs.t * int =
  let out = Pdt_util.Vfs.copy vfs in
  (* rewrite each distinct file mentioned in the plan *)
  let files = List.sort_uniq compare (List.map (fun ir -> ir.ir_file) plan) in
  let count = ref 0 in
  List.iter
    (fun file ->
      match Pdt_util.Vfs.read_raw vfs file with
      | Some source ->
          let src' = rewrite ~file ~source plan in
          (* make the TAU declarations visible *)
          let src' = "#include <tau.h>\n" ^ src' in
          Pdt_util.Vfs.add_file out file src';
          incr count
      | None -> ())
    files;
  Pdt_util.Vfs.add_file out "/pdt/include/kai/tau.h" tau_header;
  (out, !count)

(* ------------------------------------------------------------------ *)
(* Selective instrumentation                                           *)
(* ------------------------------------------------------------------ *)

(** TAU's selective-instrumentation mechanism: an exclude list (and an
    optional include-only list) of routine names, with [*] wildcards. *)
type selection = {
  sel_exclude : string list;
  sel_include_only : string list option;
}

(* glob match with '*' wildcards *)
let glob_match pattern name =
  let np = String.length pattern and nn = String.length name in
  (* dp.(i) = set of pattern positions reachable after consuming i chars *)
  let rec go pi ni =
    if pi = np then ni = nn
    else if pattern.[pi] = '*' then
      go (pi + 1) ni || (ni < nn && go pi (ni + 1))
    else ni < nn && pattern.[pi] = name.[ni] && go (pi + 1) (ni + 1)
  in
  go 0 0

let selected sel name =
  let excluded = List.exists (fun p -> glob_match p name) sel.sel_exclude in
  let included =
    match sel.sel_include_only with
    | None -> true
    | Some pats -> List.exists (fun p -> glob_match p name) pats
  in
  included && not excluded

(** Parse a TAU-style selective instrumentation file:
    {v
    BEGIN_EXCLUDE_LIST
    matvec
    vector*
    END_EXCLUDE_LIST
    BEGIN_INCLUDE_LIST
    solve
    END_INCLUDE_LIST
    v} *)
let parse_selection (text : string) : selection =
  let lines = List.map String.trim (String.split_on_char '\n' text) in
  let exclude = ref [] and include_ = ref [] and has_include = ref false in
  let mode = ref `None in
  List.iter
    (fun line ->
      match line with
      | "" -> ()
      | "BEGIN_EXCLUDE_LIST" -> mode := `Exclude
      | "END_EXCLUDE_LIST" | "END_INCLUDE_LIST" -> mode := `None
      | "BEGIN_INCLUDE_LIST" ->
          mode := `Include;
          has_include := true
      | l when String.length l > 0 && l.[0] = '#' -> ()
      | l -> (
          match !mode with
          | `Exclude -> exclude := !exclude @ [ l ]
          | `Include -> include_ := !include_ @ [ l ]
          | `None -> ()))
    lines;
  { sel_exclude = !exclude;
    sel_include_only = (if !has_include then Some !include_ else None) }

(** Apply a selection to a plan (TAU applies it before rewriting). *)
let apply_selection (sel : selection) (plan : item_ref list) : item_ref list =
  List.filter (fun ir -> selected sel ir.ir_name) plan
