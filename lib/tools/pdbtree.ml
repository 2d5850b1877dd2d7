(** pdbtree: displays file inclusion, class hierarchy, and call graph trees
    (Table 2).  [print_func_tree] is a faithful port of the DUCTAPE routine
    shown in Figure 5 of the paper: it walks [callees] recursively, marks the
    current path ACTIVE to cut cycles (printing ["..."] at back edges), and
    tags virtual call sites with [(VIRTUAL)]. *)

module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape

(** Degraded-compilation marker (PR 4's [incomplete] header attribute):
    [Some note] when the PDB was written after recovered front-end errors,
    so tree output can carry the caveat instead of silently presenting a
    partial program as whole. *)
let incomplete_note (d : D.t) : string option =
  if (D.pdb d).P.incomplete then
    Some
      (Printf.sprintf
         "WARNING: incomplete PDB (%d diagnostic%s recorded during \
          compilation); trees may be partial"
         (D.pdb d).P.diag_count
         (if (D.pdb d).P.diag_count = 1 then "" else "s"))
  else None

type flag = Active | Inactive

(* Figure 5, transliterated.  The C++ version stores the flag on the
   pdbRoutine object; we keep a side table. *)
let rec print_func_tree buf (d : D.t) (flags : (int, flag) Hashtbl.t)
    (r : P.routine_item) (level : int) : unit =
  Hashtbl.replace flags r.P.ro_id Active;
  let c = D.callees d r in                                             (* (1) *)
  List.iter
    (fun ((call : P.call), (rr : P.routine_item)) ->
      if level <> 0 || D.callees d rr <> [] then begin
        Buffer.add_string buf (String.make (max 0 ((level - 1) * 5)) ' ');
        if level <> 0 then Buffer.add_string buf "`--> ";
        Buffer.add_string buf (D.routine_full_name d rr);              (* (2) *)
        if call.P.c_virt then Buffer.add_string buf " (VIRTUAL)";
        (* semantic attribute (PDB >= 1.1): call edges mirrored by a spawn
           site run on their own thread *)
        if
          List.exists
            (fun (s : P.spawn) ->
              s.P.sp_callee = rr.P.ro_id
              && s.P.sp_loc.P.lfile = call.P.c_loc.P.lfile
              && s.P.sp_loc.P.lline = call.P.c_loc.P.lline)
            r.P.ro_spawns
        then Buffer.add_string buf " (SPAWN)";
        if Hashtbl.find_opt flags rr.P.ro_id = Some Active then
          Buffer.add_string buf " ...\n"
        else begin
          Buffer.add_char buf '\n';
          print_func_tree buf d flags rr (level + 1)                   (* (3) *)
        end
      end)
    c;
  Hashtbl.replace flags r.P.ro_id Inactive

(** The call graph tree as a string, rooted at [root] (default "main"). *)
let call_graph ?root (d : D.t) : string =
  let buf = Buffer.create 1024 in
  let flags = Hashtbl.create 64 in
  let roots =
    match root with
    | Some r -> [ r ]
    | None -> (
        match List.find_opt (fun (r : P.routine_item) -> r.P.ro_name = "main") (D.routines d) with
        | Some m -> [ m ]
        | None ->
            (* no main: print every routine that is not called by another *)
            List.filter (fun r -> D.callers d r = [] && r.P.ro_calls <> []) (D.routines d))
  in
  List.iter
    (fun r ->
      Buffer.add_string buf (D.routine_full_name d r);
      Buffer.add_char buf '\n';
      print_func_tree buf d flags r 1)
    roots;
  Buffer.contents buf

(** The source-file inclusion forest as a string: one tree per file no
    other file includes. *)
let include_tree (d : D.t) : string =
  let buf = Buffer.create 256 in
  let rec go level (t : P.source_file D.tree) =
    Buffer.add_string buf (String.make (max 0 ((level - 1) * 5)) ' ');
    if level <> 0 then Buffer.add_string buf "`--> ";
    Buffer.add_string buf t.D.node.P.so_name;
    Buffer.add_char buf '\n';
    List.iter (go (level + 1)) t.D.children
  in
  List.iter (go 0) (D.include_tree d);
  Buffer.contents buf

(** The class hierarchy forest as a string. *)
let class_hierarchy (d : D.t) : string =
  let buf = Buffer.create 256 in
  let rec go level (t : P.class_item D.tree) =
    Buffer.add_string buf (String.make (max 0 ((level - 1) * 5)) ' ');
    if level <> 0 then Buffer.add_string buf "`--> ";
    Buffer.add_string buf (D.class_full_name d t.D.node);
    Buffer.add_char buf '\n';
    List.iter (go (level + 1)) t.D.children
  in
  List.iter (go 0) (D.class_hierarchy d);
  Buffer.contents buf

(** One entry point over the three tree views, so callers that receive
    the tree kind as data (the pdbtree CLI's [-t], the pdbd [tree] verb)
    share the dispatch instead of each re-matching strings. *)
let tree ~(which : [ `Include | `Class | `Call ]) ?root (d : D.t) : string =
  match which with
  | `Include -> include_tree d
  | `Call -> call_graph ?root d
  | `Class -> class_hierarchy d
