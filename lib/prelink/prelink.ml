(** Simulation of EDG's {e automatic} template instantiation scheme
    (paper §2).

    Under the automatic scheme, compiling each source file produces an object
    file plus a template-information file of {e potential} instantiations.
    At link time the prelinker finds references to undefined template
    entities, assigns each instantiation to some translation unit's
    instantiation-request file, and re-compiles those files; newly
    instantiated code can itself require further instantiations, so the
    assign/recompile cycle repeats until closure.  Crucially, §2 notes that
    "this process does not record and instantiate templates in the IL, where
    information is accessible by an analysis tool" — which is why PDT uses
    the "used" mode instead.

    This module replays that fixed point over the instantiation dependency
    graph of a fully-analyzed (used-mode) IL program: round 0 contains the
    instantiations referenced directly from non-template code; each
    subsequent round contains the instantiations newly referenced by the
    previous round's code.  The number of rounds is the number of prelinker
    passes; the per-round request counts and recompile totals quantify the
    §2 comparison (bench B1). *)

open Pdt_il

(** One instantiated entity (node of the dependency graph). *)
type node = Nclass of Il.class_id | Nroutine of Il.routine_id

type report = {
  rounds : int;                   (** prelinker assign/recompile passes *)
  recompiles : int;               (** total recompilations performed *)
  requests_per_round : int list;  (** newly assigned instantiations, per round *)
  total_instantiations : int;
  used_mode_il_entities : int;
      (** instantiated entities visible in the IL under "used" mode *)
  automatic_mode_il_entities : int;
      (** instantiated entities visible in the IL under the automatic scheme:
          none (they live in object files only) *)
  max_dependency_depth : int;
}

let is_instantiated_class (c : Il.class_entity) =
  c.cl_template <> None || c.cl_spec_of <> None

let is_instantiated_routine (p : Il.program) (r : Il.routine_entity) =
  r.ro_template <> None
  ||
  match r.ro_parent with
  | Pclass cl -> is_instantiated_class (Il.class_ p cl)
  | _ -> false

(* the instantiation node owning a routine, if any *)
let owner_node (p : Il.program) (r : Il.routine_entity) : node option =
  match r.ro_parent with
  | Pclass cl when is_instantiated_class (Il.class_ p cl) -> Some (Nclass cl)
  | _ -> if r.ro_template <> None then Some (Nroutine r.ro_id) else None

(* instantiations referenced from a routine's call edges *)
let refs_of_routine (p : Il.program) (r : Il.routine_entity) : node list =
  List.filter_map
    (fun (cs : Il.call_site) ->
      let callee = Il.routine p cs.cs_callee in
      owner_node p callee)
    (Il.calls r)

(* instantiations referenced by a class's data members (member of type
   vector<int> requires vector<int>) *)
let refs_of_class (p : Il.program) (c : Il.class_entity) : node list =
  List.filter_map
    (fun (m : Il.data_member) ->
      match Il.class_of_type p m.dm_type with
      | Some cl when is_instantiated_class (Il.class_ p cl) -> Some (Nclass cl)
      | _ -> None)
    c.cl_members

(* everything a node's code requires *)
let deps (p : Il.program) (n : node) : node list =
  let of_routines rs = List.concat_map (refs_of_routine p) rs in
  match n with
  | Nclass cl ->
      let c = Il.class_ p cl in
      refs_of_class p c
      @ of_routines (List.map (Il.routine p) c.cl_funcs)
  | Nroutine ro -> refs_of_routine p (Il.routine p ro)

let node_equal a b =
  match (a, b) with
  | Nclass x, Nclass y -> x = y
  | Nroutine x, Nroutine y -> x = y
  | _ -> false

(** Run the prelinker fixed point over [prog] (which must have been analyzed
    in used mode, so the full dependency graph is present).
    [translation_units] is the number of TUs the program is notionally split
    into (each round recompiles every TU that received a request; with one
    TU each round is one recompile). *)
let simulate ?(translation_units = 1) (prog : Il.program) : report =
  (* round 0 seeds: instantiations referenced from non-instantiated code *)
  let seeds =
    List.concat_map
      (fun (r : Il.routine_entity) ->
        if is_instantiated_routine prog r then [] else refs_of_routine prog r)
      (Il.routines prog)
  in
  let dedup nodes =
    List.fold_left
      (fun acc n -> if List.exists (node_equal n) acc then acc else n :: acc)
      [] nodes
    |> List.rev
  in
  let seeds = dedup seeds in
  let done_ = ref [] in
  let rounds = ref 0 in
  let recompiles = ref 0 in
  let per_round = ref [] in
  let frontier = ref seeds in
  while !frontier <> [] do
    incr rounds;
    per_round := List.length !frontier :: !per_round;
    (* each round recompiles the TUs that received requests *)
    recompiles := !recompiles + min translation_units (List.length !frontier);
    done_ := !done_ @ !frontier;
    let next =
      dedup (List.concat_map (deps prog) !frontier)
      |> List.filter (fun n -> not (List.exists (node_equal n) !done_))
    in
    frontier := next
  done;
  let used_entities =
    List.length (List.filter is_instantiated_class (Il.classes prog))
    + List.length (List.filter (fun r -> r.Il.ro_template <> None) (Il.routines prog))
  in
  (* dependency depth: longest chain among the rounds *)
  {
    rounds = !rounds;
    recompiles = !recompiles;
    requests_per_round = List.rev !per_round;
    total_instantiations = List.length !done_;
    used_mode_il_entities = used_entities;
    automatic_mode_il_entities = 0;
    max_dependency_depth = !rounds;
  }

let report_to_string (r : report) : string =
  Printf.sprintf
    "prelink simulation: %d round(s), %d recompile(s), %d instantiation(s) \
     [per round: %s]\n\
     IL entities visible to analysis tools: used mode = %d, automatic mode = %d"
    r.rounds r.recompiles r.total_instantiations
    (String.concat ", " (List.map string_of_int r.requests_per_round))
    r.used_mode_il_entities r.automatic_mode_il_entities
