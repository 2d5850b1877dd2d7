(** Deterministic generator of template-heavy C++ programs.

    Benchmarks need workloads of controllable size and shape: number of
    class templates, instantiation-chain depth (which drives the prelinker
    round count), member-function counts, and the number of translation
    units sharing instantiations (which drives pdbmerge's duplicate
    elimination).  Everything is seeded — same inputs, same program. *)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int (seed * 2654435761 + 12345) }

let next r =
  (* xorshift64* *)
  let x = r.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  r.state <- x;
  Int64.to_int (Int64.logand x 0x3FFFFFFFL)

let pick r lst = List.nth lst (next r mod List.length lst)

type config = {
  seed : int;
  n_class_templates : int;   (** number of distinct class templates *)
  chain_depth : int;         (** each template's method uses the next one *)
  methods_per_class : int;
  n_function_templates : int;
  n_plain_classes : int;
  n_instantiation_types : int;  (** distinct type args used in main *)
}

let default_config =
  { seed = 42; n_class_templates = 8; chain_depth = 3; methods_per_class = 4;
    n_function_templates = 4; n_plain_classes = 4; n_instantiation_types = 3 }

let scalar_types = [ "int"; "double"; "char"; "long"; "bool" ]

(** The shared header defining all the templates. *)
let header (cfg : config) : string =
  let b = Buffer.create 8192 in
  let pr fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let r = rng cfg.seed in
  pr "#ifndef GENERATED_H";
  pr "#define GENERATED_H";
  pr "";
  (* plain classes first *)
  for i = 0 to cfg.n_plain_classes - 1 do
    pr "class Plain%d {" i;
    pr "public:";
    pr "    Plain%d( ) : v_( %d ) { }" i (next r mod 100);
    pr "    int value( ) const { return v_; }";
    pr "    void bump( ) { v_ = v_ + 1; }";
    pr "private:";
    pr "    int v_;";
    pr "};";
    pr ""
  done;
  (* class templates; template k's work() uses template k+1 (chain) *)
  for k = cfg.n_class_templates - 1 downto 0 do
    pr "template <class T>";
    pr "class Node%d {" k;
    pr "public:";
    pr "    Node%d( ) : v_( T( ) ), count_( 0 ) { }" k;
    pr "    explicit Node%d( const T & v ) : v_( v ), count_( 0 ) { }" k;
    pr "    const T & get( ) const { return v_; }";
    pr "    void set( const T & v ) { v_ = v; count_ = count_ + 1; }";
    for m = 0 to cfg.methods_per_class - 1 do
      pr "    int method%d( int x ) {" m;
      pr "        int acc = x + %d;" (next r mod 10);
      if k + 1 < cfg.n_class_templates && m < cfg.chain_depth then begin
        pr "        Node%d<T> inner;" (k + 1);
        pr "        inner.set( v_ );";
        pr "        acc = acc + inner.method%d( x / 2 );" (m mod cfg.methods_per_class)
      end;
      pr "        count_ = count_ + 1;";
      pr "        return acc + count_;";
      pr "    }"
    done;
    pr "private:";
    pr "    T v_;";
    pr "    int count_;";
    pr "};";
    pr ""
  done;
  (* function templates *)
  for fi = 0 to cfg.n_function_templates - 1 do
    pr "template <class T>";
    pr "T combine%d( const T & a, const T & b ) {" fi;
    (match fi mod 3 with
     | 0 -> pr "    return a + b;"
     | 1 -> pr "    if( a < b ) return b; return a;"
     | _ -> pr "    T t = a; return t;");
    pr "}";
    pr ""
  done;
  pr "#endif";
  Buffer.contents b

(** A translation unit exercising a deterministic subset of the templates.
    Different [tu_index] values instantiate overlapping sets, so merging
    their PDBs eliminates duplicates. *)
let translation_unit ?(with_include = true) (cfg : config) ~tu_index : string =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let r = rng (cfg.seed + tu_index) in
  if with_include then begin
    pr "#include \"generated.h\"";
    pr ""
  end;
  let types =
    List.filteri (fun i _ -> i < cfg.n_instantiation_types) scalar_types
  in
  pr "int tu%d_driver( ) {" tu_index;
  pr "    int total = 0;";
  List.iteri
    (fun ti ty ->
      let k = (tu_index + ti) mod cfg.n_class_templates in
      pr "    {";
      pr "        Node%d<%s> node;" k ty;
      (match ty with
       | "double" -> pr "        node.set( 1.5 );"
       | "char" -> pr "        node.set( 'a' );"
       | "bool" -> pr "        node.set( true );"
       | _ -> pr "        node.set( %d );" (next r mod 50));
      pr "        total = total + node.method%d( %d );"
        (next r mod cfg.methods_per_class) (next r mod 20);
      pr "    }")
    types;
  (* function template uses *)
  for fi = 0 to cfg.n_function_templates - 1 do
    if (fi + tu_index) mod 2 = 0 then
      pr "    total = total + combine%d( %d, %d );" fi (next r mod 10) (next r mod 10)
  done;
  (* plain class use *)
  if cfg.n_plain_classes > 0 then begin
    pr "    Plain%d p;" (tu_index mod cfg.n_plain_classes);
    pr "    p.bump( );";
    pr "    total = total + p.value( );"
  end;
  pr "    return total;";
  pr "}";
  Buffer.contents b

(** A main file calling every TU driver. *)
let main_unit ~n_tus : string =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  pr "#include \"generated.h\"";
  for i = 0 to n_tus - 1 do
    pr "int tu%d_driver( );" i
  done;
  pr "";
  pr "int main( ) {";
  pr "    int total = 0;";
  for i = 0 to n_tus - 1 do
    pr "    total = total + tu%d_driver( );" i
  done;
  pr "    return total %% 256;";
  pr "}";
  Buffer.contents b

(** A single-TU program (header + driver + main in one file), for
    parse/analysis throughput benches. *)
let single_file_program ?(cfg = default_config) () : string =
  header cfg ^ "\n" ^ translation_unit ~with_include:false cfg ~tu_index:0
  ^ "\nint main( ) { return tu0_driver( ) % 256; }\n"

(** A TU with a deliberate semantic error (an unknown type), for testing
    that a project build isolates per-unit failures. *)
let broken_unit ~tu_index : string =
  Printf.sprintf
    "#include \"generated.h\"\n\nint tu%d_driver( ) {\n    NoSuchType broken;\n    return 0;\n}\n"
    tu_index

(** A small Fortran 90 translation unit (one module, one function), for
    mixed-language project builds. *)
let fortran_unit ~tu_index : string =
  Printf.sprintf
    {|! generated Fortran unit %d
module gen%d_mod
  implicit none
contains
  function gen%d_scale(x) result(y)
    real :: x, y
    y = x * %d.0 + 1.0
  end function gen%d_scale
end module gen%d_mod
|}
    tu_index tu_index tu_index (tu_index + 2) tu_index tu_index

(** A small Java translation unit (one package-scoped class), for
    mixed-language project builds. *)
let java_unit ~tu_index : string =
  Printf.sprintf
    {|package gen;

public class Gen%d {
    private int base;
    public Gen%d(int b) { base = b; }
    public int apply(int x) { return x + base + %d; }
}
|}
    tu_index tu_index tu_index

(** The files of a multi-TU project as [(name, contents)] pairs:
    [generated.h] + [tu<i>.cpp] files + main. *)
let project_files ?(cfg = default_config) ~n_tus () : (string * string) list =
  [ ("generated.h", header cfg) ]
  @ List.init n_tus (fun i ->
        (Printf.sprintf "tu%d.cpp" i, translation_unit cfg ~tu_index:i))
  @ [ ("main.cpp", main_unit ~n_tus) ]

(** VFS for a multi-TU project: [generated.h] + [tu<i>.cpp] files + main. *)
let project_vfs ?(cfg = default_config) ~n_tus () :
    Pdt_util.Vfs.t * string list =
  let vfs = Pdt_util.Vfs.create () in
  Ministl.mount vfs;
  List.iter
    (fun (name, contents) -> Pdt_util.Vfs.add_file vfs name contents)
    (project_files ~cfg ~n_tus ());
  let sources =
    List.init n_tus (fun i -> Printf.sprintf "tu%d.cpp" i) @ [ "main.cpp" ]
  in
  (vfs, sources)

(** Like {!project_vfs} but with one Fortran and one Java unit alongside
    the C++ ones — the pdbbuild mixed-language scenario.  All three front
    ends feed the same PDB format, so the merge sees one project. *)
let mixed_project_vfs ?(cfg = default_config) ~n_tus () :
    Pdt_util.Vfs.t * string list =
  let vfs, cpp_sources = project_vfs ~cfg ~n_tus () in
  Pdt_util.Vfs.add_file vfs "gen0.f90" (fortran_unit ~tu_index:0);
  Pdt_util.Vfs.add_file vfs "Gen0.java" (java_unit ~tu_index:0);
  (vfs, cpp_sources @ [ "gen0.f90"; "Gen0.java" ])

(** Write a project to a real directory (for exercising the command-line
    drivers); returns the on-disk source paths in build order. *)
let write_project ?(cfg = default_config) ~n_tus ~dir () : string list =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, contents) ->
      let oc = open_out_bin (Filename.concat dir name) in
      output_string oc contents;
      close_out oc)
    (project_files ~cfg ~n_tus ());
  List.init n_tus (fun i -> Filename.concat dir (Printf.sprintf "tu%d.cpp" i))
  @ [ Filename.concat dir "main.cpp" ]
