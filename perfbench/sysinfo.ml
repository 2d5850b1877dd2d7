(* What a reader needs to interpret a result: process CPU and peak memory,
   the host's steal share over the run, and which code was measured. *)

(* user+system CPU of the whole process: every domain, the in-process
   daemon included *)
let cpu_s () : float =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path : string option =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

(* /proc files report length 0, so read them line by line *)
let read_lines path : string list =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  with Sys_error _ -> []

let words s =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
  |> List.filter (( <> ) "")

(* VmHWM: the process's peak resident set *)
let peak_rss_mib () : float =
  List.find_map
    (fun l ->
      match words l with
      | "VmHWM:" :: kb :: _ -> Some (float_of_string kb /. 1024.0)
      | _ -> None)
    (read_lines "/proc/self/status")
  |> Option.value ~default:Float.nan

(* aggregate "cpu" line of /proc/stat: (steal ticks, total ticks) *)
let cpu_ticks () : (float * float) option =
  match read_lines "/proc/stat" with
  | l :: _ -> (
      match words l with
      | "cpu" :: fields ->
          let v = Array.of_list (List.map float_of_string fields) in
          if Array.length v < 8 then None
          else
            (* user nice system idle iowait irq softirq steal; guest time
               is already counted inside user/nice *)
            Some (v.(7), Stats.sum (Array.sub v 0 8))
      | _ -> None)
  | [] -> None

let steal_share ~(before : (float * float) option) ~after : float =
  match (before, after) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> (s1 -. s0) /. (t1 -. t0)
  | _ -> Float.nan

(* HEAD's commit when run inside a git work tree, read from the files so no
   child process is needed; "none" in a plain checkout *)
let git_rev () : string =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
      let head = String.trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (Filename.concat ".git" r) with
          | Some h -> String.trim h
          | None -> (
              (* packed ref *)
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  String.split_on_char '\n' packed
                  |> List.find_map (fun l ->
                         match words l with
                         | [ h; name ] when name = r -> Some h
                         | _ -> None)
                  |> Option.value ~default:"unknown"))
      | _ -> head)

(* Digest of the program's sources (lib/ and bin/), which identifies the
   code under test even where the checkout carries no git metadata. *)
let source_digest () : string =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p else [ p ])
    | exception Sys_error _ -> []
  in
  let paths = files "lib" @ files "bin" in
  if paths = [] then "none"
  else
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            (List.concat_map
               (fun p -> [ p; Option.value ~default:"" (read_file p) ])
               paths)))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
