(* One analyzed compilation unit: the implementation typedtree read
   from a [.cmt] file plus the pre-computed facts the checks share. *)

let pool_entry_points = [ "Pool.map_list"; "Pool.submit" ]

type t = {
  modname : string;           (* compilation unit name, e.g. "Ec_util__Fault" *)
  cmt_path : string;
  builddir : string;          (* directory the compiler ran in *)
  source : string option;     (* source path relative to [builddir] *)
  structure : Typedtree.structure;
  imports : string list;      (* imported compilation unit names *)
  pool_call_sites : Location.t list;
      (* where this unit hands closures to the domain pool *)
  mutable_record_types : string list;
      (* locally declared record types with mutable fields *)
}

(* [load path] reads a [.cmt]; [None] when the file is an interface,
   a partial implementation, or unreadable — callers skip those. *)
let load path =
  (* eclint: allow EX001 — skip unreadable/foreign .cmt (counted in cmts_skipped) *)
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      let pool_call_sites = ref [] in
      Tt_util.iter_paths_in_structure str (fun p loc ->
          if Tt_util.path_is pool_entry_points p then
            pool_call_sites := loc :: !pool_call_sites);
      Some
        { modname = cmt.Cmt_format.cmt_modname;
          cmt_path = path;
          builddir = cmt.Cmt_format.cmt_builddir;
          source = cmt.Cmt_format.cmt_sourcefile;
          structure = str;
          imports = List.map fst cmt.Cmt_format.cmt_imports;
          pool_call_sites = !pool_call_sites;
          mutable_record_types = Tt_util.mutable_record_types str }
    | _ -> None)

(* Recursively collect [*.cmt] files under each path (a file or a
   directory).  Dot-directories are traversed deliberately: dune hides
   object files under [.libname.objs/byte/]. *)
let rec collect_cmts acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> collect_cmts acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let collect_cmts paths =
  List.fold_left collect_cmts [] paths |> List.sort_uniq compare
