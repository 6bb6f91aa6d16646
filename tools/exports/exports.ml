(* exports: every value a library exports needs a caller in shipped code.

   Usage: exports.exe ROOT ALLOWLIST

   Reads every lib/*/*.mli under ROOT with the compiler's parser and
   lists the values it exports, nested signatures (module M : sig ...
   end) included.  Then parses every .ml under ROOT's lib, bin, bench,
   perfbench and examples and collects the value paths each one names,
   so a name in a comment or a string never counts.  A path is resolved
   through the file's module aliases (module S = Lib.M, let module S =
   ... in) and opens.  An export is called when a file outside its own
   module names it.

   Each ALLOWLIST line reads "Module.value TEST REASON": an export that
   stays for a test hook, the test file (relative to ROOT) that calls
   it, and why.  The check fails, naming each one, on an export with
   neither a shipped caller nor an entry, and on a stale entry: one
   whose export is gone or has gained a shipped caller, or whose test
   no longer names it. *)

let caller_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

(* Sorted, skipping dune's and the editors' hidden directories. *)
let rec files_under dir suffix =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if name.[0] = '.' || name.[0] = '_' then []
           else if Sys.is_directory path then files_under path suffix
           else if Filename.check_suffix name suffix then [ path ]
           else [])

let parse parser path =
  In_channel.with_open_bin path (fun ic ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      parser lexbuf)

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The library a lib/ directory builds, from its dune file's
   "(name lib)", as the wrapper module other code names it by. *)
let library_of_dir dir =
  let text =
    In_channel.with_open_bin (Filename.concat dir "dune") In_channel.input_all
  in
  let tokens =
    String.split_on_char ' '
      (String.map (function '(' | ')' | '\n' | '\t' -> ' ' | c -> c) text)
    |> List.filter (( <> ) "")
  in
  let rec find = function
    | "name" :: name :: _ -> String.capitalize_ascii name
    | _ :: rest -> find rest
    | [] -> failwith (dir ^ "/dune: no library name")
  in
  find tokens

type export = {
  lib : string;  (* wrapper module, e.g. Batsched_numeric *)
  path : string list;  (* module, then any nested module, then the value *)
  mli : string;
}

let key e = String.concat "." e.path

let exports ~lib_of_dir root =
  files_under (Filename.concat root "lib") ".mli"
  |> List.concat_map (fun mli ->
         let lib = List.assoc (Filename.dirname mli) lib_of_dir in
         let rec values prefix items =
           List.concat_map
             (fun (item : Parsetree.signature_item) ->
               match item.psig_desc with
               | Psig_value vd ->
                   [ { lib; path = prefix @ [ vd.pval_name.txt ]; mli } ]
               | Psig_module
                   { pmd_name = { txt = Some m; _ };
                     pmd_type = { pmty_desc = Pmty_signature s; _ }; _ } ->
                   values (prefix @ [ m ]) s
               | _ -> [])
             items
         in
         values [ module_of_file mli ] (parse Parse.interface mli))

let rec flatten : Longident.t -> string list = function
  | Lident s -> [ s ]
  | Ldot (p, s) -> flatten p @ [ s ]
  | Lapply _ -> []

(* The value paths, opens and module aliases one .ml names. *)
let scan path =
  let idents = ref [] and opens = ref [] and aliases = ref [] in
  let alias name (me : Parsetree.module_expr) =
    match (name, me.pmod_desc) with
    | Some n, Pmod_ident { txt; _ } -> aliases := (n, flatten txt) :: !aliases
    | _ -> ()
  in
  let default = Ast_iterator.default_iterator in
  let iter =
    { default with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> idents := flatten txt :: !idents
          | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
          | _ -> ());
          default.expr it e);
      module_binding =
        (fun it mb ->
          alias mb.pmb_name.txt mb.pmb_expr;
          default.module_binding it mb);
      open_declaration =
        (fun it od ->
          (match od.popen_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> opens := flatten txt :: !opens
          | _ -> ());
          default.open_declaration it od) }
  in
  iter.structure iter (parse Parse.implementation path);
  (!idents, !opens, !aliases)

(* The exports a file names.  A module path resolves through the
   file's aliases, then to a library's wrapper or to a module of the
   file's own library or of a library it opens; where two libraries
   could supply a module, both count. *)
let references ~libraries ~own_lib path =
  let idents, opens, aliases = scan path in
  let rec expand depth = function
    | first :: rest when depth < 16 && List.mem_assoc first aliases ->
        expand (depth + 1) (List.assoc first aliases @ rest)
    | p -> p
  in
  let opened_libs =
    List.filter_map
      (fun o ->
        match expand 0 o with
        | [ l ] when List.mem l libraries -> Some l
        | _ -> None)
      opens
  in
  let scope = Option.to_list own_lib @ opened_libs in
  (* (lib, module path) pairs a module path may denote *)
  let resolve p =
    match expand 0 p with
    | [] -> []
    | l :: (_ :: _ as m) when List.mem l libraries -> [ (l, m) ]
    | m -> List.map (fun l -> (l, m)) scope
  in
  let opened_modules = List.concat_map resolve opens in
  List.concat_map
    (fun ident ->
      match List.rev ident with
      | [] -> []
      | [ v ] -> List.map (fun (l, m) -> (l, m @ [ v ])) opened_modules
      | v :: rev_p ->
          List.map (fun (l, m) -> (l, m @ [ v ])) (resolve (List.rev rev_p)))
    idents

let read_allowlist file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | key :: test :: _ :: _ -> Some (key, test)
           | _ ->
               failwith
                 (Printf.sprintf "%s: want \"Module.value TEST REASON\": %s"
                    file line))

let () =
  let root, allowlist =
    match Sys.argv with
    | [| _; root; allowlist |] -> (root, allowlist)
    | _ ->
        prerr_endline "usage: exports ROOT ALLOWLIST";
        exit 2
  in
  let lib_dirs =
    files_under (Filename.concat root "lib") "dune" |> List.map Filename.dirname
  in
  let lib_of_dir = List.map (fun d -> (d, library_of_dir d)) lib_dirs in
  let libraries = List.map snd lib_of_dir in
  let exports = exports ~lib_of_dir root in
  let called = Hashtbl.create 1024 in
  List.iter
    (fun dir ->
      List.iter
        (fun file ->
          let own_lib = List.assoc_opt (Filename.dirname file) lib_of_dir in
          let own = Option.map (fun l -> (l, module_of_file file)) own_lib in
          List.iter
            (fun (l, path) ->
              if Some (l, List.hd path) <> own then
                Hashtbl.replace called (l, path) ())
            (references ~libraries ~own_lib file))
        (files_under (Filename.concat root dir) ".ml"))
    caller_dirs;
  let is_called e = Hashtbl.mem called (e.lib, e.path) in
  let entries = read_allowlist allowlist in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf (fmt ^^ "\n")
  in
  List.iter
    (fun e ->
      if not (is_called e || List.mem_assoc (key e) entries) then
        fail "%s: %s has no caller in %s" e.mli (key e)
          (String.concat ", " caller_dirs))
    exports;
  (* the exports each named test file calls, read once per file *)
  let test_refs = Hashtbl.create 16 in
  let test_calls test e =
    let path = Filename.concat root test in
    if not (Hashtbl.mem test_refs test) then
      Hashtbl.add test_refs test
        (if Sys.file_exists path then references ~libraries ~own_lib:None path
         else []);
    List.mem (e.lib, e.path) (Hashtbl.find test_refs test)
  in
  List.iter
    (fun (k, test) ->
      let matching = List.filter (fun e -> key e = k) exports in
      if matching = [] then
        fail "%s: stale entry %s: no such export" allowlist k
      else if List.exists is_called matching then
        fail "%s: stale entry %s: it has a shipped caller" allowlist k
      else if not (List.exists (test_calls test) matching) then
        fail "%s: stale entry %s: %s does not call it" allowlist k test)
    entries;
  if !failures > 0 then exit 1
