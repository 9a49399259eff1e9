(* Driver: load .cmt files, run the taint analysis, report.

   Two modes:

   - per-module ([run]): each .cmt is analyzed on its own, with no
     interprocedural environment.  Used by the fixture tests and for
     quick single-file checks.

   - whole-program ([run_program], the [--root] CLI mode): every .cmt
     under the given directories is indexed into one [Callgraph]
     universe, per-function summaries are iterated to a fixpoint
     ([Summary.compute]), and each [@@oblivious] entrypoint is analyzed
     with that environment — so a secret flowing through three modules
     into an observable sink is one finding with the full call chain.
     Reachability is then checked: a call from the oblivious surface
     into a project-namespace module that was never loaded is an
     [unanalyzed-module] finding, which is what lets the build rules
     glob directories instead of hand-listing modules.  Every [external]
     in the surface must carry a justified [@@leak_ok]
     ([foreign-primitive]); each one gets an audit record in [foreign]. *)

type report = {
  findings : Finding.t list;
  audits : Finding.audit list; (* one per [@@oblivious] binding *)
  foreign : Finding.audit list; (* one per [external], whole-program only *)
  errors : string list; (* unreadable inputs *)
  modules : int; (* implementations analyzed *)
}

let empty = { findings = []; audits = []; foreign = []; errors = []; modules = 0 }

let merge a b =
  { findings = a.findings @ b.findings;
    audits = a.audits @ b.audits;
    foreign = a.foreign @ b.foreign;
    errors = a.errors @ b.errors;
    modules = a.modules + b.modules }

let analyze_cmt path =
  match Cmt_format.read_cmt path with
  | exception e ->
      { empty with errors = [ Printf.sprintf "%s: %s" path (Printexc.to_string e) ] }
  | cmt -> (
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let findings, audits = Taint.analyze_structure str in
          { empty with findings; audits; modules = 1 }
      | _ -> empty)

let is_cmt path =
  Filename.check_suffix path ".cmt" && not (Filename.check_suffix path ".cmti")

(* Directories are walked recursively; explicit files must be .cmt.  A
   top-level PATH that cannot be stat'ed is an error, but an entry under
   a walked directory that vanishes (or dangles) before its stat is
   skipped: the compiler writes temporary files into the very
   directories a build-time lint run walks. *)
let collect path =
  let rec walk ~top path =
    match
      if Sys.is_directory path then
        List.concat_map
          (fun entry -> walk ~top:false (Filename.concat path entry))
          (List.sort compare (Array.to_list (Sys.readdir path)))
      else if is_cmt path then [ path ]
      else []
    with
    | cmts -> cmts
    | exception Sys_error _ when not top -> []
  in
  match walk ~top:true path with
  | cmts -> Ok cmts
  | exception Sys_error e -> Error e

let run paths =
  List.fold_left
    (fun acc path ->
      match collect path with
      | Error e -> { acc with errors = acc.errors @ [ e ] }
      | Ok cmts -> List.fold_left (fun acc cmt -> merge acc (analyze_cmt cmt)) acc cmts)
    empty paths

(* ------------------------------------------------------------------ *)
(* Whole-program mode *)

module SSet = Set.Make (String)

(* The enclosing module path of a (dotted) value name. *)
let module_of name =
  match String.rindex_opt name '.' with
  | None -> None
  | Some i -> Some (String.sub name 0 i)

(* BFS over resolved call edges from the oblivious entrypoints; calls
   into the project namespace that neither resolve nor land in a loaded
   module are the discovery gaps. *)
let reachability_findings graph =
  let visited = ref SSet.empty in
  let gaps = ref [] in
  let flagged_modules = ref SSet.empty in
  let queue = Queue.create () in
  List.iter
    (fun (fn : Callgraph.fn) ->
      if fn.fn_oblivious then Queue.add fn queue)
    (Callgraph.fns graph);
  while not (Queue.is_empty queue) do
    let fn = Queue.pop queue in
    if not (SSet.mem fn.Callgraph.fn_name !visited) then begin
      visited := SSet.add fn.Callgraph.fn_name !visited;
      List.iter
        (fun (callee, loc) ->
          match Callgraph.resolve graph ~current:fn.Callgraph.fn_prefix callee with
          | Some target ->
              if not (SSet.mem target.Callgraph.fn_name !visited) then
                Queue.add target queue
          | None ->
              if
                Callgraph.project_name graph callee
                && not (Callgraph.covered graph callee)
              then begin
                match module_of (Callgraph.canon callee) with
                | Some m when not (SSet.mem m !flagged_modules) ->
                    flagged_modules := SSet.add m !flagged_modules;
                    gaps :=
                      Finding.of_location ~rule:Finding.Unanalyzed_module
                        ~func:fn.Callgraph.fn_name
                        ~message:
                          (Printf.sprintf
                             "call to %s reaches module %s, which was never loaded \
                              into the analysis surface (add its library's .cmt \
                              directory to the lint inputs)"
                             callee m)
                        loc
                      :: !gaps
                | _ -> ()
              end)
        fn.Callgraph.fn_calls
    end
  done;
  List.rev !gaps

let load_program paths =
  let graph = Callgraph.create () in
  let errors = ref [] in
  let modules = ref 0 in
  List.iter
    (fun path ->
      match collect path with
      | Error e -> errors := !errors @ [ e ]
      | Ok cmts ->
          List.iter
            (fun cmt_path ->
              match Cmt_format.read_cmt cmt_path with
              | exception e ->
                  errors :=
                    !errors
                    @ [ Printf.sprintf "%s: %s" cmt_path (Printexc.to_string e) ]
              | cmt -> (
                  match cmt.Cmt_format.cmt_annots with
                  | Cmt_format.Implementation str ->
                      incr modules;
                      Callgraph.add_structure graph
                        ~modname:cmt.Cmt_format.cmt_modname str
                  | _ -> ()))
            cmts)
    paths;
  (graph, !errors, !modules)

let run_program ~root paths =
  let paths =
    List.map
      (fun p -> if Filename.is_relative p then Filename.concat root p else p)
      (if paths = [] then [ "." ] else paths)
  in
  let graph, errors, modules = load_program paths in
  let summaries = Summary.compute graph in
  let env = Summary.env summaries in
  let findings, audits =
    List.fold_left
      (fun (fs, aus) (fn : Callgraph.fn) ->
        if fn.fn_oblivious then begin
          let f, a = Taint.analyze_fn ~env fn in
          (fs @ f, aus @ [ a ])
        end
        else (fs, aus))
      ([], []) (Callgraph.fns graph)
  in
  let foreign_findings, foreign =
    List.split (List.map Taint.analyze_external (Callgraph.externals graph))
  in
  let findings = findings @ List.concat foreign_findings @ reachability_findings graph in
  { findings; audits; foreign; errors; modules }

(* ------------------------------------------------------------------ *)
(* CLI entry shared by bin/psplint and `pspc lint` *)

let print_report ~quiet ~audit r =
  let table title audits =
    Printf.printf "%s audited: %d\n" title (List.length audits);
    List.iter (fun a -> Format.printf "  %a@." Finding.pp_audit a) (List.sort compare audits)
  in
  if audit then begin
    table "oblivious functions" r.audits;
    table "externals" r.foreign
  end;
  if not quiet then
    List.iter
      (fun f -> Format.printf "%a@." Finding.pp f)
      (List.sort Finding.compare r.findings);
  List.iter (fun e -> Printf.eprintf "psplint: error: %s\n" e) r.errors;
  let justified =
    List.fold_left (fun acc a -> acc + a.Finding.justified) 0 (r.audits @ r.foreign)
  in
  Printf.printf
    "psplint: %d module(s), %d oblivious function(s), %d external(s), %d justified leak \
     site(s), %d finding(s)\n"
    r.modules (List.length r.audits) (List.length r.foreign) justified
    (List.length r.findings)

let exit_code r =
  if r.errors <> [] then 2 else if r.findings <> [] then 1 else 0

let main ?root ?sarif ?baseline ?write_baseline ~paths ~quiet ~audit () =
  if paths = [] && root = None then begin
    Printf.eprintf
      "psplint: no inputs (pass .cmt files or directories, e.g. _build/default/lib)\n";
    2
  end
  else begin
    let r =
      match root with Some root -> run_program ~root paths | None -> run paths
    in
    let audits = r.audits @ r.foreign in
    (match write_baseline with
    | Some file ->
        Baseline.write file r.findings audits;
        Printf.printf "psplint: baseline written to %s (%d finding(s), %d audited \
                       function(s))\n"
          file (List.length r.findings) (List.length r.audits)
    | None -> ());
    let r, suppressed =
      match baseline with
      | None -> (r, 0)
      | Some file -> (
          match Baseline.load file with
          | Error e -> ({ r with errors = r.errors @ [ e ] }, 0)
          | Ok b ->
              let applied = Baseline.apply b ~baseline_file:file r.findings audits in
              ( { r with findings = applied.Baseline.kept @ applied.Baseline.drift },
                applied.Baseline.suppressed ))
    in
    (match sarif with
    | Some file -> Sarif.write file r.findings
    | None -> ());
    print_report ~quiet ~audit r;
    if suppressed > 0 then
      Printf.printf "psplint: %d baselined finding(s) suppressed\n" suppressed;
    if write_baseline <> None then if r.errors <> [] then 2 else 0 else exit_code r
  end
