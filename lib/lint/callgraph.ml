(* Cross-module function universe for the whole-program analysis.

   Every loaded .cmt contributes its top-level (and nested-module, and
   functor-body) value bindings under a canonical fully qualified name:
   dune's wrapped-library mangling ("Psp_core__Engine", or the wrapper
   alias "Psp_core__.Engine") is undone so that the names the typedtree
   prints at call sites ("Psp_pir.Server.replica", "Psp_core.Engine.run_batch")
   resolve directly.

   Functor instances are handled with *redirects*: both

     module Lm = Incremental.Make (C)          (* module-level instance *)
     include Incremental.Make (C)              (* whole-module instance *)

   record "…Lm ↦ …Incremental.Make", so a call to [Lm.next_page] lands on
   the function indexed inside the functor body.  The functor's own
   parameter stays opaque (conservative: unresolved). *)

module SMap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Canonical names *)

(* Undo dune's name mangling, component-wise:
   "Psp_core__Engine" -> "Psp_core.Engine"; the wrapper alias module
   "Psp_core__" -> "Psp_core".  Only capitalized components are touched —
   a value called [foo__bar] is left alone. *)
let canon name =
  let split_mangled comp =
    if comp = "" || not (comp.[0] >= 'A' && comp.[0] <= 'Z') then [ comp ]
    else begin
      let parts = ref [] and buf = Buffer.create (String.length comp) in
      let n = String.length comp in
      let i = ref 0 in
      while !i < n do
        if !i + 1 < n && comp.[!i] = '_' && comp.[!i + 1] = '_' then begin
          if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
          Buffer.clear buf;
          i := !i + 2
        end
        else begin
          Buffer.add_char buf comp.[!i];
          incr i
        end
      done;
      if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
      match List.rev !parts with [] -> [ comp ] | ps -> ps
    end
  in
  String.split_on_char '.' name |> List.concat_map split_mangled |> String.concat "."

let top_component name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> String.sub name 0 i

(* ------------------------------------------------------------------ *)
(* Attribute helper (shared shape with Taint, duplicated to keep the
   dependency order Finding < Callgraph < Taint acyclic) *)

let has_attr name attrs =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

(* ------------------------------------------------------------------ *)
(* The universe *)

type fn = {
  fn_name : string; (* canonical fq name, e.g. "Psp_pir.Server.Session.fetch_batch" *)
  fn_prefix : string; (* enclosing module path, e.g. "Psp_pir.Server.Session" *)
  fn_oblivious : bool;
  fn_binding : Typedtree.value_binding;
  fn_aliases : (string * string) list; (* in-scope module aliases, innermost first *)
  fn_calls : (string * Location.t) list; (* alias-expanded callee names *)
}

type ext = {
  ext_name : string; (* canonical fq name *)
  ext_prim : string; (* the native symbol (or %-primitive) it binds *)
  ext_attrs : Parsetree.attributes;
  ext_loc : Location.t;
}

type t = {
  fns : fn SMap.t ref;
  exts : ext list ref; (* newest first *)
  redirects : string SMap.t ref; (* canonical module ↦ canonical functor path *)
  mods : string list ref; (* canonical names of loaded modules *)
  abbrevs : Types.type_expr SMap.t ref; (* canonical type name ↦ manifest *)
}

let create () =
  { fns = ref SMap.empty;
    exts = ref [];
    redirects = ref SMap.empty;
    mods = ref [];
    abbrevs = ref SMap.empty }
let fns t = List.map snd (SMap.bindings !(t.fns))
let externals t = List.rev !(t.exts)
let modules t = List.rev !(t.mods)
let find t name = SMap.find_opt name !(t.fns)

(* ------------------------------------------------------------------ *)
(* Alias expansion (same semantics as Taint.normalize; kept here so the
   call-edge list is expanded with the aliases in scope at indexing time) *)

let strip_stdlib name =
  let prefix = "Stdlib." in
  if String.length name > 7 && String.sub name 0 7 = prefix then
    String.sub name 7 (String.length name - 7)
  else name

let expand_aliases aliases name =
  let rec expand fuel name =
    if fuel = 0 then name
    else
      match String.index_opt name '.' with
      | None -> name
      | Some i -> (
          let head = String.sub name 0 i in
          match List.assoc_opt head aliases with
          | Some expansion ->
              expand (fuel - 1) (expansion ^ String.sub name i (String.length name - i))
          | None -> name)
  in
  strip_stdlib (expand 8 name)

(* ------------------------------------------------------------------ *)
(* Call-edge collection: every [Texp_apply] whose head is an identifier *)

let collect_calls aliases (e : Typedtree.expression) =
  let calls = ref [] in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_apply (fn, _) -> (
              match fn.Typedtree.exp_desc with
              | Typedtree.Texp_ident (path, _, _) ->
                  calls := (expand_aliases aliases (Path.name path), fn.exp_loc) :: !calls
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e) }
  in
  it.expr it e;
  List.rev !calls

(* ------------------------------------------------------------------ *)
(* Structure indexing *)

let binding_name (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with Tpat_var (id, _) -> Some (Ident.name id) | _ -> None

let rec strip_constraint (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> strip_constraint me
  | desc -> desc

(* The functor path of [F (A) (B)], if the head is a named functor. *)
let rec functor_head (me : Typedtree.module_expr) =
  match strip_constraint me with
  | Tmod_apply (f, _, _) -> functor_head f
  | Tmod_ident (p, _) -> Some (Path.name p)
  | _ -> None

let add_fn t ~prefix ~aliases (vb : Typedtree.value_binding) =
  match binding_name vb with
  | None -> ()
  | Some name ->
      let fq = if prefix = "" then name else prefix ^ "." ^ name in
      let fn =
        { fn_name = fq;
          fn_prefix = prefix;
          fn_oblivious = has_attr "oblivious" vb.vb_attributes;
          fn_binding = vb;
          fn_aliases = aliases;
          fn_calls = collect_calls aliases vb.vb_expr }
      in
      (* First definition wins: shadowed re-definitions of the same name
         are rare and the first is the one an external caller sees least
         surprisingly wrong; precision, not soundness, is at stake. *)
      if not (SMap.mem fq !(t.fns)) then t.fns := SMap.add fq fn !(t.fns)

(* Type abbreviations ([type id = int]): the manifest, keyed under the
   canonical fq type name, so the secret-compare exemption can expand
   aliases of immediate types without rebuilding a typing environment
   from the cmt.  First definition wins, like [add_fn]. *)
let add_abbrev t ~prefix (td : Typedtree.type_declaration) =
  match td.typ_manifest with
  | None -> ()
  | Some cty ->
      let name = td.typ_name.txt in
      let fq = if prefix = "" then name else prefix ^ "." ^ name in
      if not (SMap.mem fq !(t.abbrevs)) then
        t.abbrevs := SMap.add fq cty.ctyp_type !(t.abbrevs)

(* [external] declarations have no body to index: they are recorded
   for the foreign-primitive rule, and a call into one resolves to
   nothing (an unknown callee with no summary). *)
let add_external t ~prefix (vd : Typedtree.value_description) =
  let name = Ident.name vd.val_id in
  t.exts :=
    { ext_name = (if prefix = "" then name else prefix ^ "." ^ name);
      ext_prim = (match List.rev vd.val_prim with p :: _ -> p | [] -> "");
      ext_attrs = vd.val_attributes;
      ext_loc = vd.val_loc }
    :: !(t.exts)

let rec index_items t ~prefix ~aliases items =
  let aliases = ref aliases in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (add_fn t ~prefix ~aliases:!aliases) vbs
      | Tstr_type (_, decls) -> List.iter (add_abbrev t ~prefix) decls
      | Tstr_primitive vd -> add_external t ~prefix vd
      | Tstr_module mb -> index_module t ~prefix ~aliases mb
      | Tstr_recmodule mbs -> List.iter (index_module t ~prefix ~aliases) mbs
      | Tstr_include { incl_mod; _ } -> (
          (* [include F (C)] : the whole enclosing module is an instance
             of F — record a redirect so [This.f] resolves into F's body. *)
          match strip_constraint incl_mod with
          | Tmod_apply _ -> (
              match functor_head incl_mod with
              | Some f when prefix <> "" ->
                  let target = canon (expand_aliases !aliases f) in
                  t.redirects := SMap.add prefix target !(t.redirects)
              | _ -> ())
          | Tmod_structure { str_items; _ } -> index_items t ~prefix ~aliases:!aliases str_items
          | _ -> ())
      | _ -> ())
    items

and index_module t ~prefix ~aliases (mb : Typedtree.module_binding) =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  let sub_prefix = if prefix = "" then name else prefix ^ "." ^ name in
  match strip_constraint mb.mb_expr with
  | Tmod_ident (p, _) ->
      aliases := (name, expand_aliases !aliases (Path.name p)) :: !aliases
  | Tmod_structure { str_items; _ } ->
      index_items t ~prefix:sub_prefix ~aliases:!aliases str_items
  | Tmod_apply _ as app -> (
      (* [module X = F (C)]: redirect X to F, and if F's application is a
         literal structure-returning expression we still only see F. *)
      match functor_head { mb.mb_expr with mod_desc = app } with
      | Some f ->
          let target = canon (expand_aliases !aliases f) in
          t.redirects := SMap.add sub_prefix target !(t.redirects)
      | None -> ())
  | Tmod_functor (_, body) -> (
      (* Index the functor body under "Prefix.X": a redirect from each
         instance maps "Instance.f" onto "Prefix.X.f". *)
      match strip_constraint body with
      | Tmod_structure { str_items; _ } ->
          index_items t ~prefix:sub_prefix ~aliases:!aliases str_items
      | _ -> ())
  | _ -> ()

let add_structure t ~modname (str : Typedtree.structure) =
  let m = canon modname in
  t.mods := m :: !(t.mods);
  index_items t ~prefix:m ~aliases:[] str.str_items

(* ------------------------------------------------------------------ *)
(* Resolution *)

(* Rewrite the longest module prefix of [name] through the redirect
   table, repeatedly (an instance of an instance needs two hops). *)
let apply_redirects t name =
  let rewrite name =
    let rec try_prefix i =
      (* longest dotted prefix first *)
      match String.rindex_from_opt name i '.' with
      | None -> None
      | Some j -> (
          let prefix = String.sub name 0 j in
          match SMap.find_opt prefix !(t.redirects) with
          | Some target ->
              Some (target ^ String.sub name j (String.length name - j))
          | None -> try_prefix (j - 1))
    in
    try_prefix (String.length name - 1)
  in
  let rec go fuel name =
    if fuel = 0 then name
    else match rewrite name with Some name' -> go (fuel - 1) name' | None -> name
  in
  go 4 name

(* Candidate spellings of an alias-expanded name as seen from inside
   [current] (the caller's enclosing module path): the name as-is, then
   qualified by each enclosing prefix from innermost to outermost (a
   bare [helper] or a sibling [Session.fetch_batch]). *)
let candidates ~current name =
  let rec prefixes acc p =
    match String.rindex_opt p '.' with
    | None -> List.rev (p :: acc)
    | Some i -> prefixes (p :: acc) (String.sub p 0 i)
  in
  let qualified =
    if current = "" then [] else List.map (fun p -> p ^ "." ^ name) (prefixes [] current)
  in
  name :: qualified

let first_candidate ~current name try_one =
  List.fold_left
    (fun acc cand -> match acc with Some _ -> acc | None -> try_one cand)
    None
    (candidates ~current name)

(* Resolve an alias-expanded callee name: each candidate spelling is
   tried as-is and through the functor redirects. *)
let resolve t ~current name =
  first_candidate ~current (canon name) (fun n ->
      match find t n with
      | Some fn -> Some fn
      | None -> find t (apply_redirects t n))

(* Same search over the type-abbreviation table: [abbrev t ~current
   "id"] from inside "Psp_util.Byte_io" finds "Psp_util.Byte_io.id". *)
let abbrev t ~current name =
  first_candidate ~current (canon name) (fun n ->
      match SMap.find_opt n !(t.abbrevs) with
      | Some ty -> Some ty
      | None -> SMap.find_opt (apply_redirects t n) !(t.abbrevs))

(* Does [name] live inside a module that was loaded into the universe?
   Used to separate "resolvable in principle but not a function we track"
   (e.g. a record accessor, a submodule value) from "module never
   analyzed". *)
let covered t name =
  let name = canon name in
  let name' = apply_redirects t name in
  List.exists
    (fun m ->
      let is_prefix n =
        let lm = String.length m and ln = String.length n in
        ln > lm && String.sub n 0 lm = m && n.[lm] = '.'
      in
      is_prefix name || is_prefix name')
    !(t.mods)

(* Project-namespace heuristic: the libraries all live under "Psp_*", so
   any dotted callee whose top component matches a loaded library's
   namespace — or the "Psp_" prefix itself — must be part of the audit
   surface. *)
let project_name t name =
  let top = top_component (canon name) in
  let psp_prefixed =
    String.length top >= 4 && String.sub top 0 4 = "Psp_"
  in
  psp_prefixed
  || List.exists (fun m -> top_component m = top) !(t.mods)
