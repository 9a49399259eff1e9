(** Cross-module function universe for the whole-program analysis.

    Loaded [.cmt] structures are indexed under canonical fully qualified
    names (dune's wrapped-library mangling undone), including bindings
    nested in submodules and functor bodies.  Functor instances
    ([module Lm = Incremental.Make (C)] or [include Incremental.Make (C)])
    become redirects so calls through the instance resolve into the
    functor body. *)

type fn = {
  fn_name : string;  (** canonical fq name, e.g. ["Psp_pir.Server.Session.fetch_batch"] *)
  fn_prefix : string;  (** enclosing module path *)
  fn_oblivious : bool;  (** carries [[\@\@oblivious]] *)
  fn_binding : Typedtree.value_binding;
  fn_aliases : (string * string) list;  (** in-scope module aliases *)
  fn_calls : (string * Location.t) list;  (** alias-expanded callee names *)
}

type ext = {
  ext_name : string;  (** canonical fq name of the [external] *)
  ext_prim : string;  (** the native symbol (or [%]-primitive) it binds *)
  ext_attrs : Parsetree.attributes;
  ext_loc : Location.t;
}
(** An [external] declaration: foreign code with no typedtree body. *)

type t

val create : unit -> t

val add_structure : t -> modname:string -> Typedtree.structure -> unit
(** Index one module's implementation; [modname] is the mangled
    [cmt_modname] (e.g. ["Psp_core__Engine"]). *)

val fns : t -> fn list

val externals : t -> ext list
(** Every [external] in the loaded structures, in load order.  A call
    into one does not resolve: it has no body, hence no summary. *)

val modules : t -> string list
(** Canonical names of the loaded modules, in load order. *)

val find : t -> string -> fn option
val resolve : t -> current:string -> string -> fn option
(** [resolve t ~current name] looks up an alias-expanded callee name as
    seen from inside module path [current]: as-is, through functor
    redirects, then qualified by each enclosing prefix. *)

val abbrev : t -> current:string -> string -> Types.type_expr option
(** [abbrev t ~current name] looks up a type abbreviation's manifest
    (collected from [Tstr_type] items at indexing time) with the same
    candidate search as {!resolve}: as-is, through redirects, then
    qualified by each enclosing prefix of [current].  Lets the
    [secret-compare] exemption expand [type id = int] to an immediate. *)

val covered : t -> string -> bool
(** The name's module (after redirects) was loaded into the universe. *)

val project_name : t -> string -> bool
(** The name lives in the project namespace ([Psp_*] or a loaded
    library's top component) and therefore belongs on the audit surface. *)

val canon : string -> string
(** Undo dune's name mangling: ["Psp_core__Engine.run_batch"] ->
    ["Psp_core.Engine.run_batch"]; the wrapper alias ["Psp_core__.X"] -> ["Psp_core.X"]. *)

val expand_aliases : (string * string) list -> string -> string
(** Expand a leading module alias repeatedly, then strip [Stdlib.]. *)
