(* Taint-based obliviousness analysis over the typedtree.

   Functions marked [@@oblivious] are checked: parameters (or any
   pattern) marked [@secret] seed the taint, which propagates through
   lets, applications, data-structure construction, known container
   mutators and control dependence (anything bound or assigned under a
   secret-steered branch is itself secret).  Reported:

   - secret-branch:     if / match / while guard / for bound steered by taint
   - secret-length:     tainted size argument to an allocation, or a
                        variable-length encoder (varint) fed a tainted value
   - secret-alloc:      a heap allocation sitting under secret-dependent
                        control flow (allocation volume is profiled)
   - secret-loop:       an iterator walking a container whose taint — and
                        hence length / trip count — derives from secrets
   - secret-compare:    polymorphic compare, physical equality or
                        [Hashtbl.hash] on non-immediate secret values
   - effectful-call:    calls into ambient-effect APIs (I/O, clocks,
                        randomness, process state) from oblivious code
   - secret-exception:  tainted payload handed to raise/failwith/invalid_arg
   - missing-justification: a [@leak_ok] escape hatch without a reason

   A finding inside [(e [@leak_ok "reason"])] (or under a binding carrying
   the attribute) is counted as justified instead of reported; the reason
   string is mandatory.

   The per-binding analysis is intraprocedural, but it consults an
   [env]: a lookup of interprocedural *summaries* (computed by
   [Summary], to a fixpoint over the whole program) describing, for each
   known function, which parameters flow to its return value, which
   parameters reach an observable sink (with the full call chain), which
   parameters absorb other parameters by mutation, and whether the
   function performs ambient effects unconditionally.  A tainted
   argument at a call site whose summary reaches a sink becomes a
   finding *at the call site*, carrying the cross-module chain. *)

module SSet = Set.Make (String)
module IMap = Map.Make (struct
  type t = Ident.t

  let compare = Ident.compare
end)

(* ------------------------------------------------------------------ *)
(* Attribute helpers *)

let attr_names = List.map (fun (a : Parsetree.attribute) -> a.attr_name.txt)
let has_attr name attrs = List.mem name (attr_names attrs)

let string_payload (a : Parsetree.attribute) =
  match a.attr_payload with
  | Parsetree.PStr
      [ { pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _ } ] ->
      Some s
  | _ -> None

(* [@leak_ok "reason"] -> `Justified; [@leak_ok] / [@leak_ok ""] -> `Unjustified
   (with the attribute's location); no attribute -> `Absent. *)
let leak_ok attrs =
  match
    List.find_opt (fun (a : Parsetree.attribute) -> a.attr_name.txt = "leak_ok") attrs
  with
  | None -> `Absent
  | Some a -> (
      match string_payload a with
      | Some s when String.trim s <> "" -> `Justified
      | _ -> `Unjustified a.Parsetree.attr_loc)

(* ------------------------------------------------------------------ *)
(* Callee tables.  Names are matched after alias expansion and after
   stripping the [Stdlib.] prefix. *)

(* Entries ending in '.' or '_' are prefixes, others match exactly. *)
let denylist =
  [ "Printf.printf";
    "Printf.eprintf";
    "Printf.fprintf";
    "Format.printf";
    "Format.eprintf";
    "Format.fprintf";
    "print_";
    "prerr_";
    "output_";
    "input_";
    "really_input";
    "read_line";
    "read_int";
    "read_float";
    "open_";
    "close_in";
    "close_out";
    "flush";
    "flush_all";
    "exit";
    "at_exit";
    "Sys.";
    "Unix.";
    "Random.";
    "Out_channel.";
    "In_channel.";
    "Gc.";
    "Domain.";
    "Thread.";
    "Mutex.";
    "Condition.";
    "Event.";
    "Filename.temp_" ]

let denylisted name =
  List.exists
    (fun entry ->
      let n = String.length entry in
      if n > 0 && (entry.[n - 1] = '.' || entry.[n - 1] = '_') then
        String.length name >= n && String.sub name 0 n = entry
      else name = entry)
    denylist

(* (suffix, index of the length-determining argument) *)
let length_sensitive_table =
  [ ("Bytes.create", 0);
    ("Bytes.make", 0);
    ("String.make", 0);
    ("Array.make", 0);
    ("Array.init", 0);
    ("Array.create_float", 0);
    ("Array.make_matrix", 0);
    ("List.init", 0);
    ("Buffer.create", 0);
    ("Hashtbl.create", 0);
    ("Byte_io.Writer.varint", 1);
    ("Byte_io.Writer.bytes", 1);
    ("Byte_io.varint_size", 0) ]

(* (suffix, index of the mutated container argument) *)
let mutator_table =
  [ ("Hashtbl.replace", 0);
    ("Hashtbl.add", 0);
    ("Hashtbl.remove", 0);
    ("Dyn_array.push", 0);
    ("Min_heap.push", 0);
    ("Buffer.add_string", 0);
    ("Buffer.add_bytes", 0);
    ("Buffer.add_char", 0);
    ("Queue.add", 1);
    ("Queue.push", 1);
    ("Stack.push", 1);
    ("Bytes.set", 0);
    ("Bytes.blit", 2);
    ("Bytes.fill", 0);
    ("Array.set", 0);
    ("Array.blit", 2);
    ("Array.fill", 0) ]

(* (suffix, indices of the recorded-payload arguments).  Telemetry
   sinks: everything reaching lib/obs is published to the (adversarial)
   server operator, so a tainted payload — or any metric update made
   under secret control, which publishes the branch taken — leaks.
   Instrument names (argument 0 of the intern functions) are included:
   a secret-derived metric name leaks through the registry keys. *)
let telemetry_table =
  [ ("Obs.counter", [ 0 ]);
    ("Obs.gauge", [ 0 ]);
    ("Obs.histogram", [ 0 ]);
    ("Obs.incr", []);
    ("Obs.add", [ 1 ]);
    ("Obs.set", [ 1 ]);
    ("Obs.observe", [ 1 ]);
    ("Obs.add_pages", [ 0 ]);
    ("Obs.enter", [ 0 ]);
    ("Obs.exit", []);
    ("Obs.with_span", [ 0 ]) ]

(* (suffix, index of the iterated container).  The trip count of these
   equals the container's length, which the server can observe through
   timing and the profiled allocation volume — a tainted container means
   a secret-dependent trip count (secret-loop).  Strings and bytes are
   deliberately absent: their lengths are page-structural and already
   policed by the length rule at the allocation/encoding boundary. *)
let iterator_table =
  [ ("List.iter", 1);
    ("List.iteri", 1);
    ("List.map", 1);
    ("List.mapi", 1);
    ("List.rev_map", 1);
    ("List.filter", 1);
    ("List.filter_map", 1);
    ("List.concat_map", 1);
    ("List.fold_left", 2);
    ("List.fold_right", 1);
    ("List.for_all", 1);
    ("List.exists", 1);
    ("List.find", 1);
    ("List.find_opt", 1);
    ("List.find_map", 1);
    ("List.sort", 1);
    ("List.stable_sort", 1);
    ("List.sort_uniq", 1);
    ("List.partition", 1);
    ("Array.iter", 1);
    ("Array.iteri", 1);
    ("Array.map", 1);
    ("Array.mapi", 1);
    ("Array.fold_left", 2);
    ("Array.fold_right", 1);
    ("Array.for_all", 1);
    ("Array.exists", 1);
    ("Hashtbl.iter", 1);
    ("Hashtbl.fold", 1);
    ("Queue.iter", 1);
    ("Queue.fold", 2);
    ("Stack.iter", 1);
    ("Stack.fold", 2);
    ("Seq.iter", 1);
    ("Seq.map", 1);
    ("Seq.fold_left", 2) ]

(* Variable-time comparisons: structural equality / compare / hashing
   walk the value; physical equality publishes sharing.  Immediate and
   unboxed-comparable types (int, char, bool, unit, float, boxed ints)
   compile to constant-time primitives and are exempted at the call
   site by inspecting the argument's type. *)
let compare_names = [ "="; "<>"; "compare"; "=="; "!="; "Hashtbl.hash" ]

let suffix_match table name =
  List.find_map
    (fun (suffix, v) ->
      let n = String.length name and s = String.length suffix in
      if name = suffix then Some v
      else if n > s && String.sub name (n - s) s = suffix && name.[n - s - 1] = '.' then
        Some v
      else None)
    table

let length_sensitive name = suffix_match length_sensitive_table name
let mutator name = suffix_match mutator_table name
let telemetry name = suffix_match telemetry_table name
let iterator name = suffix_match iterator_table name
let compare_like name = List.mem name compare_names
let raise_like = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* Immediates plus float and the boxed ints, whose compare is a single
   hardware comparison; the exemption proper (including abbreviation
   expansion) is [constant_time_comparable] below, which needs the
   analysis state for its abbreviation tables. *)
let immediate_type_names =
  [ "int"; "char"; "bool"; "unit"; "float"; "int32"; "int64"; "nativeint" ]

(* Format-string literals elaborate into CamlinternalFormatBasics
   constructor chains; they are compile-time constants, not
   secret-dependent allocations. *)
let format_literal (e : Typedtree.expression) =
  match Types.get_desc e.exp_type with
  | Types.Tconstr (p, _, _) ->
      let name = Path.name p in
      List.mem name
        [ "CamlinternalFormatBasics.fmt";
          "CamlinternalFormatBasics.format6";
          "CamlinternalFormatBasics.fmtty";
          "Stdlib.format6";
          "Stdlib.format4";
          "Stdlib.format";
          "format6";
          "format4";
          "format" ]
  | _ -> false

(* Expand a leading module alias (collected from `module X = Path` items
   in the same file), repeatedly, then strip [Stdlib.]. *)
let normalize = Callgraph.expand_aliases

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries (computed by [Summary], consumed here) *)

type sink = {
  sk_param : int; (* -1: ambient — reached regardless of the arguments *)
  sk_rule : Finding.rule;
  sk_short : string; (* taint-free phrase describing the sink *)
  sk_chain : Finding.frame list; (* call path from the callee to the sink *)
}

type summary = {
  sum_name : string; (* canonical fq name *)
  sum_arity : int; (* peeled leading parameters *)
  sum_ret_params : int list; (* params flowing into the return value *)
  sum_sinks : sink list;
  sum_mutations : (int * int list) list; (* param i absorbs params js *)
}

type env = {
  lookup : current:string -> string -> summary option;
  ty_abbrev : current:string -> string -> Types.type_expr option;
      (* type-abbreviation manifests, for the secret-compare exemption *)
}

let empty_env =
  { lookup = (fun ~current:_ _ -> None); ty_abbrev = (fun ~current:_ _ -> None) }

(* Taint tokens standing for "parameter i" during summary extraction. *)
let param_token i = Printf.sprintf "#p%d" i

let param_of_token s =
  if String.length s > 2 && s.[0] = '#' && s.[1] = 'p' then
    int_of_string_opt (String.sub s 2 (String.length s - 2))
  else None

(* ------------------------------------------------------------------ *)
(* The analysis proper *)

(* A raw hit: a finding candidate still carrying the taint set that
   triggered it, so summary extraction can attribute it to parameters. *)
type hit = {
  h_rule : Finding.rule;
  h_loc : Location.t;
  h_message : string;
  h_short : string;
  h_taint : SSet.t;
  h_chain : Finding.frame list;
}

type state = {
  mutable vars : SSet.t IMap.t; (* ident -> secret sources it derives from *)
  mutable changed : bool;
  mutable hits : hit list;
  mutable justified : int;
  mutable flagged : int;
  mutable secrets : SSet.t; (* all seeds seen in this binding *)
  mutable metric : Finding.frame list option;
      (* chain to the first metric update this binding performs *)
  aliases : (string * string) list;
  abbrevs : (string * Types.type_expr) list; (* file-local type manifests *)
  func : string; (* display name of the binding under analysis *)
  prefix : string; (* enclosing module path, for summary resolution *)
  env : env;
}

(* Constant-time comparable: immediates plus float and the boxed ints.
   Type abbreviations ([type id = int]) are expanded syntactically —
   manifests collected from the loaded typedtrees (file-locally in
   per-module mode, through the call graph in whole-program mode) are
   followed to a bounded depth; no typing environment is rebuilt from
   the cmt.  A chain that leaves the loaded universe stays flagged
   conservatively. *)
let constant_time_comparable st (ty : Types.type_expr) =
  let rec check fuel (ty : Types.type_expr) =
    match Types.get_desc ty with
    | Types.Tconstr (p, _, _) ->
        let name = Callgraph.expand_aliases st.aliases (Path.name p) in
        List.mem name immediate_type_names
        || fuel > 0
           &&
           let manifest =
             match List.assoc_opt name st.abbrevs with
             | Some ty' -> Some ty'
             | None -> st.env.ty_abbrev ~current:st.prefix name
           in
           (match manifest with Some ty' -> check (fuel - 1) ty' | None -> false)
    | _ -> false
  in
  check 8 ty

let taint_of st id = Option.value ~default:SSet.empty (IMap.find_opt id st.vars)

let add_taint st id t =
  if not (SSet.is_empty t) then begin
    let old = taint_of st id in
    let merged = SSet.union old t in
    if not (SSet.equal old merged) then begin
      st.vars <- IMap.add id merged st.vars;
      st.changed <- true
    end
  end

let describe t = String.concat ", " (SSet.elements t)

let record st ~emit ~suppressed ?(chain = []) ?(taint = SSet.empty) ~short rule loc
    message =
  if emit then
    if suppressed then st.justified <- st.justified + 1
    else begin
      st.flagged <- st.flagged + 1;
      st.hits <-
        { h_rule = rule;
          h_loc = loc;
          h_message = message;
          h_short = short;
          h_taint = taint;
          h_chain = chain }
        :: st.hits
    end

(* A metric update reached from this binding, whatever controls it: an
   ambient secret-telemetry sink, flagged only under a caller's secret control. *)
let note_metric st ~emit ~suppressed chain =
  if emit && (not suppressed) && st.metric = None then st.metric <- Some chain

(* Root identifier of an lvalue-ish expression: strips field projections
   so that `t.shelter` mutations taint `t`. *)
let rec root_ident (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some id
  | Texp_field (e, _, _) -> root_ident e
  | _ -> None

let seed_pattern (type k) st (p : k Typedtree.general_pattern) =
  let seen_secret = ref false in
  let mark (type k) (p : k Typedtree.general_pattern) =
    (* [@secret] may sit on the pattern itself or on a constraint
       wrapper — type-constrained parameters ([(a [@secret] : node_id)])
       can file the attribute under [pat_extra] — so both attribute
       homes are consulted. *)
    let extra_attrs =
      List.concat_map (fun (_, _, attrs) -> attrs) p.Typedtree.pat_extra
    in
    if has_attr "secret" p.Typedtree.pat_attributes || has_attr "secret" extra_attrs
    then begin
      seen_secret := true;
      List.iter
        (fun id ->
          let name = Ident.name id in
          st.secrets <- SSet.add name st.secrets;
          add_taint st id (SSet.singleton name))
        (Typedtree.pat_bound_idents p)
    end
  in
  let it =
    { Tast_iterator.default_iterator with
      pat =
        (fun sub p ->
          mark p;
          Tast_iterator.default_iterator.pat sub p) }
  in
  it.pat it p;
  !seen_secret

(* Bind every variable of [p] with taint [t] (plus any [@secret] seeds). *)
let bind_pattern (type k) st (p : k Typedtree.general_pattern) t =
  ignore (seed_pattern st p);
  List.iter (fun id -> add_taint st id t) (Typedtree.pat_bound_idents p)

let callee_name st (fn : Typedtree.expression) =
  match fn.exp_desc with
  | Texp_ident (path, _, _) -> Some (normalize st.aliases (Path.name path))
  | _ -> None

(* The compiler elaborates an optional argument's default — [?(pos = 0)]
   — into [match *opt* with Some x -> x | None -> default].  The
   scrutinee is a compiler-generated ident (its name contains ['*'],
   unwritable in source) and the discriminator is whether the caller
   supplied the argument: call-site syntax, public by definition, so the
   select is not a secret branch.  Taint still flows from the supplied
   value into the bound variable through the [Some] case's pattern. *)
let optional_default_select (scrut : Typedtree.expression)
    (cases : Typedtree.computation Typedtree.case list) =
  let generated_ident =
    match scrut.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> String.contains (Ident.name id) '*'
    | _ -> false
  in
  let option_case (c : Typedtree.computation Typedtree.case) =
    c.c_guard = None
    &&
    match c.c_lhs.pat_desc with
    | Tpat_value arg -> (
        match (arg :> Typedtree.pattern).pat_desc with
        | Typedtree.Tpat_construct (_, cstr, _, _) ->
            cstr.Types.cstr_name = "Some" || cstr.Types.cstr_name = "None"
        | _ -> false)
    | _ -> false
  in
  generated_ident && List.length cases = 2 && List.for_all option_case cases

(* A justified scrutinee licenses the selection alone: the arms are still
   analyzed, under secret control. *)
let justified_guard (e : Typedtree.expression) = leak_ok e.exp_attributes = `Justified

(* [eval st ~emit ~suppressed ~ct e] returns the secret sources the value
   of [e] may derive from.  [ct] is the control taint: sources steering
   the branches enclosing [e].  [emit] is false during fixpoint rounds;
   [suppressed] is true under a justified [@leak_ok]. *)
let rec eval st ~emit ~suppressed ~ct (e : Typedtree.expression) =
  let suppressed =
    match leak_ok e.exp_attributes with
    | `Justified -> true
    | `Unjustified loc ->
        record st ~emit ~suppressed:false ~short:"empty [@leak_ok]"
          Finding.Missing_justification loc
          "[@leak_ok] requires a non-empty justification string";
        suppressed
    | `Absent -> suppressed
  in
  let eval1 = eval st ~emit ~suppressed ~ct in
  let eval_opt = function None -> SSet.empty | Some e -> eval1 e in
  let union_all = List.fold_left (fun acc e -> SSet.union acc (eval1 e)) SSet.empty in
  (* A heap allocation performed under secret control publishes the arm
     taken through the profiled allocation volume. *)
  let check_alloc what =
    if (not (SSet.is_empty ct)) && not (format_literal e) then
      record st ~emit ~suppressed ~taint:ct ~short:(what ^ " allocation")
        Finding.Secret_alloc e.exp_loc
        (Printf.sprintf
           "%s allocated under secret-dependent control flow (%s): allocation words \
            are exported in profiles"
           what (describe ct))
  in
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> taint_of st id
  | Texp_ident _ | Texp_constant _ | Texp_unreachable | Texp_instvar _
  | Texp_extension_constructor _ | Texp_new _ ->
      SSet.empty
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          let suppressed =
            match leak_ok vb.vb_attributes with
            | `Justified -> true
            | `Unjustified loc ->
                record st ~emit ~suppressed:false ~short:"empty [@leak_ok]"
                  Finding.Missing_justification loc
                  "[@leak_ok] requires a non-empty justification string";
                suppressed
            | `Absent -> suppressed
          in
          let t = eval st ~emit ~suppressed ~ct vb.vb_expr in
          bind_pattern st vb.vb_pat (SSet.union t ct))
        vbs;
      eval1 body
  | Texp_function { cases; _ } ->
      (* Analyze the body inline; the closure's own taint is whatever its
         body may evaluate to, so applying it propagates captured secrets. *)
      cases_taint st ~emit ~suppressed ~ct ~scrutinee:SSet.empty cases
  | Texp_apply (fn, args) ->
      let fn_taint = eval1 fn in
      let arg_exprs = List.filter_map (fun (_, a) -> a) args in
      let arg_taints = List.map eval1 arg_exprs in
      let name = callee_name st fn in
      let nth_taint i =
        match List.nth_opt arg_taints i with Some t -> t | None -> SSet.empty
      in
      let nth_arg i = List.nth_opt arg_exprs i in
      let summary = ref None in
      (match name with
      | None -> ()
      | Some name ->
          summary := st.env.lookup ~current:st.prefix name;
          (* A resolvable project function is described by its summary;
             the stdlib tables would otherwise misfire on bare local
             names that collide with stdlib entries (e.g. an [exit]
             helper vs Stdlib.exit).  The telemetry table is policy, not
             behavior, so it stays active either way. *)
          let table_checks = Option.is_none !summary in
          if table_checks && denylisted name then
            record st ~emit ~suppressed ~short:("call to " ^ name)
              Finding.Effectful_call e.exp_loc
              (Printf.sprintf "call to ambient-effect function %s from oblivious code"
                 name);
          (match length_sensitive name with
          | Some i when table_checks && not (SSet.is_empty (nth_taint i)) ->
              record st ~emit ~suppressed ~taint:(nth_taint i)
                ~short:("length argument to " ^ name) Finding.Secret_length e.exp_loc
                (Printf.sprintf "length given to %s depends on secrets: %s" name
                   (describe (nth_taint i)))
          | _ -> ());
          (match iterator name with
          | Some i when table_checks && not (SSet.is_empty (nth_taint i)) ->
              record st ~emit ~suppressed ~taint:(nth_taint i)
                ~short:("trip count of " ^ name) Finding.Secret_loop e.exp_loc
                (Printf.sprintf
                   "%s iterates a container derived from secrets (%s): the trip \
                    count leaks"
                   name
                   (describe (nth_taint i)))
          | _ -> ());
          if compare_like name then begin
            let boxed_tainted =
              List.mapi (fun i arg -> (nth_taint i, arg)) arg_exprs
              |> List.filter (fun (t, (arg : Typedtree.expression)) ->
                     (not (SSet.is_empty t))
                     && not (constant_time_comparable st arg.exp_type))
            in
            match boxed_tainted with
            | [] -> ()
            | _ :: _ ->
                let t =
                  List.fold_left
                    (fun acc (t, _) -> SSet.union acc t)
                    SSet.empty boxed_tainted
                in
                record st ~emit ~suppressed ~taint:t
                  ~short:("variable-time " ^ name) Finding.Secret_compare e.exp_loc
                  (Printf.sprintf
                     "%s on a non-immediate secret value (%s): structural \
                      compare/hash is variable-time"
                     name (describe t))
          end;
          (match mutator name with
          | Some i when table_checks -> (
              let payload =
                List.fold_left SSet.union ct
                  (List.filteri (fun j _ -> j <> i) arg_taints)
              in
              match nth_arg i with
              | Some container when not (SSet.is_empty payload) -> (
                  match root_ident container with
                  | Some id -> add_taint st id payload
                  | None -> ())
              | _ -> ())
          | _ -> ());
          (match telemetry name with
          | Some payload_idxs ->
              note_metric st ~emit ~suppressed
                [ Finding.frame_of_location ~func:st.func ~note:("call to " ^ name)
                    e.exp_loc ];
              let payload =
                List.fold_left
                  (fun acc i -> SSet.union acc (nth_taint i))
                  SSet.empty payload_idxs
              in
              if not (SSet.is_empty payload) then
                record st ~emit ~suppressed ~taint:payload
                  ~short:("telemetry payload to " ^ name) Finding.Secret_telemetry
                  e.exp_loc
                  (Printf.sprintf "value recorded via %s depends on secrets: %s" name
                     (describe payload))
              else if not (SSet.is_empty ct) then
                record st ~emit ~suppressed ~taint:ct
                  ~short:("metric update " ^ name ^ " under secret control")
                  Finding.Secret_telemetry e.exp_loc
                  (Printf.sprintf
                     "metric update %s under secret-dependent control flow: %s" name
                     (describe ct))
          | None -> ());
          if List.mem name raise_like then begin
            let payload = List.fold_left SSet.union SSet.empty arg_taints in
            if not (SSet.is_empty payload) then
              record st ~emit ~suppressed ~taint:payload
                ~short:("exception payload to " ^ name) Finding.Secret_exception
                e.exp_loc
                (Printf.sprintf "exception payload carries secrets: %s"
                   (describe payload))
          end;
          (* assignment through a reference *)
          if name = ":=" || name = "incr" || name = "decr" then begin
            let payload =
              SSet.union ct
                (match name with ":=" -> nth_taint 1 | _ -> SSet.empty)
            in
            match Option.bind (nth_arg 0) root_ident with
            | Some id -> add_taint st id payload
            | None -> ()
          end;
          (* Interprocedural: apply the callee's summary. *)
          (match !summary with
          | None -> ()
          | Some sum ->
              let call_frame note =
                Finding.frame_of_location ~func:st.func ~note e.exp_loc
              in
              List.iter
                (fun sk ->
                  let chain = call_frame ("calls " ^ sum.sum_name) :: sk.sk_chain in
                  if sk.sk_param < 0 && sk.sk_rule = Finding.Secret_telemetry then begin
                    note_metric st ~emit ~suppressed chain;
                    if not (SSet.is_empty ct) then
                      record st ~emit ~suppressed ~chain ~taint:ct ~short:sk.sk_short
                        sk.sk_rule e.exp_loc
                        (Printf.sprintf
                           "call to %s updates a metric under secret-dependent \
                            control flow: %s"
                           sum.sum_name (describe ct))
                  end
                  else if sk.sk_param < 0 then
                    record st ~emit ~suppressed ~chain ~short:sk.sk_short sk.sk_rule
                      e.exp_loc
                      (Printf.sprintf
                         "call to %s transitively reaches an ambient-effect sink \
                          (%s)"
                         sum.sum_name sk.sk_short)
                  else
                    let t = nth_taint sk.sk_param in
                    if not (SSet.is_empty t) then
                      record st ~emit ~suppressed ~chain ~taint:t ~short:sk.sk_short
                        sk.sk_rule e.exp_loc
                        (Printf.sprintf
                           "argument %d of %s carries secrets (%s) into a %s sink \
                            (%s)"
                           sk.sk_param sum.sum_name (describe t)
                           (Finding.rule_slug sk.sk_rule)
                           sk.sk_short))
                sum.sum_sinks;
              List.iter
                (fun (i, srcs) ->
                  let payload =
                    List.fold_left
                      (fun acc j -> SSet.union acc (nth_taint j))
                      ct srcs
                  in
                  match nth_arg i with
                  | Some container when not (SSet.is_empty payload) -> (
                      match root_ident container with
                      | Some id -> add_taint st id payload
                      | None -> ())
                  | _ -> ())
                sum.sum_mutations));
      (* Result taint: with a summary, only the parameters that flow to
         the return value contribute; otherwise every argument does. *)
      (match !summary with
      | Some sum when List.length arg_exprs >= sum.sum_arity ->
          List.fold_left
            (fun acc i -> SSet.union acc (nth_taint i))
            fn_taint sum.sum_ret_params
      | _ -> List.fold_left SSet.union fn_taint arg_taints)
  | Texp_match (scrut, cases, _) ->
      let t = eval1 scrut in
      let default_select = optional_default_select scrut cases in
      if
        (not (SSet.is_empty t))
        && (not (trivial_match cases))
        && not default_select
      then
        record st ~emit ~suppressed:(suppressed || justified_guard scrut) ~taint:t
          ~short:"match scrutinee"
          Finding.Secret_branch e.exp_loc
          (Printf.sprintf "match scrutinee depends on secrets: %s" (describe t));
      (* A default-select's arm choice is call-site syntax, so the arms
         are not under secret control; every other match taints them. *)
      let ct' = if default_select then ct else SSet.union ct t in
      SSet.union t (cases_taint st ~emit ~suppressed ~ct:ct' ~scrutinee:t cases)
  | Texp_try (body, cases) ->
      let t = eval1 body in
      SSet.union t (cases_taint st ~emit ~suppressed ~ct ~scrutinee:t cases)
  | Texp_ifthenelse (cond, th, el) ->
      let t = eval1 cond in
      if not (SSet.is_empty t) then
        record st ~emit ~suppressed ~taint:t ~short:"conditional guard"
          Finding.Secret_branch e.exp_loc
          (Printf.sprintf "conditional guard depends on secrets: %s" (describe t));
      let ct' = SSet.union ct t in
      let tb = eval st ~emit ~suppressed ~ct:ct' th in
      let eb =
        match el with
        | None -> SSet.empty
        | Some el -> eval st ~emit ~suppressed ~ct:ct' el
      in
      SSet.union t (SSet.union tb eb)
  | Texp_while (cond, body) ->
      let t = eval1 cond in
      if not (SSet.is_empty t) then
        record st ~emit ~suppressed ~taint:t ~short:"while-loop guard"
          Finding.Secret_branch e.exp_loc
          (Printf.sprintf "while-loop guard depends on secrets: %s" (describe t));
      ignore (eval st ~emit ~suppressed ~ct:(SSet.union ct t) body);
      SSet.empty
  | Texp_for (id, _, lo, hi, _, body) ->
      let t = SSet.union (eval1 lo) (eval1 hi) in
      if not (SSet.is_empty t) then
        record st ~emit ~suppressed ~taint:t ~short:"for-loop bound"
          Finding.Secret_branch e.exp_loc
          (Printf.sprintf "for-loop bound depends on secrets: %s" (describe t));
      add_taint st id (SSet.union ct t);
      ignore (eval st ~emit ~suppressed ~ct:(SSet.union ct t) body);
      SSet.empty
  | Texp_sequence (a, b) ->
      ignore (eval1 a);
      eval1 b
  | Texp_tuple es ->
      check_alloc "tuple";
      union_all es
  | Texp_array es ->
      if es <> [] then check_alloc "array";
      union_all es
  | Texp_construct (_, _, es) ->
      (* Constant constructors carry no arguments and don't allocate. *)
      if es <> [] then check_alloc "constructor";
      union_all es
  | Texp_variant (_, eo) ->
      if eo <> None then check_alloc "variant";
      eval_opt eo
  | Texp_record { fields; extended_expression; _ } ->
      check_alloc "record";
      let t =
        Array.fold_left
          (fun acc (_, def) ->
            match def with
            | Typedtree.Overridden (_, e) -> SSet.union acc (eval1 e)
            | Typedtree.Kept _ -> acc)
          SSet.empty fields
      in
      SSet.union t (eval_opt extended_expression)
  | Texp_field (e, _, _) -> eval1 e
  | Texp_setfield (target, _, _, value) ->
      let tv = SSet.union ct (eval1 value) in
      ignore (eval1 target);
      (match root_ident target with
      | Some id -> add_taint st id tv
      | None -> ());
      SSet.empty
  | Texp_assert (cond, _) ->
      let t = eval1 cond in
      if not (SSet.is_empty t) then
        record st ~emit ~suppressed ~taint:t ~short:"assertion" Finding.Secret_branch
          e.exp_loc
          (Printf.sprintf "assertion depends on secrets: %s" (describe t));
      SSet.empty
  | Texp_lazy e -> eval1 e
  | Texp_letmodule (_, _, _, _, body) | Texp_open (_, body) -> eval1 body
  | Texp_letexception (_, body) -> eval1 body
  | Texp_letop { let_; ands; body; _ } ->
      let t =
        List.fold_left
          (fun acc (bop : Typedtree.binding_op) -> SSet.union acc (eval1 bop.bop_exp))
          (eval1 let_.bop_exp) ands
      in
      bind_pattern st body.c_lhs (SSet.union ct t);
      SSet.union t (eval1 body.c_rhs)
  | Texp_send (obj, _) -> eval1 obj
  | Texp_setinstvar (_, _, _, e) ->
      ignore (eval1 e);
      SSet.empty
  | Texp_override (_, overrides) ->
      List.fold_left (fun acc (_, _, e) -> SSet.union acc (eval1 e)) SSet.empty overrides
  | Texp_object _ | Texp_pack _ -> SSet.empty

and cases_taint :
    type k.
    state ->
    emit:bool ->
    suppressed:bool ->
    ct:SSet.t ->
    scrutinee:SSet.t ->
    k Typedtree.case list ->
    SSet.t =
 fun st ~emit ~suppressed ~ct ~scrutinee cases ->
  List.fold_left
    (fun acc (c : _ Typedtree.case) ->
      bind_pattern st c.c_lhs (SSet.union ct scrutinee);
      (match c.c_guard with Some g -> ignore (eval st ~emit ~suppressed ~ct g) | None -> ());
      SSet.union acc (eval st ~emit ~suppressed ~ct c.c_rhs))
    SSet.empty cases

(* `match e with x -> ...` with a single catch-all value case selects
   nothing, so a tainted scrutinee is not a branch leak there. *)
and trivial_match (cases : Typedtree.computation Typedtree.case list) =
  match cases with
  | [ { c_lhs = { pat_desc = Tpat_value arg; _ }; c_guard = None; _ } ] -> (
      match (arg :> Typedtree.pattern).pat_desc with
      | Typedtree.Tpat_var _ | Typedtree.Tpat_any -> true
      | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-binding drivers *)

let new_state ?(env = empty_env) ?(prefix = "") ?(abbrevs = []) ~aliases ~func () =
  { vars = IMap.empty;
    changed = false;
    hits = [];
    justified = 0;
    flagged = 0;
    secrets = SSet.empty;
    metric = None;
    aliases;
    abbrevs;
    func;
    prefix;
    env }

let finding_of_hit st (h : hit) =
  Finding.of_location ~chain:h.h_chain ~rule:h.h_rule ~func:st.func ~message:h.h_message
    h.h_loc

let run_to_fixpoint st ~suppressed (expr : Typedtree.expression) =
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 16 do
    st.changed <- false;
    ignore (eval st ~emit:false ~suppressed ~ct:SSet.empty expr);
    incr rounds;
    if not st.changed then continue_ := false
  done;
  eval st ~emit:true ~suppressed ~ct:SSet.empty expr

let audit_of st (vb : Typedtree.value_binding) =
  { Finding.a_file = vb.vb_loc.loc_start.pos_fname;
    a_line = vb.vb_loc.loc_start.pos_lnum;
    a_func = st.func;
    secrets = SSet.elements st.secrets;
    justified = st.justified;
    flagged = st.flagged }

let analyze_binding ?env ?prefix ?abbrevs ?func ~aliases (vb : Typedtree.value_binding)
    =
  let func =
    match func with
    | Some f -> f
    | None -> (
        match vb.vb_pat.pat_desc with
        | Tpat_var (id, _) -> Ident.name id
        | _ -> "<binding>")
  in
  let st = new_state ?env ?prefix ?abbrevs ~aliases ~func () in
  let suppressed =
    match leak_ok vb.vb_attributes with
    | `Justified -> true
    | `Unjustified _ | `Absent -> false
  in
  ignore (run_to_fixpoint st ~suppressed vb.vb_expr);
  (List.rev_map (finding_of_hit st) st.hits, audit_of st vb)

(* ------------------------------------------------------------------ *)
(* Summary extraction: seed every leading parameter with a #p<i> token,
   run the same analysis, and read off which tokens reached the return
   value, a sink, or another parameter's container. *)

let summarize ~env (fn : Callgraph.fn) =
  let vb = fn.Callgraph.fn_binding in
  let st =
    new_state ~env ~prefix:fn.Callgraph.fn_prefix ~aliases:fn.Callgraph.fn_aliases
      ~func:fn.Callgraph.fn_name ()
  in
  let suppressed =
    match leak_ok vb.vb_attributes with
    | `Justified -> true
    | `Unjustified _ | `Absent -> false
  in
  (* Peel the leading [fun] layers, seeding one token per parameter.  A
     multi-case [function] layer both binds its patterns and *is* a
     dispatch on that parameter. *)
  let param_roots = ref [] in
  let rec peel i (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { cases = [ ({ c_guard = None; _ } as c) ]; _ } ->
        let tok = SSet.singleton (param_token i) in
        param_roots := (i, Typedtree.pat_bound_idents c.c_lhs) :: !param_roots;
        bind_pattern st c.c_lhs tok;
        peel (i + 1) c.c_rhs
    | Texp_function { cases; _ } when List.length cases > 1 ->
        let tok = SSet.singleton (param_token i) in
        List.iter (fun (c : _ Typedtree.case) -> bind_pattern st c.c_lhs tok) cases;
        record st ~emit:true ~suppressed ~taint:tok ~short:"function dispatch"
          Finding.Secret_branch e.exp_loc
          (Printf.sprintf "parameter %d is dispatched on by a multi-case function" i);
        (i + 1, e)
    | _ -> (i, e)
  in
  let arity, body = peel 0 vb.vb_expr in
  (* The dispatch hit recorded during peeling must survive the fixpoint
     rounds; [run_to_fixpoint] only appends on the final emit pass, and
     peeling already ran with emit:true, so nothing is lost. *)
  let ret = run_to_fixpoint st ~suppressed body in
  let params_of set =
    SSet.fold
      (fun s acc -> match param_of_token s with Some i -> i :: acc | None -> acc)
      set []
    |> List.sort_uniq Int.compare
  in
  let sinks = ref [] in
  let seen = Hashtbl.create 8 in
  let push sk =
    let key = (sk.sk_param, sk.sk_rule) in
    if (not (Hashtbl.mem seen key)) && List.length !sinks < 16 then begin
      Hashtbl.add seen key ();
      sinks := sk :: !sinks
    end
  in
  List.iter
    (fun h ->
      let chain =
        match h.h_chain with
        | [] ->
            [ Finding.frame_of_location ~func:fn.Callgraph.fn_name ~note:h.h_short
                h.h_loc ]
        | chain -> chain
      in
      match params_of h.h_taint with
      | [] ->
          if h.h_rule = Finding.Effectful_call then
            push { sk_param = -1; sk_rule = h.h_rule; sk_short = h.h_short; sk_chain = chain }
      | params ->
          List.iter
            (fun i ->
              push { sk_param = i; sk_rule = h.h_rule; sk_short = h.h_short; sk_chain = chain })
            params)
    (List.rev st.hits);
  Option.iter
    (fun sk_chain ->
      push { sk_param = -1; sk_rule = Secret_telemetry; sk_short = "metric update"; sk_chain })
    st.metric;
  let mutations =
    List.filter_map
      (fun (i, ids) ->
        let absorbed =
          List.fold_left (fun acc id -> SSet.union acc (taint_of st id)) SSet.empty ids
          |> params_of
          |> List.filter (fun j -> j <> i)
        in
        if absorbed = [] then None else Some (i, absorbed))
      !param_roots
  in
  { sum_name = fn.Callgraph.fn_name;
    sum_arity = arity;
    sum_ret_params = params_of ret;
    sum_sinks = List.rev !sinks;
    sum_mutations = mutations }

(* Convergence measure for the interprocedural fixpoint: chains and
   messages may deepen without changing *which* flows exist. *)
let summary_shape s =
  ( s.sum_ret_params,
    List.map (fun sk -> (sk.sk_param, sk.sk_rule)) s.sum_sinks,
    s.sum_mutations )

(* ------------------------------------------------------------------ *)
(* Structure walking (per-module mode, used by [Lint.analyze_cmt]) *)

let rec analyze_items ?(env = empty_env) ?(abbrevs = []) ~aliases items =
  let findings = ref [] and audits = ref [] in
  let aliases = ref aliases in
  let abbrevs = ref abbrevs in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_type (_, decls) ->
          (* file-local abbreviation manifests feed the secret-compare
             exemption (bare names: types are referenced unqualified
             within their own module) *)
          List.iter
            (fun (td : Typedtree.type_declaration) ->
              match td.typ_manifest with
              | Some cty -> abbrevs := (td.typ_name.txt, cty.ctyp_type) :: !abbrevs
              | None -> ())
            decls
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              if has_attr "oblivious" vb.vb_attributes then begin
                let fs, a =
                  analyze_binding ~env ~abbrevs:!abbrevs ~aliases:!aliases vb
                in
                findings := !findings @ fs;
                audits := !audits @ [ a ]
              end)
            vbs
      | Tstr_module mb -> (
          match module_payload mb with
          | `Alias (name, target) -> aliases := (name, target) :: !aliases
          | `Structure (name, items) ->
              let fs, au =
                analyze_items ~env ~abbrevs:!abbrevs ~aliases:!aliases items
              in
              let qualify (f : Finding.t) = { f with func = name ^ "." ^ f.func } in
              findings := !findings @ List.map qualify fs;
              audits :=
                !audits
                @ List.map
                    (fun (a : Finding.audit) ->
                      { a with Finding.a_func = name ^ "." ^ a.a_func })
                    au
          | `Other -> ())
      | Tstr_recmodule mbs ->
          List.iter
            (fun mb ->
              match module_payload mb with
              | `Structure (name, items) ->
                  let fs, au =
                    analyze_items ~env ~abbrevs:!abbrevs ~aliases:!aliases items
                  in
                  findings :=
                    !findings
                    @ List.map (fun (f : Finding.t) -> { f with func = name ^ "." ^ f.func }) fs;
                  audits :=
                    !audits
                    @ List.map
                        (fun (a : Finding.audit) ->
                          { a with Finding.a_func = name ^ "." ^ a.a_func })
                        au
              | _ -> ())
            mbs
      | _ -> ())
    items;
  (!findings, !audits)

and module_payload (mb : Typedtree.module_binding) =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  let rec strip (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_constraint (me, _, _, _) -> strip me
    | desc -> desc
  in
  match strip mb.mb_expr with
  | Tmod_ident (p, _) -> `Alias (name, Path.name p)
  | Tmod_structure { str_items; _ } -> `Structure (name, str_items)
  | _ -> `Other

let analyze_structure ?env (str : Typedtree.structure) =
  analyze_items ?env ~aliases:[] str.str_items

(* Whole-program mode: analyze one indexed function with fully qualified
   naming and an interprocedural environment. *)
let analyze_fn ~env (fn : Callgraph.fn) =
  analyze_binding ~env ~prefix:fn.Callgraph.fn_prefix ~func:fn.Callgraph.fn_name
    ~aliases:fn.Callgraph.fn_aliases fn.Callgraph.fn_binding

(* Whole-program mode: an [external] runs foreign code that no typedtree
   describes, and a call into it is an unknown callee with a clean
   summary.  The declaration is therefore the audit point: it must carry
   [@@leak_ok "reason"] saying why that code is oblivious.  A justified
   one counts as one justified site under the external's name. *)
let analyze_external (ex : Callgraph.ext) =
  let p = ex.ext_loc.loc_start in
  let audit ~justified =
    { Finding.a_file = p.pos_fname;
      a_line = p.pos_lnum;
      a_func = ex.ext_name;
      secrets = [];
      justified;
      flagged = 1 - justified }
  in
  let finding rule loc message = Finding.of_location ~rule ~func:ex.ext_name ~message loc in
  let unjustified =
    finding Finding.Foreign_primitive ex.ext_loc
      (Printf.sprintf
         "external binds foreign code %S that the analysis cannot see; state why \
          it is oblivious with [@@leak_ok \"reason\"]"
         ex.ext_prim)
  in
  match leak_ok ex.ext_attrs with
  | `Justified -> ([], audit ~justified:1)
  | `Absent -> ([ unjustified ], audit ~justified:0)
  | `Unjustified loc ->
      ( [ finding Finding.Missing_justification loc
            "[@leak_ok] requires a non-empty justification string";
          unjustified ],
        audit ~justified:0 )
