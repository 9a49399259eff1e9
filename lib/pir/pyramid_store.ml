module Obs = Psp_obs.Obs

type physical_event =
  | Slot of { level : int; epoch : int; slot : int }
  | Rebuild of { level : int; items : int }

(* Telemetry: a pyramid read touches exactly one slot per level, and the
   flush/rebuild cadence is a public function of the query count — both
   safe to count.  Where a page was found (SCP cache, an earlier chunk
   member, or which level) depends on which pages were requested, so no
   counter may follow that decision (see docs/OBSERVABILITY.md). *)
let m_slot_reads = Obs.counter "oram.pyramid.slot_reads"
let m_rebuilds = Obs.counter "oram.pyramid.rebuilds"
let m_flushes = Obs.counter "oram.pyramid.flushes"

(* A merged level scan is one sequential sweep over a level's epoch that
   serves every probe of a batch chunk at once.  Its count is a public
   function of the access count and the (public) batch width, so it is
   safe to export — it is the executed-side evidence of the batch
   amortization the cost model charges. *)
let m_level_scans = Obs.counter "oram.pyramid.level_scans"

(* Level j holds at most [cap] items in [cap + dummies] encrypted slots
   scattered by a per-epoch Feistel permutation; the [assign] table, in
   SCP memory, answers membership.  The slot buffers are allocated once:
   every rebuild rewrites each of them in place. *)
type level = {
  depth : int;
  cap : int;     (* item capacity *)
  dummies : int; (* dummy slots = queries served between rebuilds (+slack) *)
  mutable epoch : int;
  mutable assign : (int, int) Hashtbl.t; (* logical id -> slot *)
  mutable contents : (int, bytes) Hashtbl.t; (* logical id -> plaintext *)
  slots : bytes array; (* cap + dummies buffers of page_size bytes *)
  mutable enc_key : bytes; (* the epoch's slot encryption key *)
  mutable perm : Psp_crypto.Feistel.t;
  mutable dummy_cursor : int;
}

type t = {
  master_key : bytes;
  n : int;
  cache_capacity : int;
  mutable cache : (int * bytes) list; (* newest first; may hold duplicates *)
  levels : level array; (* shallow (index 0 = level 1) to deep *)
  mutable queries : int;
  mutable flushes : int;
  mutable slot_touches : int; (* physical slots touched (trace Slot events) *)
  mutable scans : int; (* merged level scans executed (sweeps per level per chunk) *)
  trace : physical_event Psp_util.Dyn_array.t;
  nonce : bytes; (* scratch: the 12-byte nonce of the slot in hand *)
}

let level_key t level =
  Psp_crypto.Hmac.derive ~key:t.master_key
    ~label:(Printf.sprintf "level-%d-epoch-%d" level.depth level.epoch)

(* a slot's nonce is its index as 8 little-endian bytes, then 4 zeros *)
let set_nonce t slot = Bytes.set_int64_le t.nonce 0 (Int64.of_int slot)

(* (Re)build a level from plaintext contents under fresh per-epoch keys:
   items land on permuted slots, and every slot is rewritten in place under the new key.  Point i of the
   permutation takes the i-th item (sorted ids); past the items — unused
   item slots and dummies alike — slots hold encrypted zeros, the
   keystream.  No slot is skipped or left lazy. *)
let rebuild t level contents =
  Obs.incr m_rebuilds;
  level.epoch <- level.epoch + 1;
  let key = level_key t level in
  let perm_key = Psp_crypto.Hmac.derive ~key ~label:"perm" in
  level.enc_key <- Psp_crypto.Hmac.derive ~key ~label:"enc";
  let domain = Array.length level.slots in
  level.perm <- Psp_crypto.Feistel.create ~key:perm_key ~domain;
  level.assign <- Hashtbl.create (max 8 (Hashtbl.length contents));
  level.contents <- contents;
  level.dummy_cursor <- 0;
  (* deterministic item order: sorted logical ids *)
  let ids =
    Array.of_list (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) contents []))
  in
  (* the message names the level and its public capacity only: the live
     item count reflects which pages were accessed this epoch *)
  if Array.length ids > level.cap then
    invalid_arg
      (Printf.sprintf "Pyramid_store: level %d overflow (cap %d exceeded)" level.depth
         level.cap);
  for i = 0 to domain - 1 do
    let slot = Psp_crypto.Feistel.forward level.perm i in
    set_nonce t slot;
    if i < Array.length ids then begin
      let id = ids.(i) in
      Hashtbl.replace level.assign id slot;
      Psp_crypto.Chacha20.encrypt_into ~key:level.enc_key ~nonce:t.nonce
        ~src:(Hashtbl.find contents id) level.slots.(slot)
    end
    else Psp_crypto.Chacha20.keystream_into ~key:level.enc_key ~nonce:t.nonce level.slots.(slot)
  done;
  Psp_util.Dyn_array.push t.trace (Rebuild { level = level.depth; items = domain })
  [@@oblivious]

let default_cache_capacity = 4

let create ?(cache_capacity = default_cache_capacity) ~key file =
  let n = Psp_storage.Page_file.page_count file in
  if n = 0 then invalid_arg "Pyramid_store.create: empty file";
  if cache_capacity < 1 then invalid_arg "Pyramid_store.create: cache_capacity >= 1";
  let c = cache_capacity in
  (* deepest level must hold all n pages: cap_L = c * 4^L >= n.  The
     formula lives in Cost_model so the simulated batch cost and this
     layout can never drift apart. *)
  let deepest = Cost_model.pyramid_levels ~cache_capacity:c ~file_pages:n in
  let page_size = Psp_storage.Page_file.page_size file in
  let make_level depth =
    let cap, dummies = Cost_model.pyramid_level ~cache_capacity:c ~file_pages:n ~depth in
    { depth;
      cap;
      dummies;
      epoch = 0;
      assign = Hashtbl.create 8;
      contents = Hashtbl.create 8;
      slots = Array.init (cap + dummies) (fun _ -> Bytes.create page_size);
      enc_key = Bytes.empty;
      perm = Psp_crypto.Feistel.create ~key ~domain:1;
      dummy_cursor = 0 }
  in
  let t =
    { master_key =
        Psp_crypto.Hmac.derive ~key
          ~label:("pyramid:" ^ Psp_storage.Page_file.name file);
      n;
      cache_capacity = c;
      cache = [];
      levels = Array.init deepest (fun i -> make_level (i + 1));
      queries = 0;
      flushes = 0;
      slot_touches = 0;
      scans = 0;
      trace = Psp_util.Dyn_array.create ();
      nonce = Bytes.make 12 '\000' }
  in
  (* initial load: everything lives in the deepest level *)
  let all = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace all i (Psp_storage.Page_file.read file i)
  done;
  Array.iter (fun level -> rebuild t level (Hashtbl.create 8)) t.levels;
  rebuild t t.levels.(deepest - 1) all;
  Psp_util.Dyn_array.clear t.trace;
  t

let page_count t = t.n
let level_count t = Array.length t.levels
let cache_capacity t = t.cache_capacity

(* Reserve the level's next unused dummy slot (the planning half of the
   old touch_dummy; the physical touch happens in the merged sweep). *)
let plan_dummy level =
  if level.dummy_cursor >= level.dummies then
    invalid_arg
      (Printf.sprintf "Pyramid_store: level %d dummy budget exhausted" level.depth);
  let slot = Psp_crypto.Feistel.forward level.perm (level.cap + level.dummy_cursor) in
  level.dummy_cursor <- level.dummy_cursor + 1;
  slot
  [@@oblivious]

(* base-4 merge counter: flush f lands in level 1 + (times 4 divides f) *)
let merge_target t =
  let rec count f acc = if f mod 4 = 0 then count (f / 4) (acc + 1) else acc in
  min (Array.length t.levels) (1 + count t.flushes 0)

let flush t =
  Obs.incr m_flushes;
  t.flushes <- t.flushes + 1;
  let target = merge_target t in
  let merged = Hashtbl.create 64 in
  (* newest copy wins: cache (newest first), then shallow to deep *)
  List.iter (fun (id, page) -> if not (Hashtbl.mem merged id) then Hashtbl.replace merged id page) t.cache;
  for j = 0 to target - 1 do
    let level = t.levels.(j) in
    Hashtbl.iter
      (fun id page -> if not (Hashtbl.mem merged id) then Hashtbl.replace merged id page)
      level.contents
  done;
  (* rebuild the target with everything; empty the levels above it *)
  rebuild t t.levels.(target - 1) merged;
  for j = 0 to target - 2 do
    rebuild t t.levels.(j) (Hashtbl.create 8)
  done;
  t.cache <- []
  [@@oblivious]

(* Where a chunk member's page comes from, decided in the planning walk:
   the SCP cache, an earlier member of the same chunk (which reads it on
   the member's behalf), or a level of the pyramid. *)
type source = From_cache | From_member of int | From_level

(* Serve a width-k batch with one merged sweep per level.  The batch is
   cut into chunks at the flush cadence (a flush re-keys every level, so
   probes across it cannot share an epoch's scan); within a chunk the
   walk is split into a planning half — decide, per member in order,
   which slot each level touch lands on, consuming dummy cursors exactly
   as k sequential reads would — and an execution half that performs one
   sequential sweep per level over the planned slots, in member order.
   Hence each member's slot touches are byte-identical to the sequential
   execution's, while the host serves k probes of a level with a single
   scan of its epoch (one key schedule). *)
(* The array itself is not marked secret — its length (the batch width)
   is public, and the loop structure below depends only on it and on the
   access count; the page indices inside are marked [@secret] where they
   are read out, exactly as Server.Session.fetch_batch treats its
   request array. *)
let fetch_many t ids =
  let k = Array.length ids in
  let nlevels = Array.length t.levels in
  (* constant per-read delta fixed by the public layout: one slot per
     level per member *)
  (Obs.add m_slot_reads (k * nlevels))
  [@leak_ok
    "the level count is the store's public layout (a function of n and the cache \
     capacity) and the batch width is public, not a function of which pages were \
     accessed"];
  (Array.iter
     (fun (id [@secret]) ->
       if id < 0 || id >= t.n then invalid_arg "Pyramid_store.fetch_many: page out of range")
     ids)
  [@leak_ok
    "bounds check fails closed with a constant message before any slot is touched; \
     the trip count is the public batch width"];
  let results = Array.make k Bytes.empty in
  let rec serve base =
    if base >= k then ()
    else begin
    (* the chunk ends at the next flush boundary: queries is public, so
       the chunk lengths are a function of the access count and width *)
    let chunk = min (k - base) (t.cache_capacity - (t.queries mod t.cache_capacity)) in
    (* -- plan: one decision walk per member, in member order.
       plans.(m).(l) is the slot member m touches at level l; real.(m)
       is the level holding m's page (-1 when cached or supplied by an
       earlier member), and sources.(m) routes the payload. *)
    let plans =
      (Array.make_matrix chunk nlevels 0)
      [@leak_ok
        "the chunk length is a public function of the access count and the batch \
         width (the flush cadence), never of which pages were accessed"]
    in
    let real =
      (Array.make chunk (-1))
      [@leak_ok "sized by the public chunk length, as above"]
    in
    let sources =
      (Array.make chunk From_level)
      [@leak_ok "sized by the public chunk length, as above"]
    in
    let pending =
      (Hashtbl.create (2 * chunk))
      [@leak_ok "sized by the public chunk length, as above"]
    in
    (for m = 0 to chunk - 1 do
      let (id [@secret]) = ids.(base + m) in
      let found = ref false in
      (match Hashtbl.find_opt pending id with
      | Some m' ->
          sources.(m) <- From_member m';
          found := true
      | None ->
          if List.mem_assoc id t.cache then begin
            sources.(m) <- From_cache;
            found := true
          end
          else Hashtbl.replace pending id m)
      [@leak_ok
        "both the pending table and the SCP cache are client-side state; the chosen \
         source only routes the decrypted payload and never changes how many slots \
         the walk below reserves"];
      (Array.iteri
         (fun l level ->
           if !found then plans.(m).(l) <- plan_dummy level
           else
             match Hashtbl.find_opt level.assign id with
             | Some slot ->
                 found := true;
                 real.(m) <- l;
                 plans.(m).(l) <- slot
             | None -> plans.(m).(l) <- plan_dummy level)
         t.levels)
      [@leak_ok
        "every level reserves exactly one slot per member — the real slot on the \
         first hit, a fresh dummy otherwise — so the per-level slot sequence is \
         independent of the page"];
      (if not !found then failwith "Pyramid_store: page lost (invariant violation)")
      [@leak_ok "a lost page is an invariant violation; fails closed with a constant message"]
    done)
    [@leak_ok
      "one planning decision per chunk member: the trip count is the public chunk \
       length, and every decision reserves exactly one slot per level either way"];
    (* -- execute: one merged sweep per level over the planned slots, in
       member order, so the per-member event subsequence equals the
       sequential trace while the level is scanned once per chunk *)
    (Array.iteri
       (fun l level ->
         t.scans <- t.scans + 1;
         Obs.incr m_level_scans;
         for m = 0 to chunk - 1 do
           let slot = plans.(m).(l) in
           t.slot_touches <- t.slot_touches + 1;
           Psp_util.Dyn_array.push t.trace
             (Slot { level = level.depth; epoch = level.epoch; slot });
           (if real.(m) = l then
              results.(base + m) <- begin
                set_nonce t slot;
                Psp_crypto.Chacha20.decrypt ~key:level.enc_key ~nonce:t.nonce
                  level.slots.(slot)
              end)
           [@leak_ok
             "the slot touch the host observes happens either way; only the \
              client-side decryption of the already-planned slot is skipped for \
              dummies, exactly as in the sequential walk"]
         done)
       t.levels)
    [@leak_ok
      "the sweep runs once per level per chunk — level count and chunk length are \
       both public — and touches the chunk's pre-planned slot in each step; the \
       scan counter it reports is likewise a function of those public quantities"];
    (* -- retire the chunk in member order, reproducing the sequential
       cache growth and flush cadence *)
    (for m = 0 to chunk - 1 do
       let (id [@secret]) = ids.(base + m) in
       (match sources.(m) with
       | From_level -> ()
       | From_cache -> results.(base + m) <- List.assoc id t.cache
       | From_member m' -> results.(base + m) <- results.(base + m'))
       [@leak_ok
         "payload routing between client-side copies; the host saw one slot per \
          level for this member regardless of the source"];
       t.cache <- (id, results.(base + m)) :: t.cache;
       t.queries <- t.queries + 1;
       (if t.queries mod t.cache_capacity = 0 then flush t)
       [@leak_ok
         "the query counter advances by one per read, so the flush-and-rebuild cadence \
          is a public function of the access count alone"]
     done)
    [@leak_ok
      "payload retirement in member order: the trip count is the public chunk \
       length and the host-visible flush cadence depends on the access count alone"];
    serve (base + chunk)
    end
  in
  serve 0;
  results
  [@@oblivious]

let read t (id [@secret]) =
  (if id < 0 || id >= t.n then invalid_arg "Pyramid_store.read: page out of range")
  [@leak_ok "bounds check fails closed with a constant message before any slot is touched"];
  ((fetch_many t [| id |]).(0))
  [@leak_ok
    "a width-1 merged pass: fetch_many's loop structure depends only on the public \
     batch width (here 1) and the access count, never on the page index"]
  [@@oblivious]

(* what the host stores: per level, its epoch and every slot's bytes *)
let host_digest t =
  let ctx = Psp_crypto.Sha256.init () in
  let epoch = Bytes.create 8 in
  Array.iter
    (fun level ->
      Bytes.set_int64_le epoch 0 (Int64.of_int level.epoch);
      Psp_crypto.Sha256.feed ctx epoch;
      Array.iter (Psp_crypto.Sha256.feed ctx) level.slots)
    t.levels;
  Psp_crypto.Sha256.finalize ctx

let physical_trace t = Psp_util.Dyn_array.to_list t.trace
let clear_trace t = Psp_util.Dyn_array.clear t.trace
let slot_touches t = t.slot_touches
let level_scans t = t.scans
