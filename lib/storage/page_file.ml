module Obs = Psp_obs.Obs

(* Telemetry: page-level traffic volumes only — how many pages were
   read/appended/saved — never which page (DESIGN.md §5). *)
let m_page_reads = Obs.counter "storage.page_reads"
let m_page_appends = Obs.counter "storage.page_appends"
let m_file_saves = Obs.counter "storage.file_saves"
let m_file_loads = Obs.counter "storage.file_loads"

type t = {
  name : string;
  page_size : int;
  pages : bytes Psp_util.Dyn_array.t; (* padded to page_size *)
  lengths : int Psp_util.Dyn_array.t; (* payload bytes per page *)
  crcs : int Psp_util.Dyn_array.t; (* CRC-32 of each padded page *)
  mutable tags : bytes Psp_util.Dyn_array.t option;
      (* per-page HMAC-SHA-256 tags, present once {!seal}ed *)
  mutable seal_key : bytes option;
      (* the derived auth key the tags were computed under, so resealing
         with the same master key is a no-op while a different key (e.g.
         a scratch calibration server) recomputes *)
  mutable verifier : verifier option; (* see [verifier] below *)
}

and verifier = {
  master : bytes;
  keyed : Psp_crypto.Hmac.keyed;
  scratch : Psp_crypto.Hmac.scratch;
  number : bytes; (* the u32 page number that starts a tag message *)
  tag : bytes;
}

type error = Corrupt of { path : string; reason : string }

exception Error of error

let corrupt path reason = raise (Error (Corrupt { path; reason }))

let create ~name ~page_size =
  if page_size <= 0 then invalid_arg "Page_file.create: page_size must be positive";
  { name;
    page_size;
    pages = Psp_util.Dyn_array.create ();
    lengths = Psp_util.Dyn_array.create ();
    crcs = Psp_util.Dyn_array.create ();
    tags = None;
    seal_key = None;
    verifier = None }

let name t = t.name
let page_size t = t.page_size
let page_count t = Psp_util.Dyn_array.length t.pages
let size_bytes t = page_count t * t.page_size

let append t payload =
  Obs.incr m_page_appends;
  let len = Bytes.length payload in
  (* build-time only: the payload length describes the file being
     constructed (or re-parsed), not any query *)
  if len > t.page_size then
    invalid_arg
      (Printf.sprintf "Page_file.append(%s): payload %d exceeds page size %d" t.name
         len t.page_size);
  let page = Bytes.make t.page_size '\000' in
  Bytes.blit payload 0 page 0 len;
  Psp_util.Dyn_array.push t.pages page;
  Psp_util.Dyn_array.push t.lengths len;
  Psp_util.Dyn_array.push t.crcs (Psp_util.Crc32.digest page);
  (* any mutation invalidates the authentication tags *)
  t.tags <- None;
  t.seal_key <- None;
  page_count t - 1

let append_blank t = append t Bytes.empty

let check t (no [@secret]) =
  (* the index is secret when reached from the PIR hot path (Session.fetch
     serves [@secret] page numbers): the abort message may only name the
     file and its public page range, never the index itself *)
  (if no < 0 || no >= page_count t then
     invalid_arg
       (Printf.sprintf "Page_file.read(%s): page out of range [0,%d)" t.name
          (page_count t)))
  [@leak_ok "bounds check fails closed; the message is redacted to public data"]
  [@@oblivious]

let read t (no [@secret]) =
  Obs.incr m_page_reads;
  check t no;
  Bytes.copy (Psp_util.Dyn_array.get t.pages no)
  [@@oblivious]

let payload_length t no =
  check t no;
  Psp_util.Dyn_array.get t.lengths no

let payload t no = Bytes.sub (read t no) 0 (payload_length t no)

let page_crc t (no [@secret]) =
  check t no;
  Psp_util.Dyn_array.get t.crcs no
  [@@oblivious]

let verify_page t (no [@secret]) page =
  (* no branch: && returns a secret-derived bool the caller must justify *)
  Bytes.length page = t.page_size && Psp_util.Crc32.digest page = page_crc t no
  [@@oblivious]

(* -- authenticated pages ------------------------------------------------

   A CRC catches bit rot but not a Byzantine host: whoever can flip page
   bits can recompute the CRC.  Tags are HMAC-SHA-256 under a subkey the
   host never sees, bound to the file name and page number, computed at
   pack time by the publisher and verified by the client on every fetch
   (DESIGN.md §3c).  The host stores and serves them but cannot forge
   them. *)

let tag_size = 32

let auth_key ~key name =
  Psp_crypto.Hmac.derive ~key ~label:("page-auth:" ^ name)

(* The derived key depends only on the master key and the file name, so
   it is derived once per master key, not once per page: a file keeps
   the last master key it was sealed or checked under, with that key's
   HMAC midstates and the scratch a tag is computed in. *)
let verifier t ~key =
  match t.verifier with
  | Some v when Bytes.equal v.master key -> v
  | _ ->
      let v =
        { master = Bytes.copy key;
          keyed = Psp_crypto.Hmac.keyed (auth_key ~key t.name);
          scratch = Psp_crypto.Hmac.scratch ();
          number = Bytes.create 4;
          tag = Bytes.create tag_size }
      in
      t.verifier <- Some v;
      v

(* The tag of page [no] into [v.tag]: the HMAC of the u32 page number
   (fixed width: the message length must not vary with the secret
   index) followed by the page, both fed straight into the midstate. *)
let tag_into v (no [@secret]) page =
  Bytes.set_int32_le v.number 0 (Int32.of_int no);
  Psp_crypto.Hmac.start v.keyed v.scratch;
  Psp_crypto.Hmac.feed v.scratch v.number;
  Psp_crypto.Hmac.feed v.scratch page;
  Psp_crypto.Hmac.finish_into v.keyed v.scratch v.tag
  [@@oblivious]

let seal t ~key =
  let k = auth_key ~key t.name in
  let already = match t.seal_key with Some k0 -> Bytes.equal k0 k | None -> false in
  if not already then begin
    let v = verifier t ~key in
    let tags = Psp_util.Dyn_array.create () in
    for no = 0 to page_count t - 1 do
      tag_into v no (Psp_util.Dyn_array.get t.pages no);
      Psp_util.Dyn_array.push tags (Bytes.copy v.tag)
    done;
    t.tags <- Some tags;
    t.seal_key <- Some k
  end

let sealed t = t.tags <> None

let page_tag t (no [@secret]) =
  check t no;
  match t.tags with
  | None ->
      invalid_arg (Printf.sprintf "Page_file.page_tag(%s): file not sealed" t.name)
  | Some tags -> Psp_util.Dyn_array.get tags no
  [@@oblivious]

let authenticate t ~key (no [@secret]) page =
  (* no branch on secrets: the seal check is public state, and the final
     verdict is a secret-derived bool the caller must justify, exactly as
     with {!verify_page} *)
  Bytes.length page = t.page_size
  && sealed t
  && begin
    let expected = page_tag t no in
    let v = verifier t ~key in
    tag_into v no page;
    Psp_crypto.Hmac.equal v.tag expected
  end
  [@@oblivious]

let utilization t =
  if page_count t = 0 then 0.0
  else begin
    let used = Psp_util.Dyn_array.fold_left ( + ) 0 t.lengths in
    float_of_int used /. float_of_int (size_bytes t)
  end

let iter_pages t f =
  for no = 0 to page_count t - 1 do
    f no (read t no)
  done

let magic = "PSPPAGES3"
let magic_v2 = "PSPPAGES2"

(* Serialized layout: magic, name, page size, page count, tagged flag,
   then per page (payload length, padded-page CRC, [32-byte tag when
   tagged], payload bytes), and a trailing CRC-32 of everything before
   it.  The trailing checksum is what makes torn writes detectable: any
   truncation or bit flip anywhere in the body fails it before parsing
   even starts.  Files written by the previous (untagged) revision carry
   the v2 magic and still load, as unsealed. *)

let save t ~path =
  Obs.incr m_file_saves;
  Psp_fault.Fault.inject "storage.page_file.save.transient";
  let w = Psp_util.Byte_io.Writer.create ~capacity:(size_bytes t) () in
  Psp_util.Byte_io.Writer.string w magic;
  Psp_util.Byte_io.Writer.string w t.name;
  Psp_util.Byte_io.Writer.varint w t.page_size;
  Psp_util.Byte_io.Writer.varint w (page_count t);
  Psp_util.Byte_io.Writer.u8 w (if sealed t then 1 else 0);
  for no = 0 to page_count t - 1 do
    let len = payload_length t no in
    Psp_util.Byte_io.Writer.varint w len;
    Psp_util.Byte_io.Writer.u32 w (page_crc t no);
    if sealed t then Psp_util.Byte_io.Writer.bytes w (page_tag t no);
    Psp_util.Byte_io.Writer.bytes w (Bytes.sub (Psp_util.Dyn_array.get t.pages no) 0 len)
  done;
  let body = Psp_util.Byte_io.Writer.contents w in
  Psp_util.Byte_io.Writer.u32 w (Psp_util.Crc32.digest body);
  let blob = Psp_util.Byte_io.Writer.contents w in
  let blob =
    (* a torn write persists only a prefix of the blob *)
    if Psp_fault.Fault.fires "storage.page_file.save.torn" then
      Bytes.sub blob 0 (Bytes.length blob / 2)
    else blob
  in
  (* write-then-rename so a crash mid-save never clobbers an existing
     good file with a partial one *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc blob);
  Sys.rename tmp path

(* Parse diagnostics below may name page numbers and lengths: they
   describe the on-disk artifact being loaded offline, which the host
   already possesses in full — nothing query-dependent flows here. *)
let parse ~path blob =
  let total = Bytes.length blob in
  if total < String.length magic + 4 then corrupt path "truncated header";
  let body_len = total - 4 in
  let footer = Psp_util.Byte_io.Reader.of_bytes ~pos:body_len blob in
  if Psp_util.Byte_io.Reader.u32 footer <> Psp_util.Crc32.sub blob ~pos:0 ~len:body_len
  then corrupt path "file checksum mismatch (torn or corrupted write)";
  let r = Psp_util.Byte_io.Reader.of_bytes blob in
  let file_magic = Psp_util.Byte_io.Reader.string r in
  if file_magic <> magic && file_magic <> magic_v2 then corrupt path "bad magic";
  let name = Psp_util.Byte_io.Reader.string r in
  let page_size = Psp_util.Byte_io.Reader.varint r in
  if page_size <= 0 then corrupt path "non-positive page size";
  let count = Psp_util.Byte_io.Reader.varint r in
  let tagged =
    if file_magic = magic_v2 then false
    else
      match Psp_util.Byte_io.Reader.u8 r with
      | 0 -> false
      | 1 -> true
      | b -> corrupt path (Printf.sprintf "bad tagged flag %d" b)
  in
  let t = create ~name ~page_size in
  let tags = Psp_util.Dyn_array.create () in
  for no = 0 to count - 1 do
    let len = Psp_util.Byte_io.Reader.varint r in
    if len < 0 || len > page_size then
      corrupt path (Printf.sprintf "page %d: payload length %d out of range" no len);
    let stored_crc = Psp_util.Byte_io.Reader.u32 r in
    if tagged then Psp_util.Dyn_array.push tags (Psp_util.Byte_io.Reader.bytes r tag_size);
    ignore (append t (Psp_util.Byte_io.Reader.bytes r len));
    if page_crc t no <> stored_crc then
      corrupt path (Printf.sprintf "page %d: checksum mismatch" no)
  done;
  if Psp_util.Byte_io.Reader.pos r <> body_len then corrupt path "trailing bytes";
  if tagged then t.tags <- Some tags;
  t

let load ~path =
  Obs.incr m_file_loads;
  let ic = open_in_bin path in
  let blob =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* every malformation — truncation, bit flips, garbage — must surface
     as the typed error, so catch the decoder's low-level failures too *)
  match parse ~path (Bytes.of_string blob) with
  | t -> Ok t
  | exception Error e -> Stdlib.Error e
  | exception Psp_util.Byte_io.Reader.Underflow ->
      Stdlib.Error (Corrupt { path; reason = "truncated" })
  | exception Invalid_argument reason -> Stdlib.Error (Corrupt { path; reason })
  | exception Failure reason -> Stdlib.Error (Corrupt { path; reason })

let load_exn ~path =
  match load ~path with Ok t -> t | Error e -> raise (Error e)
