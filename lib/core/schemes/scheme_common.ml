module H = Psp_index.Header

(* The region queue shared by the scheme modules.  Everything here is
   client-local bookkeeping or decoding over already-fetched pages: no
   function issues a fetch, so these cannot change the server's view —
   they only compute which page index the engine puts into a fetch slot
   it was issuing anyway. *)

(* ------------------------------------------------------------------ *)
(* A queue of pending region fetches, spoon-fed to the engine one page
   per slot: [rq_next] hands out the next page of the in-flight region
   (or starts the next queued one), [rq_deliver] collects the pages and
   files the region's records into the store once the region completes,
   straight from its bytes: the delivered page itself when the region
   spans one. *)

type region_queue = {
  rq_header : H.t;
  rq_store : Store.t;
  rq_pages : int;  (* pages per region *)
  mutable rq_queue : int list;
  mutable rq_current : (int * int * bytes list) option;
      (* region, pages requested, delivered pages in reverse *)
}

let region_queue (header : H.t) store ~pages_per_region =
  { rq_header = header;
    rq_store = store;
    rq_pages = pages_per_region;
    rq_queue = [];
    rq_current = None }

let rq_push q (region [@secret]) = q.rq_queue <- q.rq_queue @ [ region ] [@@oblivious]

let rq_next (q [@secret]) =
  (match q.rq_current with
  | Some (region, sent, got) ->
      q.rq_current <- Some (region, sent + 1, got);
      Some (q.rq_header.H.region_first_page.(region) + sent)
  | None -> (
      match q.rq_queue with
      | [] -> None
      | region :: rest ->
          q.rq_queue <- rest;
          q.rq_current <- Some (region, 1, []);
          Some q.rq_header.H.region_first_page.(region)))
  [@leak_ok
    "queue bookkeeping only picks which page index fills a plan-fixed fetch slot; \
     an empty queue yields a dummy retrieval, never a skipped one"]
  [@@oblivious]

let rq_deliver (q [@secret]) blob =
  (match q.rq_current with
  | None -> failwith "Client: unexpected region page delivery"
  | Some (region, sent, got) ->
      let got = blob :: got in
      if List.length got >= q.rq_pages then begin
        (* a one-page region is filed from the delivered page itself *)
        let bytes =
          match got with [ page ] -> page | _ -> Bytes.concat Bytes.empty (List.rev got)
        in
        Store.add_region q.rq_store q.rq_header.H.config region bytes;
        q.rq_current <- None
      end
      else q.rq_current <- Some (region, sent, got))
  [@leak_ok
    "client-local decode of already-fetched pages; a malformed region fails closed \
     with a constant message"]
  [@@oblivious]

let rq_idle (q [@secret]) =
  (q.rq_current = None && q.rq_queue = [])
  [@leak_ok
    "consulted by the schemes' exhaustion checks, which the engine asks once after \
     the walk's last server-visible operation"]
  [@@oblivious]
