(** The region queue shared by the scheme modules.

    Nothing here issues a fetch: these functions compute which page index
    the engine puts into a fetch slot it was issuing anyway, or decode
    pages that were already retrieved. *)

(** A queue of pending region fetches, spoon-fed to the engine one page
    per fetch slot. *)
type region_queue

val region_queue : Psp_index.Header.t -> Store.t -> pages_per_region:int -> region_queue
val rq_push : region_queue -> int -> unit

val rq_next : region_queue -> int option
(** The next page of the in-flight region (starting the next queued one
    as needed), or [None] when the queue is drained. *)

val rq_deliver : region_queue -> bytes -> unit
(** Collect one delivered page; completing a region decodes it into the
    store. *)

val rq_idle : region_queue -> bool
