(** Binary min-heap keyed by float priorities.

    The workhorse priority queue for Dijkstra and A*: payloads are
    integers (node ids), priorities are floats (tentative distances).
    Supports lazy decrease-key usage: push duplicates and skip stale
    pops at the call site, or use {!push_or_decrease} with an external
    position map for strict decrease-key semantics. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty heap.  [capacity] pre-sizes the backing store. *)

val length : t -> int
(** Number of queued entries (duplicates included). *)

val is_empty : t -> bool

val push : t -> priority:float -> int -> unit
(** Insert a payload with the given priority. *)

val min_priority : t -> float
(** Priority of the minimum entry, which stays queued.
    @raise Invalid_argument if the heap is empty. *)

val pop_min : t -> int
(** Remove the minimum entry and return its payload; read its priority
    first with {!min_priority}.  Neither call allocates, so a search
    loop pops without an option, a tuple or a boxed float.
    @raise Invalid_argument if the heap is empty. *)

val clear : t -> unit
(** Empty the heap, retaining its backing store. *)

val of_list : (float * int) list -> t
(** Heapify a list of (priority, payload) pairs. *)

val to_sorted_list : t -> (float * int) list
(** Destructively drain the heap in ascending priority order. *)
