(** Binary min-heap keyed by float priorities: the one priority queue
    of every search in the library.

    Payloads are integers (node ids), priorities are floats (tentative
    distances).  Searches use it with lazy deletion: push duplicates
    and skip stale pops at the call site.  The heap is two flat arrays
    sifted by moving a hole; equal priorities pop in the order a
    swapping binary heap pops them (a parent moves down only when
    strictly greater, a child up only when strictly smaller, the left
    child winning ties), so every search breaks ties the same way. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty heap.  [capacity] pre-sizes the backing store; a push
    that fills it doubles it. *)

val is_empty : t -> bool

val push : t -> priority:float -> int -> unit
(** Insert a payload with the given priority. *)

val min_priority : t -> float
(** Priority of the minimum entry, which stays queued.
    @raise Invalid_argument if the heap is empty. *)

val pop_min : t -> int
(** Remove the minimum entry and return its payload; read its priority
    first with {!min_priority}.  Neither call allocates a tuple or an
    option.
    @raise Invalid_argument if the heap is empty. *)

val clear : t -> unit
(** Empty the heap, retaining its backing store. *)
