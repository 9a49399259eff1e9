type t = {
  mutable prio : float array;
  mutable data : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { prio = Array.make capacity 0.0; data = Array.make capacity 0; size = 0 }

let is_empty t = t.size = 0

let grow t =
  let capacity = 2 * Array.length t.prio in
  let prio = Array.make capacity 0.0 and data = Array.make capacity 0 in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.data 0 data 0 t.size;
  t.prio <- prio;
  t.data <- data

(* Both sifts move a hole and write the moving entry once, where it
   stops.  A parent moves down only when strictly greater and a child up
   only when strictly smaller, the left child winning ties: the order a
   swapping heap pops equal priorities in, which the searches' tie
   breaks (and so the arc-flags and the pinned traces) depend on. *)
let push t ~priority payload =
  if t.size = Array.length t.prio then grow t;
  let prio = t.prio and data = t.data in
  let hole = ref t.size in
  t.size <- t.size + 1;
  while !hole > 0 && prio.((!hole - 1) / 2) > priority do
    let p = (!hole - 1) / 2 in
    prio.(!hole) <- prio.(p);
    data.(!hole) <- data.(p);
    hole := p
  done;
  prio.(!hole) <- priority;
  data.(!hole) <- payload

let min_priority t =
  if t.size = 0 then invalid_arg "Min_heap.min_priority: empty heap";
  t.prio.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Min_heap.pop_min: empty heap";
  let prio = t.prio and data = t.data in
  let top = data.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* the last entry fills the root's hole and sifts down *)
    let x = prio.(last) and xd = data.(last) in
    let hole = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !hole) + 1 in
      if l >= last then sifting := false
      else begin
        let c = if l + 1 < last && prio.(l + 1) < prio.(l) then l + 1 else l in
        if prio.(c) < x then begin
          prio.(!hole) <- prio.(c);
          data.(!hole) <- data.(c);
          hole := c
        end
        else sifting := false
      end
    done;
    prio.(!hole) <- x;
    data.(!hole) <- xd
  end;
  top

let clear t = t.size <- 0
