type t = {
  mutable prio : float array;
  mutable data : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { prio = Array.make capacity 0.0; data = Array.make capacity 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let capacity = 2 * Array.length t.prio in
  let prio = Array.make capacity 0.0 and data = Array.make capacity 0 in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.data 0 data 0 t.size;
  t.prio <- prio;
  t.data <- data

let swap t i j =
  let p = t.prio.(i) and d = t.data.(i) in
  t.prio.(i) <- t.prio.(j);
  t.data.(i) <- t.data.(j);
  t.prio.(j) <- p;
  t.data.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(parent) > t.prio.(i) then begin
      swap t parent i;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && t.prio.(left) < t.prio.(!smallest) then smallest := left;
  if right < t.size && t.prio.(right) < t.prio.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~priority payload =
  if t.size = Array.length t.prio then grow t;
  t.prio.(t.size) <- priority;
  t.data.(t.size) <- payload;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let min_priority t =
  if t.size = 0 then invalid_arg "Min_heap.min_priority: empty heap";
  t.prio.(0)
  [@@inline]

let pop_min t =
  if t.size = 0 then invalid_arg "Min_heap.pop_min: empty heap";
  let d = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.prio.(0) <- t.prio.(t.size);
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  d
let clear t = t.size <- 0

let of_list entries =
  let t = create ~capacity:(max 1 (List.length entries)) () in
  List.iter (fun (priority, payload) -> push t ~priority payload) entries;
  t

let to_sorted_list t =
  let rec drain acc =
    if t.size = 0 then List.rev acc
    else
      let p = min_priority t in
      drain ((p, pop_min t) :: acc)
  in
  drain []
