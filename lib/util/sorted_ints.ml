let strictly_increasing (a : int array) =
  let rec go i = i >= Array.length a || (a.(i - 1) < a.(i) && go (i + 1)) in
  go 1

let sort_dedup a =
  if strictly_increasing a then a
  else begin
    let a = Array.copy a in
    Array.sort Int.compare a;
    let k = ref 0 in
    Array.iter
      (fun v ->
        if !k = 0 || v <> a.(!k - 1) then begin
          a.(!k) <- v;
          incr k
        end)
      a;
    Array.sub a 0 !k
  end

let union (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let rec go i j k =
    if i = na then begin
      Array.blit b j out k (nb - j);
      k + nb - j
    end
    else if j = nb then begin
      Array.blit a i out k (na - i);
      k + na - i
    end
    else if a.(i) < b.(j) then begin
      out.(k) <- a.(i);
      go (i + 1) j (k + 1)
    end
    else if a.(i) > b.(j) then begin
      out.(k) <- b.(j);
      go i (j + 1) (k + 1)
    end
    else begin
      out.(k) <- a.(i);
      go (i + 1) (j + 1) (k + 1)
    end
  in
  let k = go 0 0 0 in
  if k = na + nb then out else Array.sub out 0 k

let diff (a : int array) (b : int array) =
  let out = Dyn_array.create () in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a do
    if !j >= Array.length b || a.(!i) < b.(!j) then begin
      Dyn_array.push out a.(!i);
      incr i
    end
    else if a.(!i) = b.(!j) then begin
      incr i;
      incr j
    end
    else incr j
  done;
  Dyn_array.to_array out

let inter_count (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j acc =
    if i = na || j = nb then acc
    else if a.(i) < b.(j) then go (i + 1) j acc
    else if a.(i) > b.(j) then go i (j + 1) acc
    else go (i + 1) (j + 1) (acc + 1)
  in
  go 0 0 0
