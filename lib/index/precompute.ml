module G = Psp_graph.Graph

type t = {
  region_count : int;
  sets : int array array option; (* pair index -> sorted region ids *)
  subgraphs : int array array option; (* pair index -> sorted edge ids *)
}

let pair_index ~region_count i j =
  let i, j = if i <= j then (i, j) else (j, i) in
  if i < 0 || j >= region_count then invalid_arg "Precompute.pair_index: out of range";
  (i * region_count) - (i * (i - 1) / 2) + (j - i)

let npairs region_count = region_count * (region_count + 1) / 2

(* A set over [0..n-1]: membership bits plus the member list, so adding
   is O(1) and reading out or emptying costs the member count, not n. *)
module Sparse_set = struct
  type t = { bits : Psp_util.Bitset.t; members : int Psp_util.Dyn_array.t }

  let create n = { bits = Psp_util.Bitset.create n; members = Psp_util.Dyn_array.create () }

  let add t v =
    if not (Psp_util.Bitset.mem t.bits v) then begin
      Psp_util.Bitset.set t.bits v;
      Psp_util.Dyn_array.push t.members v
    end

  (* the members in increasing order; leaves the set empty *)
  let drain t =
    let out = Psp_util.Dyn_array.to_array t.members in
    Array.iter (Psp_util.Bitset.unset t.bits) out;
    Psp_util.Dyn_array.clear t.members;
    Array.sort Int.compare out;
    out
end

let default_domains () = max 1 (min 4 (Domain.recommended_domain_count () - 1))

let compute ?domains g ~assignment ~border ~want_sets ~want_subgraphs =
  let n = G.node_count g in
  if Array.length assignment <> n then
    invalid_arg "Precompute.compute: assignment length mismatch";
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let region_count = Psp_partition.Border.region_count border in
  let border_nodes = Array.init region_count (Psp_partition.Border.border_nodes border) in
  let entering = Array.init region_count (Psp_partition.Border.entering_edges border) in
  (* directed contributions, row-major: D(i->j) at i * region_count + j
     holds what the tree chains from border(i) to border(j) cross *)
  let dir_sets = Array.make (region_count * region_count) [||] in
  let dir_subs = Array.make (region_count * region_count) [||] in
  (* Row i: one tree per border node s of R_i.  For each column j, climb
     from every reachable border node of R_j towards s and stop at the
     first node already climbed for (s, j): the rest of that chain is
     already in column j's sets.  The row's sources share the sets, so
     at the row's end each column holds D(i->j). *)
  let run_rows next_row =
    let stamp = Array.make n (-1) in
    let epoch = ref (-1) in
    let region_cols = Array.init region_count (fun _ -> Sparse_set.create region_count) in
    let edge_cols = Array.init region_count (fun _ -> Sparse_set.create (G.edge_count g)) in
    (* one workspace per domain: every tree is grown into, and read from,
       the same arrays *)
    let ws = Psp_graph.Dijkstra.workspace g in
    let dist = Psp_graph.Dijkstra.dist ws
    and parent = Psp_graph.Dijkstra.parent ws
    and parent_edge = Psp_graph.Dijkstra.parent_edge ws in
    let rec rows () =
      let i = next_row () in
      if i < region_count then begin
        Array.iter
          (fun s ->
            Psp_graph.Dijkstra.grow ws ~source:s;
            for j = 0 to region_count - 1 do
              incr epoch;
              let walked = !epoch in
              let regions = region_cols.(j) and edges = edge_cols.(j) in
              let rec climb v =
                if stamp.(v) <> walked then begin
                  stamp.(v) <- walked;
                  let r = assignment.(v) in
                  if want_sets && r <> i && r <> j then Sparse_set.add regions r;
                  let e = parent_edge.(v) in
                  if e >= 0 then begin
                    if want_subgraphs then Sparse_set.add edges e;
                    climb parent.(v)
                  end
                end
              in
              Array.iter (fun t -> if dist.(t) < infinity then climb t) border_nodes.(j)
            done)
          border_nodes.(i);
        for j = 0 to region_count - 1 do
          let d = (i * region_count) + j in
          if want_sets then dir_sets.(d) <- Sparse_set.drain region_cols.(j);
          if want_subgraphs then begin
            (* the crossing edges entering R_j, which a client cannot
               otherwise see; D(j->i) brings those entering R_i *)
            Array.iter (Sparse_set.add edge_cols.(j)) entering.(j);
            dir_subs.(d) <- Sparse_set.drain edge_cols.(j)
          end
        done;
        rows ()
      end
    in
    rows ()
  in
  (* rows are claimed one at a time, so each directed slot is written by
     exactly one domain and the result does not depend on which *)
  let row = Atomic.make 0 in
  let next_row () = Atomic.fetch_and_add row 1 in
  let spawned =
    List.init (max 0 (min domains region_count - 1)) (fun _ ->
        Domain.spawn (fun () -> run_rows next_row))
  in
  run_rows next_row;
  List.iter Domain.join spawned;
  let publish want dir =
    if not want then None
    else begin
      let out = Array.make (npairs region_count) [||] in
      for i = 0 to region_count - 1 do
        out.(pair_index ~region_count i i) <- dir.((i * region_count) + i);
        for j = i + 1 to region_count - 1 do
          out.(pair_index ~region_count i j) <-
            Psp_util.Sorted_ints.union dir.((i * region_count) + j) dir.((j * region_count) + i)
        done
      done;
      Some out
    end
  in
  { region_count; sets = publish want_sets dir_sets; subgraphs = publish want_subgraphs dir_subs }

let region_count t = t.region_count
let pair_count t = npairs t.region_count

let region_set t i j =
  match t.sets with
  | None -> invalid_arg "Precompute.region_set: sets were not computed"
  | Some sets -> sets.(pair_index ~region_count:t.region_count i j)

let subgraph t i j =
  match t.subgraphs with
  | None -> invalid_arg "Precompute.subgraph: subgraphs were not computed"
  | Some subs -> subs.(pair_index ~region_count:t.region_count i j)

let max_set_cardinality t =
  match t.sets with
  | None -> invalid_arg "Precompute.max_set_cardinality: sets were not computed"
  | Some sets -> Array.fold_left (fun acc s -> max acc (Array.length s)) 0 sets

let set_cardinality_histogram t =
  match t.sets with
  | None -> invalid_arg "Precompute.set_cardinality_histogram: sets were not computed"
  | Some sets ->
      let m = Array.fold_left (fun acc s -> max acc (Array.length s)) 0 sets in
      let histogram = Array.make (m + 1) 0 in
      Array.iter (fun s -> histogram.(Array.length s) <- histogram.(Array.length s) + 1) sets;
      histogram
