(* The frontier representation for the frontier-driven engine and the
   message-passing flood: a set of node ids kept as a flat int array
   (the members in insertion order) plus a stamp array for O(1)
   membership. Every iteration walks the member array; clearing bumps
   the stamp instead of touching the members.

   Mutation discipline (the "who may add" half of the frontier
   contract, DESIGN.md §13): [add], [remove_if] and [clear] may only be
   called from the dispatching domain while no pool loop is in flight.
   Parallel loop bodies never mutate a set — they read it (via
   [member]/[mem]) and write their own index-owned output slots; the
   next frontier is then built sequentially from those outputs, in a
   deterministic order. This keeps every set operation race-free by
   construction and the membership order (hence everything derived
   from it) independent of the pool size. *)

module G = Repro_graph.Multigraph

type t = {
  n : int;
  members : int array; (* the first [card] entries, insertion order *)
  mutable card : int;
  mark : int array; (* mark.(v) = stamp iff v is a member *)
  mutable stamp : int;
}

let create n =
  if n < 0 then invalid_arg "Frontier_set.create: negative n";
  {
    n;
    members = Array.make (max 1 n) 0;
    card = 0;
    mark = Array.make (max 1 n) 0;
    stamp = 1;
  }

let cardinal t = t.card
let mem t v = t.mark.(v) = t.stamp
let member t k = t.members.(k)

let clear t =
  t.card <- 0;
  t.stamp <- t.stamp + 1

let add t v =
  if t.mark.(v) <> t.stamp then begin
    t.mark.(v) <- t.stamp;
    t.members.(t.card) <- v;
    t.card <- t.card + 1
  end

let fill_all t =
  clear t;
  for v = 0 to t.n - 1 do
    add t v
  done

let iter t f =
  for k = 0 to t.card - 1 do
    f t.members.(k)
  done

(* drop every member for which [f] holds, preserving the order of the
   survivors (in-place compaction; dispatching domain only) *)
let remove_if t f =
  let w = ref 0 in
  for k = 0 to t.card - 1 do
    let v = t.members.(k) in
    if f v then t.mark.(v) <- t.stamp - 1
    else begin
      t.members.(!w) <- v;
      incr w
    end
  done;
  t.card <- !w

(* ------------------------------------------------------------------ *)
(* deterministic neighbourhood expansion                              *)
(* ------------------------------------------------------------------ *)

(* Reusable buffers for [expand]: a prefix-sum array over the source
   members and a flat candidate array (at most 2m entries). Grown
   geometrically, never shrunk — one scratch per long-lived caller. *)
type scratch = { mutable offs : int array; mutable cand : int array }

let scratch () = { offs = [||]; cand = [||] }

let ensure len a =
  if Array.length a >= len then a
  else Array.make (max len (2 * Array.length a)) 0

(* dst <- the far endpoints of all half-edges leaving [src],
   deduplicated in first-discovery order. The degree prefix sums and the
   final dedup run on the dispatching domain; the candidate fill is a
   parallel loop where index [k] writes only its own slice
   [offs.(k), offs.(k+1)) — so the resulting member order depends only
   on the graph and [src], never on the pool size. *)
let expand ~g ~src ~dst s =
  clear dst;
  let card = src.card in
  s.offs <- ensure (card + 1) s.offs;
  let offs = s.offs in
  offs.(0) <- 0;
  for k = 0 to card - 1 do
    offs.(k + 1) <- offs.(k) + G.degree g src.members.(k)
  done;
  let edges = offs.(card) in
  s.cand <- ensure edges s.cand;
  let cand = s.cand in
  Pool.parallel_for ~grain:50 ~n:card (fun k ->
      let v = src.members.(k) in
      let base = offs.(k) in
      let d = G.degree g v in
      for i = 0 to d - 1 do
        cand.(base + i) <- G.half_node g (G.mate (G.half_at g v i))
      done);
  for i = 0 to edges - 1 do
    add dst cand.(i)
  done
