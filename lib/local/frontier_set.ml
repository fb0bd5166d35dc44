(* The frontier representation for the frontier-driven engine and the
   message-passing flood: a set of node ids kept simultaneously as a
   flat int array (sparse view: the members in insertion order) and a
   packed bitmap (dense view: one 63-bit word per 63 nodes). The two
   views are maintained together so the representation can switch per
   round on a density threshold without any conversion pass — Ligra's
   push/pull switch, with the insertion-order array playing the role of
   the sparse edgelist.

   Mutation discipline (the "who may add" half of the frontier
   contract, DESIGN.md §13): [add], [remove_if] and [clear] may only be
   called from the dispatching domain while no pool loop is in flight.
   Parallel loop bodies never mutate a set — they read it (via
   [member]/[fold_word]/[mem]) and write their own index-owned output
   slots; the next frontier is then built sequentially from those
   outputs, in a deterministic order. This keeps every set operation
   race-free by construction and the membership order (hence everything
   derived from it) independent of the pool size. *)

module G = Repro_graph.Multigraph

let bits_per_word = 63

type t = {
  n : int;
  threshold : int;
  members : int array; (* the first [card] entries, insertion order *)
  mutable card : int;
  mark : int array; (* mark.(v) = stamp iff v is a member *)
  mutable stamp : int;
  bits : int array; (* packed bitmap over nodes, kept in sync *)
}

let default_threshold n = max 1 (n / 16)

let create ?dense_threshold n =
  if n < 0 then invalid_arg "Frontier_set.create: negative n";
  let threshold =
    match dense_threshold with Some t -> t | None -> default_threshold n
  in
  {
    n;
    threshold;
    members = Array.make (max 1 n) 0;
    card = 0;
    mark = Array.make (max 1 n) 0;
    stamp = 1;
    bits = Array.make (1 + (n / bits_per_word)) 0;
  }

let cardinal t = t.card
let is_dense t = t.card >= t.threshold
let mem t v = t.mark.(v) = t.stamp
let member t k = t.members.(k)

let clear t =
  for k = 0 to t.card - 1 do
    let v = t.members.(k) in
    t.bits.(v / bits_per_word) <-
      t.bits.(v / bits_per_word) land lnot (1 lsl (v mod bits_per_word))
  done;
  t.card <- 0;
  t.stamp <- t.stamp + 1

let add t v =
  if t.mark.(v) <> t.stamp then begin
    t.mark.(v) <- t.stamp;
    t.members.(t.card) <- v;
    t.card <- t.card + 1;
    t.bits.(v / bits_per_word) <-
      t.bits.(v / bits_per_word) lor (1 lsl (v mod bits_per_word))
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
    if f v then begin
      t.mark.(v) <- t.stamp - 1;
      t.bits.(v / bits_per_word) <-
        t.bits.(v / bits_per_word) land lnot (1 lsl (v mod bits_per_word))
    end
    else begin
      t.members.(!w) <- v;
      incr w
    end
  done;
  t.card <- !w

let word_count t = 1 + (t.n / bits_per_word)

(* fold over the members inside bitmap word [w], ascending node order.
   Safe to call from parallel bodies: it only reads the set, and the
   nodes of one word belong to exactly one loop index, so the dense
   (pull) iteration keeps per-index ownership of everything derived
   from them. *)
let fold_word t w init f =
  let x = ref t.bits.(w) in
  let base = w * bits_per_word in
  let acc = ref init in
  let i = ref 0 in
  while !x <> 0 do
    if !x land 1 = 1 then acc := f !acc (base + !i);
    x := !x lsr 1;
    incr i
  done;
  !acc

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
