type t = { name : string; gate : bool ref; cell : int Atomic.t }

let make ~gate name = { name; gate; cell = Atomic.make 0 }
let name c = c.name

(* The disabled path is one ref load and a branch; the enabled path is a
   single atomic add. The gate ref is shared with the registry the
   counter was created in, so a registry switches its whole metric
   population on and off with one write. Increments may come from
   any pool domain, and since integer addition commutes the final value
   depends only on the multiset of increments, never on the schedule —
   counters therefore inherit the engine's seq-vs-par determinism for
   everything the bodies contribute deterministically. *)
let add c k = if !(c.gate) then ignore (Atomic.fetch_and_add c.cell k)
let incr c = add c 1
let value c = Atomic.get c.cell
let reset c = Atomic.set c.cell 0
