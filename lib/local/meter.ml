type t = int array

let create n = Array.make n 0

let of_radii r = r

let charge m v r = if r > m.(v) then m.(v) <- r

let charge_all m r =
  for v = 0 to Array.length m - 1 do
    charge m v r
  done

let radius m v = m.(v)

(* the bound a solver's run declares for node [v] when executed on the
   engine: its charged radius, floored at one because the engine's round
   structure delivers the radius-1 neighborhood before the first chance
   to halt (see Frontier round 0) *)
let declared m v = max 1 m.(v)

let max_radius m = Array.fold_left max 0 m

let mean_radius m =
  if Array.length m = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 m) /. float_of_int (Array.length m)

(* radii are small non-negative ints (bounded by max_radius), so a
   counting array beats the old hashtable-and-sort: one pass to count,
   one bounded pass to collect, no per-element allocation *)
let histogram m =
  if Array.length m = 0 then []
  else begin
    let counts = Array.make (max_radius m + 1) 0 in
    Array.iter (fun r -> counts.(r) <- counts.(r) + 1) m;
    let acc = ref [] in
    for r = Array.length counts - 1 downto 0 do
      if counts.(r) > 0 then acc := (r, counts.(r)) :: !acc
    done;
    !acc
  end
