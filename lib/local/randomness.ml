type t = { seed : int64 }

(* every derived draw (bit/int) funnels through bits64, so one
   counter measures the total randomness consumed by a run; the draw
   multiset is schedule-oblivious, so the count is too *)
let m_draws =
  Repro_obs.Registry.counter Repro_obs.Registry.default "local.rng.draws"

let create ~seed = { seed = Int64.of_int seed }

(* splitmix64 finalizer. [mix], [bits64] and [bit] are inlined so the
   Int64 intermediates stay unboxed: a coin allocates nothing *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t ~node ~idx =
  Repro_obs.Counter.incr m_draws;
  let x = Int64.add t.seed (Int64.mul (Int64.of_int node) 0x9e3779b97f4a7c15L) in
  let x = Int64.add x (Int64.mul (Int64.of_int idx) 0xd1b54a32d192ed03L) in
  mix (mix x)

let[@inline] bit t ~node ~idx = Int64.logand (bits64 t ~node ~idx) 1L = 1L

let int t ~node ~idx ~bound =
  if bound <= 0 then invalid_arg "Randomness.int: bound <= 0";
  let x = Int64.to_int (Int64.shift_right_logical (bits64 t ~node ~idx) 2) in
  x mod bound
