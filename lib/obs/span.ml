(* Hierarchical timing spans on per-slot buffers.

   The recording discipline is Provenance's: one global [armed] flag,
   checked with a single boolean load on every operation, so disarmed
   instrumentation costs a load-and-branch and allocates nothing. While
   armed, each pool slot (the dispatching domain is slot 0, workers are
   1..slots-1, see Pool.worker_index) writes closed spans into its own
   buffer — armed recording never contends either. Slot 0's buffer
   grows and never drops: it holds every engine round span, and a
   round span carries the round's statistics, so losing one would
   falsify the trace. Worker buffers are fixed rings that shed their
   oldest chunk spans on overflow (counted by {!dropped}).

   Slot identity comes from a registered source rather than from
   lib/local directly (repro_local depends on repro_obs, not the other
   way around): Pool registers its worker_index/worker_slots at module
   initialization via {!set_worker_source}. Before registration — or in
   a process that never links the pool — everything runs in slot 0.

   Nesting is tracked with a per-slot stack of open spans. Worker slots
   have an empty stack between chunks, so a chunk span's parent is the
   [cross_parent]: the dispatching slot's innermost open span. The pool
   reads it at dispatch ({!dispatch_parent}) and hands it to every chunk
   of the job (the job hand-off provides the happens-before edge); read
   live, it could already be slot 0's own chunk span. Span ids are
   allocated per slot as [slot + k * nslots], which makes them unique
   without an atomic — and makes the raw values depend on the pool
   size, which is why Trace.deterministic_projection renumbers them
   canonically.

   Arming has one mutator, never while a pool job is in flight. Under
   the serve scheduler the single executor arms per request; one-shot
   CLI runs arm around the whole run through Trace.record. *)

type span = {
  trace_id : int;
  span_id : int;
  parent : int;
  label : string;
  start_ns : int;
  stop_ns : int;
  kvs : (string * int) list;
}

(* power of two: the ring index is a mask, and an overflowing worker
   ring overwrites its oldest entries. Slot 0's buffer starts at this
   size and doubles, so its index mask never wraps. *)
let capacity = 4096

type handle = {
  os_id : int; (* -1: recorded while disarmed; exit is a no-op *)
  os_label : string;
  os_start : int;
  os_parent : int;
}

let null = { os_id = -1; os_label = ""; os_start = 0; os_parent = -1 }
let live h = h.os_id >= 0

let dummy_span =
  {
    trace_id = 0;
    span_id = 0;
    parent = -1;
    label = "";
    start_ns = 0;
    stop_ns = 0;
    kvs = [];
  }

type ring = {
  mutable buf : span array; (* length: a power of two *)
  mutable n : int; (* spans ever written; index [n land (length-1)] *)
  mutable next_k : int; (* per-slot id counter *)
  mutable stack : handle list; (* open spans, innermost first *)
}

let fresh_ring () =
  { buf = Array.make capacity dummy_span; n = 0; next_k = 0; stack = [] }

(* ------------------------------------------------------------------ *)
(* state                                                              *)
(* ------------------------------------------------------------------ *)

let armed_flag = ref false
let cur_trace = ref 0
let nslots = ref 1
let rings : ring array ref = ref [||]

(* the dispatching slot's innermost open span id, or -1; read by worker
   slots to parent their chunk spans *)
let cross_parent = ref (-1)

let next_trace = Atomic.make 1
let fresh_trace_id () = Atomic.fetch_and_add next_trace 1

let source_slots = ref (fun () -> 1)
let source_index = ref (fun () -> 0)

let set_worker_source ~slots ~index =
  source_slots := slots;
  source_index := index

let armed () = !armed_flag

let arm ?trace_id () =
  let tid = match trace_id with Some t -> t | None -> fresh_trace_id () in
  let k = max 1 (!source_slots ()) in
  if Array.length !rings = k then
    Array.iter
      (fun r ->
        r.n <- 0;
        r.next_k <- 0;
        r.stack <- [])
      !rings
  else rings := Array.init k (fun _ -> fresh_ring ());
  nslots := k;
  cur_trace := tid;
  cross_parent := -1;
  armed_flag := true;
  tid

let disarm () = armed_flag := false

(* ------------------------------------------------------------------ *)
(* recording                                                          *)
(* ------------------------------------------------------------------ *)

let push_ring slot r s =
  let len = Array.length r.buf in
  if slot = 0 && r.n = len then begin
    let grown = Array.make (2 * len) dummy_span in
    Array.blit r.buf 0 grown 0 len;
    r.buf <- grown
  end;
  r.buf.(r.n land (Array.length r.buf - 1)) <- s;
  r.n <- r.n + 1

let alloc_id r slot =
  let id = slot + (r.next_k * !nslots) in
  r.next_k <- r.next_k + 1;
  id

let dispatch_parent () = !cross_parent

let enter ?start_ns ?parent label =
  if not !armed_flag then null
  else begin
    let slot = !source_index () in
    if slot >= Array.length !rings then null
    else begin
      let r = (!rings).(slot) in
      let parent =
        match parent with
        | Some p -> p
        | None -> (
          match r.stack with h :: _ -> h.os_id | [] -> !cross_parent)
      in
      let start =
        match start_ns with Some t -> t | None -> Clock.now_ns ()
      in
      let h =
        { os_id = alloc_id r slot; os_label = label; os_start = start;
          os_parent = parent }
      in
      r.stack <- h :: r.stack;
      if slot = 0 then cross_parent := h.os_id;
      h
    end
  end

let exit ?(kvs = []) h =
  if !armed_flag && h.os_id >= 0 then begin
    let slot = !source_index () in
    if slot < Array.length !rings then begin
      let r = (!rings).(slot) in
      let stop = Clock.now_ns () in
      (* pop through mismatched entries rather than corrupting the
         stack: an abandoned inner handle (a body that raised past its
         exit) is simply never recorded *)
      let rec pop = function
        | o :: rest when o.os_id = h.os_id -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      r.stack <- pop r.stack;
      if slot = 0 then
        cross_parent := (match r.stack with o :: _ -> o.os_id | [] -> -1);
      push_ring slot r
        {
          trace_id = !cur_trace;
          span_id = h.os_id;
          parent = h.os_parent;
          label = h.os_label;
          start_ns = h.os_start;
          stop_ns = (if stop < h.os_start then h.os_start else stop);
          kvs;
        }
    end
  end

let with_span ?kvs label f =
  let h = enter label in
  match f () with
  | x ->
    exit ?kvs h;
    x
  | exception e ->
    exit ?kvs h;
    raise e

let record ~label ~start_ns ~stop_ns ?parent ?(kvs = []) () =
  if not !armed_flag then -1
  else begin
    let slot = !source_index () in
    if slot >= Array.length !rings then -1
    else begin
      let r = (!rings).(slot) in
      let parent =
        match parent with
        | Some p -> p
        | None -> (
          match r.stack with h :: _ -> h.os_id | [] -> !cross_parent)
      in
      let id = alloc_id r slot in
      push_ring slot r
        {
          trace_id = !cur_trace;
          span_id = id;
          parent;
          label;
          start_ns;
          stop_ns = (if stop_ns < start_ns then start_ns else stop_ns);
          kvs;
        };
      id
    end
  end

(* ------------------------------------------------------------------ *)
(* draining                                                           *)
(* ------------------------------------------------------------------ *)

(* slot 0 first (the dispatching thread's spans, in deterministic
   order), then the worker slots' chunk spans; an overflowed worker
   ring surfaces its newest [capacity] spans, oldest first. A grown
   slot-0 buffer is released, so one large recording does not pin its
   spans until the next one overwrites them. *)
let take () =
  if not !armed_flag then []
  else begin
    armed_flag := false;
    let out = ref [] in
    let rs = !rings in
    for slot = Array.length rs - 1 downto 0 do
      let r = rs.(slot) in
      let len = Array.length r.buf in
      for i = r.n - 1 downto max 0 (r.n - len) do
        out := r.buf.(i land (len - 1)) :: !out
      done;
      if len > capacity then r.buf <- Array.make capacity dummy_span;
      r.n <- 0;
      r.next_k <- 0;
      r.stack <- []
    done;
    !out
  end

let dropped () =
  Array.fold_left (fun acc r -> acc + max 0 (r.n - Array.length r.buf)) 0 !rings

let abort () =
  if !armed_flag then ignore (take ())
