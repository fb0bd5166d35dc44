(* A persistent work-sharing pool on raw Domain.spawn + Atomic.

   One job is in flight at a time (the engine's loops are issued from the
   main domain, one after another). A job is a chunked index range plus a
   body; workers and the calling domain race on an atomic chunk counter
   until the range drains. Workers park on a condition variable between
   jobs (spinning briefly first when every member has a core of its own),
   so an idle pool costs nothing.

   Completion is tracked per chunk, not per worker: the dispatching
   domain returns as soon as every chunk has run, even if some workers
   have not yet been scheduled at all — they will find the range drained
   and go back to sleep. This keeps dispatch latency at "time to run the
   chunks", with no straggler wait.

   Dispatch follows one rule (DESIGN §17): a job is handed to the
   workers only when the pool has more than one member, no more members
   than the host has cores, and the loop's estimated work — [n] times a
   per-callsite grain hint — reaches a fixed cutoff. Everything else
   runs inline on the calling domain with no atomics, no signalling and
   no job setup at all. The test-only force switch skips the core and
   work checks so tests exercise the worker machinery on any host.

   Determinism does not depend on the schedule: every chunk is executed
   exactly once, chunks run their indices in ascending order, and callers
   only write index-owned locations (see pool.mli). The atomic
   completed-counter gives the happens-before edge that makes the
   workers' plain-array writes visible to the caller.

   Job records are reused across dispatches (see {!fused}), and a worker
   that was descheduled for a whole epoch may issue one more claim on a
   record that has since been re-armed. Claims are therefore
   epoch-tagged: the chunk counter packs (epoch << chunk_bits | chunk),
   and the armed epoch+chunk-count pair lives in one atomic word, so a
   stale claim can never read a torn (epoch, layout) state — it either
   sees its own drained epoch and stops, or a mismatched epoch and
   stops. A claim that does match the armed word has read-from the
   re-arm publication, which makes the job's plain fields visible. *)

module Obs = Repro_obs

(* dispatch telemetry on the process registry; all no-ops while it is
   disabled. Chunk counts and times are schedule-dependent and excluded
   from the determinism contract (see Obs.Trace). *)
let counter = Obs.Registry.counter Obs.Registry.default
let m_jobs = counter "local.pool.jobs"
let m_seq_loops = counter "local.pool.seq_loops"
let m_cutoff_inline = counter "local.pool.cutoff_inline"
let m_chunks = counter "local.pool.chunks"
let m_chunk_ns = counter "local.pool.chunk_ns"
let m_par_idx = counter "local.pool.par_idx"
let m_dispatch_ns = counter "local.pool.dispatch_ns"
let m_chunk_hist =
  Obs.Registry.histogram Obs.Registry.default "local.pool.chunk_ns.hist"

(* claims pack (epoch << chunk_bits) | chunk in one atomic int; so does
   the armed word, (epoch << chunk_bits) | chunks. 26 bits bound a
   single job at ~67M chunks (layouts are capped well below) and leave
   36 bits of monotonically increasing epoch — enough for 6.8e10
   dispatches per process. *)
let chunk_bits = 26
let chunk_mask = (1 lsl chunk_bits) - 1
let max_chunks = 1 lsl 24

(* the range/body fields are mutable so a prebuilt job (see {!fused})
   can be re-dispatched with a new range without allocating: the
   dispatching domain writes them, then publishes [armed] and resets
   [next]; a worker whose claim matches the armed word has synchronized
   with that publication and sees the fields *)
type job = {
  mutable chunks : int;
  mutable chunk_size : int;
  mutable total : int;
  (* satellite: telemetry arming is decided once per job at dispatch
     time; chunk execution reads these two flags instead of doing a
     registry-liveness load and a Span.armed load per chunk *)
  mutable j_timed : bool;
  mutable j_span : bool;
  mutable j_parent : int; (* the dispatcher's open span, see run_job *)
  armed : int Atomic.t; (* (epoch << chunk_bits) | chunks *)
  next : int Atomic.t; (* (epoch << chunk_bits) | next chunk to claim *)
  completed : int Atomic.t; (* chunks fully executed this epoch *)
  mutable body : int -> int -> unit; (* [body lo hi]: indices [lo, hi) *)
  failed : exn option Atomic.t;
}

type pool = {
  mutex : Mutex.t;
  work : Condition.t; (* a new epoch (or shutdown) is available *)
  finished : Condition.t; (* the last chunk of the current job is done *)
  cur_job : job option Atomic.t;
  epoch : int Atomic.t; (* bumped once per job, by the dispatcher only *)
  stop : bool Atomic.t;
  parked : int Atomic.t; (* workers inside Condition.wait *)
  spin : int; (* spin budget before parking; 0 when it cannot help *)
  mutable workers : unit Domain.t array;
}

(* the smallest loop the force switch dispatches: below it a loop is
   never worth any bookkeeping *)
let sequential_cutoff = 16

(* estimated ns per index when a call site gives no [?grain] hint: the
   median of observed per-index costs across the engine's loops on the
   reference host (EXPERIMENTS.md, W-dispatch); individual sites that
   sit far from it pass explicit hints *)
let default_grain = 100

(* chunk layouts aim each chunk at this much work: large enough to
   amortize a claim (one fetch_and_add) to noise, small enough to keep
   16×size chunks of load balance when the job has the work to spare *)
let target_chunk_ns = 20_000

(* a loop dispatches only when its estimated work [n × grain] reaches
   this many ns; below it the other domains' share is too small to pay
   for the claim and wake-up traffic of a dispatch. 4 µs is the cutoff
   the pool's earlier calibrated cost model always arrived at on 2
   cores (DESIGN §17) *)
let dispatch_min_work_ns = 4_000

let cores = Domain.recommended_domain_count ()

let force =
  ref
    (match Sys.getenv_opt "REPRO_POOL_CUTOFF" with
    | Some s -> String.lowercase_ascii (String.trim s) = "always"
    | None -> false)

let set_force_dispatch b = force := b

let grain_of = function
  | Some g when g >= 1 -> g
  | Some _ | None -> default_grain

let env_size =
  lazy
    (match Sys.getenv_opt "REPRO_DOMAINS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> min k 64
      | Some _ | None -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ())

let requested = ref None
let state : pool option ref = ref None

(* true while a loop is in flight; a parallel_for issued from inside a
   body (any domain) falls back to a sequential loop instead of
   deadlocking on the single-job pool *)
let busy = ref false

let size () =
  match !requested with Some k -> k | None -> Lazy.force env_size

(* Identifies the calling domain within the pool: 0 for the dispatching
   (main) domain, 1 .. size-1 for workers. Engines use it to index
   per-run scratch buffers ("arenas") without any locking: each domain
   only ever touches slot [worker_index ()]. One static DLS key — DLS
   keys cannot be freed, so allocating a key per run would leak. A
   foreign domain that never joined the pool reads the default 0, which
   is safe: it can only be running engine code while the pool is idle. *)
let index_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let worker_index () = Domain.DLS.get index_key
let worker_slots () = size ()

(* A 64-byte cache line holds 8 words on a 64-bit host. *)
let line_words = 8

let padded (r : 'a) : 'a =
  let o = Obj.repr r in
  if Obj.tag o >= Obj.lazy_tag then invalid_arg "Pool.padded";
  let n = Obj.size o in
  let b = Obj.new_block (Obj.tag o) (n + line_words) in
  for i = 0 to n - 1 do
    Obj.set_field b i (Obj.field o i)
  done;
  Obj.obj b

(* give Span its slot geometry: repro_obs cannot depend on this library,
   so the pool registers itself (module initialization runs before any
   engine code can arm a recording) *)
let () = Obs.Span.set_worker_source ~slots:worker_slots ~index:worker_index

(* claim and run chunks until the range drains or the claim's epoch tag
   stops matching the armed word; after a body raises, the remaining
   chunks are still claimed (so the completed count drains) but their
   bodies are skipped *)
let run_job pool job =
  let rec claim () =
    let v = Atomic.fetch_and_add job.next 1 in
    let armed = Atomic.get job.armed in
    let c = v land chunk_mask in
    if v lsr chunk_bits = armed lsr chunk_bits && c < armed land chunk_mask
    then begin
      (if Atomic.get job.failed = None then begin
         let timed = job.j_timed in
         let t0 = if timed then Obs.Clock.now_ns () else 0 in
         let sp =
           (* parented to the span latched at dispatch: the live cross
              parent may already be slot 0's own chunk span *)
           if job.j_span then Obs.Span.enter ~parent:job.j_parent "pool.chunk"
           else Obs.Span.null
         in
         let lo = c * job.chunk_size in
         let hi = min job.total (lo + job.chunk_size) in
         (try job.body lo hi
          with e -> ignore (Atomic.compare_and_set job.failed None (Some e)));
         if Obs.Span.live sp then Obs.Span.exit ~kvs:[ ("chunk", c) ] sp;
         if timed then begin
           (* clamped: the gettimeofday fallback clock can step *)
           let dt = max 0 (Obs.Clock.now_ns () - t0) in
           Obs.Counter.incr m_chunks;
           Obs.Counter.add m_chunk_ns dt;
           Obs.Counter.add m_par_idx (hi - lo);
           Obs.Histogram.observe m_chunk_hist dt
         end
       end);
      if
        Atomic.fetch_and_add job.completed 1 = job.chunks - 1
        && worker_index () <> 0
      then begin
        (* last chunk overall, run by a worker: wake the dispatcher if
           it is waiting (it rechecks the count under the mutex, so a
           signal landing before it parks is never lost) *)
        Mutex.lock pool.mutex;
        Condition.signal pool.finished;
        Mutex.unlock pool.mutex
      end;
      claim ()
    end
  in
  claim ()

let worker pool =
  let last = ref 0 in
  let stopped () = Atomic.get pool.stop in
  while not (stopped ()) do
    let e = Atomic.get pool.epoch in
    if e <> !last then begin
      last := e;
      match Atomic.get pool.cur_job with
      | Some job -> run_job pool job
      | None -> ()
    end
    else begin
      (* burn the spin budget watching the epoch before touching the
         mutex — an engine's next round, dispatched meanwhile, is picked
         up without a park/wake cycle *)
      let k = ref pool.spin in
      while !k > 0 && Atomic.get pool.epoch = !last && not (stopped ()) do
        Domain.cpu_relax ();
        decr k
      done;
      if Atomic.get pool.epoch = !last && not (stopped ()) then begin
        Mutex.lock pool.mutex;
        Atomic.incr pool.parked;
        while Atomic.get pool.epoch = !last && not (stopped ()) do
          Condition.wait pool.work pool.mutex
        done;
        Atomic.decr pool.parked;
        Mutex.unlock pool.mutex
      end
    end
  done

let shutdown () =
  match !state with
  | None -> ()
  | Some pool ->
    state := None;
    Atomic.set pool.stop true;
    Mutex.lock pool.mutex;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.workers

let () = at_exit shutdown

let set_size k =
  requested := Some (max 1 k);
  shutdown ()

(* spawn (size - 1) workers; the calling domain is the pool's last member *)
let ensure_pool () =
  let sz = size () in
  if sz <= 1 then None
  else
    match !state with
    | Some pool when Array.length pool.workers = sz - 1 -> Some pool
    | other ->
      if other <> None then shutdown ();
      let pool =
        {
          mutex = Mutex.create ();
          work = Condition.create ();
          finished = Condition.create ();
          cur_job = Atomic.make None;
          epoch = Atomic.make 0;
          stop = Atomic.make false;
          parked = Atomic.make 0;
          (* spinning only helps when every pool member has a real core
             to spin on; oversubscribed pools park immediately *)
          spin = (if cores > 1 && sz <= cores then 2048 else 0);
          workers = [||];
        }
      in
      pool.workers <-
        Array.init (sz - 1) (fun i ->
            Domain.spawn (fun () ->
                Domain.DLS.set index_key (i + 1);
                worker pool));
      state := Some pool;
      Some pool

(* arm the job for a fresh epoch and publish; then help drain it and
   wait for the chunk count. The publication order matters: fields are
   plain writes, [armed] then [next] make them visible to any claim
   that will execute, [cur_job]/[epoch] make the job visible to
   workers, and the parked check closes the wakeup race (a worker
   rechecks the epoch under the mutex before and after parking). *)
let dispatch pool job =
  let e = Atomic.get pool.epoch + 1 in
  Atomic.set job.completed 0;
  Atomic.set job.failed None;
  Atomic.set job.armed ((e lsl chunk_bits) lor job.chunks);
  Atomic.set job.next (e lsl chunk_bits);
  Atomic.set pool.cur_job (Some job);
  Atomic.set pool.epoch e;
  if Atomic.get pool.parked > 0 then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex
  end;
  run_job pool job;
  if Atomic.get job.completed < job.chunks then begin
    let k = ref pool.spin in
    while !k > 0 && Atomic.get job.completed < job.chunks do
      Domain.cpu_relax ();
      decr k
    done;
    if Atomic.get job.completed < job.chunks then begin
      Mutex.lock pool.mutex;
      while Atomic.get job.completed < job.chunks do
        Condition.wait pool.finished pool.mutex
      done;
      Mutex.unlock pool.mutex
    end
  end

(* the dispatch rule: [Some pool] when the job should be handed to the
   workers. A pool with more members than cores only adds context
   switches to every loop, so it never dispatches; the force switch
   overrides the core and work checks so tests exercise the worker
   machinery on any host. *)
let plan ~n ~grain =
  let sz = size () in
  if n < 2 || !busy || sz <= 1 then None
  else if !force then (
    if n < sequential_cutoff then None else ensure_pool ())
  else if sz <= cores && n * grain >= dispatch_min_work_ns then ensure_pool ()
  else None

let chunk_layout ~grain ~n sz =
  (* aim each chunk at [target_chunk_ns] of estimated work, kept between
     one chunk per domain (no idle member) and 16 per domain (claim
     traffic stays noise) *)
  let upper = max 1 (1 + ((n - 1) / sz)) in
  let lower = max 1 (1 + ((n - 1) / (16 * sz))) in
  let chunk_size = min upper (max lower (target_chunk_ns / max 1 grain)) in
  let chunk_size =
    if 1 + ((n - 1) / chunk_size) > max_chunks then 1 + ((n - 1) / max_chunks)
    else chunk_size
  in
  (chunk_size, 1 + ((n - 1) / chunk_size))

let run_parallel ?grain ~n ~make_body ~seq () =
  let inline () =
    Obs.Counter.incr m_seq_loops;
    if n >= 2 && (not !busy) && size () > 1 then
      Obs.Counter.incr m_cutoff_inline;
    seq ()
  in
  if n <= 0 then inline ()
  else
    let g = grain_of grain in
    match plan ~n ~grain:g with
    | None -> inline ()
    | Some pool ->
      let chunk_size, chunks = chunk_layout ~grain:g ~n (size ()) in
      let job =
        {
          chunks;
          chunk_size;
          total = n;
          j_timed = Obs.Registry.enabled ();
          j_span = Obs.Span.armed ();
          j_parent = Obs.Span.dispatch_parent ();
          armed = Atomic.make 0;
          next = Atomic.make 0;
          completed = Atomic.make 0;
          body = make_body ~chunk_size;
          failed = Atomic.make None;
        }
      in
      Obs.Counter.incr m_jobs;
      let t0 = if job.j_timed then Obs.Clock.now_ns () else 0 in
      busy := true;
      Fun.protect
        ~finally:(fun () -> busy := false)
        (fun () -> dispatch pool job);
      if job.j_timed then
        Obs.Counter.add m_dispatch_ns (max 0 (Obs.Clock.now_ns () - t0));
      (match Atomic.get job.failed with Some e -> raise e | None -> ())

(* a dispatched job hands [body] its chunks; an inline loop is one
   range, [0, n) *)
let parallel_range ?grain ~n body =
  run_parallel ?grain ~n
    ~make_body:(fun ~chunk_size:_ -> body)
    ~seq:(fun () -> if n > 0 then body 0 n)
    ()

let parallel_for ?grain ~n f =
  parallel_range ?grain ~n (fun lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

let parallel_for_reduce ?grain ~n ~neutral ~combine f =
  if n <= 0 then neutral
  else begin
    let fold lo hi =
      let acc = ref neutral in
      for i = lo to hi - 1 do
        acc := combine !acc (f i)
      done;
      !acc
    in
    (* sized at dispatch time inside make_body; one slot per chunk *)
    let partial = ref [||] in
    run_parallel ?grain ~n
      ~make_body:(fun ~chunk_size ->
        let chunks = 1 + ((n - 1) / chunk_size) in
        partial := Array.make chunks neutral;
        let slots = !partial in
        fun lo hi -> slots.(lo / chunk_size) <- fold lo hi)
      ~seq:(fun () -> partial := [| fold 0 n |])
      ();
    Array.fold_left combine neutral !partial
  end

(* ------------------------------------------------------------------ *)
(* fused prebuilt counting loops                                      *)
(* ------------------------------------------------------------------ *)

(* The engine's per-round hot path: a parallel_range and a reduce fused
   into one dispatch of a job record built once per engine run. The
   range body returns the int sum over its range; partial sums land in
   per-worker slots (each domain touches only slots.(worker_index ()))
   and are summed by the dispatching domain in slot order. Int addition
   is commutative and associative, so the total is independent of which
   worker ran which chunk — the determinism contract is untouched.
   Re-dispatching reuses the job record and the slots, so a round costs
   zero allocation beyond what the body itself allocates. *)
type fused = {
  fu_body : int -> int -> int;
  fu_job : job;
  fu_grain : int;
  mutable fu_slots : int array;
}

let fused ?grain body =
  let t =
    {
      fu_body = body;
      fu_job =
        {
          chunks = 0;
          chunk_size = 1;
          total = 0;
          j_timed = false;
          j_span = false;
          j_parent = -1;
          armed = Atomic.make 0;
          next = Atomic.make 0;
          completed = Atomic.make 0;
          body = (fun _ _ -> ());
          failed = Atomic.make None;
        };
      fu_grain = grain_of grain;
      fu_slots = Array.make (max 1 (size ())) 0;
    }
  in
  t.fu_job.body <-
    (fun lo hi ->
      let s = t.fu_body lo hi in
      let w = worker_index () in
      t.fu_slots.(w) <- t.fu_slots.(w) + s);
  t

let run_fused t ~n =
  if n <= 0 then 0
  else begin
    match plan ~n ~grain:t.fu_grain with
    | None ->
      Obs.Counter.incr m_seq_loops;
      if n >= 2 && (not !busy) && size () > 1 then
        Obs.Counter.incr m_cutoff_inline;
      t.fu_body 0 n
    | Some pool ->
      let sz = size () in
      if Array.length t.fu_slots < sz then t.fu_slots <- Array.make sz 0;
      let slots = t.fu_slots in
      Array.fill slots 0 (Array.length slots) 0;
      let chunk_size, chunks = chunk_layout ~grain:t.fu_grain ~n sz in
      let job = t.fu_job in
      job.total <- n;
      job.chunk_size <- chunk_size;
      job.chunks <- chunks;
      job.j_timed <- Obs.Registry.enabled ();
      job.j_span <- Obs.Span.armed ();
      job.j_parent <- Obs.Span.dispatch_parent ();
      Obs.Counter.incr m_jobs;
      let t0 = if job.j_timed then Obs.Clock.now_ns () else 0 in
      busy := true;
      (match dispatch pool job with
      | () -> busy := false
      | exception e ->
        busy := false;
        raise e);
      if job.j_timed then
        Obs.Counter.add m_dispatch_ns (max 0 (Obs.Clock.now_ns () - t0));
      (match Atomic.get job.failed with Some e -> raise e | None -> ());
      let s = ref 0 in
      for w = 0 to Array.length slots - 1 do
        s := !s + slots.(w)
      done;
      !s
  end

let tabulate ?grain n f =
  if n <= 0 then [||]
  else begin
    let first = f 0 in
    let a = Array.make n first in
    parallel_for ?grain ~n:(n - 1) (fun i -> a.(i + 1) <- f (i + 1));
    a
  end
