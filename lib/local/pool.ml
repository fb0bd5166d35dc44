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
   work checks, and leaves every chunk to the workers, so tests exercise
   the worker machinery on any host.

   Determinism does not depend on the schedule: every chunk is executed
   exactly once, chunks run their indices in ascending order, and callers
   only write index-owned locations (see pool.mli). The atomic
   completed-counter gives the happens-before edge that makes the
   workers' plain-array writes visible to the caller.

   Every dispatch builds a fresh, immutable job record and publishes it
   through [cur_job]. A worker that was descheduled past the end of a
   job and still holds it claims once more, finds the chunk counter
   past the chunk count, and goes back to waiting. *)

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

(* the plain fields are written before the job is published through
   [cur_job], so a worker that reads it from there sees them *)
type job = {
  chunks : int;
  chunk_size : int;
  total : int;
  (* telemetry arming is decided once per job at dispatch time; chunk
     execution reads these two flags instead of doing a
     registry-liveness load and a Span.armed load per chunk *)
  j_timed : bool;
  j_span : bool;
  j_parent : int; (* the dispatcher's open span, see run_job *)
  next : int Atomic.t; (* next chunk to claim *)
  completed : int Atomic.t; (* chunks fully executed *)
  body : int -> int -> unit; (* [body lo hi]: indices [lo, hi) *)
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

(* claim and run chunks until the range drains; after a body raises,
   the remaining chunks are still claimed (so the completed count
   drains) but their bodies are skipped *)
let run_job pool job =
  let rec claim () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.chunks then begin
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

(* publish the job under a fresh epoch; then help drain it and wait for
   the chunk count. [cur_job] is set before [epoch], so a worker that
   sees the new epoch finds this job (or a later one), and the parked
   check closes the wakeup race (a worker rechecks the epoch under the
   mutex before and after parking). Under the force switch the
   dispatching domain runs no chunk of its own: every chunk runs on a
   worker, so a fault that shows only on worker domains shows in every
   forced run. *)
let dispatch pool job =
  Atomic.set pool.cur_job (Some job);
  Atomic.incr pool.epoch;
  if Atomic.get pool.parked > 0 then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex
  end;
  if not !force then run_job pool job;
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
          next = Atomic.make 0;
          completed = Atomic.make 0;
          body = make_body ~chunk_size ~chunks;
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
    ~make_body:(fun ~chunk_size:_ ~chunks:_ -> body)
    ~seq:(fun () -> if n > 0 then body 0 n)
    ()

let parallel_for ?grain ~n f =
  parallel_range ?grain ~n (fun lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

(* one partial per chunk, summed in chunk order; an inline loop is one
   range, [0, n), and one partial *)
let parallel_sum ?grain ~n body =
  if n <= 0 then 0
  else begin
    let partial = ref [||] in
    run_parallel ?grain ~n
      ~make_body:(fun ~chunk_size ~chunks ->
        let slots = Array.make chunks 0 in
        partial := slots;
        fun lo hi -> slots.(lo / chunk_size) <- body lo hi)
      ~seq:(fun () -> partial := [| body 0 n |])
      ();
    Array.fold_left ( + ) 0 !partial
  end

let tabulate ?grain n f =
  if n <= 0 then [||]
  else begin
    let first = f 0 in
    let a = Array.make n first in
    parallel_for ?grain ~n:(n - 1) (fun i -> a.(i + 1) <- f (i + 1));
    a
  end
