//! The engine's resident worker pool.
//!
//! Earlier engine versions spawned a fresh `thread::scope` of workers for
//! every batch.  That was fine when every batch cost ~100 ms of oblivious
//! execution, but once the result cache made warm batches µs-scale, the
//! per-batch thread spawn became the dominant cost of any batch containing
//! even one miss.  The pool here is *resident*: `workers` threads are
//! spawned once when the [`Engine`](crate::Engine) is constructed, pull
//! jobs from a shared injector queue for the engine's whole lifetime, and
//! shut down gracefully (drain, then join) when the engine is dropped.
//!
//! Every job is one whole query, and a worker runs it start to finish on
//! its own thread.  Concurrent batches share the same workers: each
//! submitted job carries its own reply channel, so two callers inside
//! `execute_batch` at the same time interleave their jobs on the pool
//! without observing each other's results, and no caller ever runs another
//! caller's job.  Per-query obliviousness is untouched — a job builds its
//! own [`Tracer`](obliv_trace::Tracer), so which thread runs a query (and
//! when) can never change its trace.
//!
//! The pool is instrumented through [`PoolMetrics`]: queue depth (jobs
//! submitted but not yet picked up), jobs executed, cumulative worker busy
//! time and a queue-wait histogram.  Each job is stamped at submission and
//! its task receives the measured queue wait, which the executor folds into
//! the query's phase breakdown.

use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use obliv_telemetry::{Counter, Gauge, Histogram};

/// Acquire `mutex`, recovering from poisoning.
///
/// Every mutex in this module guards state that a panicking holder cannot
/// leave logically torn: the injector mutex wraps an `Option<Sender>` (the
/// send either happened or it didn't), and the worker-side mutex wraps a
/// channel receiver held only across one `recv` call.  Poison here would
/// mean some *other* job panicked — which the pool already contains via
/// `catch_unwind` — so aborting the whole process (the `unwrap` default)
/// would turn one contained query panic into a wedged engine.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Registry handles the pool reports into; all cheap cloneable atomics.
#[derive(Debug, Clone)]
pub(crate) struct PoolMetrics {
    /// Jobs submitted but not yet picked up by a worker (timing class:
    /// scheduling-dependent, and fault-injected batches re-submit work).
    pub queue_depth: Gauge,
    /// Jobs a worker has started executing (timing class: an aborted batch
    /// still ran jobs, and its re-run runs them again).
    pub jobs: Counter,
    /// Cumulative nanoseconds workers spent running tasks (timing class).
    pub busy_ns: Counter,
    /// Queue-wait distribution in microseconds (timing class).
    pub queue_wait_us: Histogram,
}

/// What one job produced: its output, or the panic payload its task
/// unwound with (the submitter re-raises it via `resume_unwind`, so the
/// original panic message survives the thread hop).
pub(crate) type JobOutput<T> = std::thread::Result<T>;

/// A pool task: receives the job's measured queue wait (submission → a
/// worker picks it up) so per-query timing can attribute it.
pub(crate) type PoolTask<T> = Box<dyn FnOnce(Duration) -> T + Send + 'static>;

/// A unit of pool work: run `task`, send its output to `reply` tagged with
/// `slot`.  The reply receiver may already be gone (a caller that panicked
/// between submit and collect); the send error is ignored because nobody is
/// left to care about the result.
struct Job<T: Send + 'static> {
    /// Caller-chosen tag returned with the output (the executor uses the
    /// distinct-plan slot index).
    slot: usize,
    /// When the job entered the injector queue; the worker derives the
    /// queue wait from it.
    submitted: Instant,
    /// The work itself, executed on a worker thread.
    task: PoolTask<T>,
    /// Where the tagged output goes.
    reply: mpsc::Sender<(usize, JobOutput<T>)>,
}

impl<T: Send + 'static> Job<T> {
    /// Run the job on the current worker thread, with metrics, and ship its
    /// output.
    fn run(self, metrics: Option<&PoolMetrics>) {
        let Job {
            slot,
            submitted,
            task,
            reply,
        } = self;
        let wait = submitted.elapsed();
        if let Some(m) = metrics {
            m.queue_depth.dec();
            m.jobs.inc();
            m.queue_wait_us.observe_duration_us(wait);
        }
        let busy = Instant::now();
        // A panicking task must not kill a resident worker (the pool would
        // silently shrink for the engine's lifetime).  Contain it and ship
        // the payload back: the submitter re-raises it with the original
        // message.
        let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || task(wait)));
        // Busy time is recorded *before* the reply ships: once the submitter
        // has drained every reply, the counters it snapshots already include
        // every job it waited for.
        if let Some(m) = metrics {
            m.busy_ns.add(busy.elapsed().as_nanos() as u64);
        }
        let _ = reply.send((slot, output));
    }
}

/// A fixed-size pool of long-lived worker threads fed by one injector
/// queue.
///
/// The queue is an `mpsc` channel whose receiver is shared behind a mutex:
/// every worker pulls the next job as soon as it finishes the last, which
/// gives work-stealing behaviour without per-worker deques.  The mutex is
/// held only while *pulling* a job, never while running one.
pub(crate) struct WorkerPool<T: Send + 'static> {
    /// The submit side of the queue.  `None` only during shutdown: dropping
    /// the sender is what tells idle workers to exit.
    injector: Mutex<Option<mpsc::Sender<Job<T>>>>,
    /// Worker handles, joined on drop.
    workers: Vec<thread::JoinHandle<()>>,
    /// Submission-side handles (queue depth is incremented on submit,
    /// decremented by the worker that picks the job up).
    metrics: Option<PoolMetrics>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawn a pool of `workers` resident threads (zero is allowed and
    /// spawns nothing — useful for a serial engine that never submits).
    pub(crate) fn new(workers: usize, metrics: Option<PoolMetrics>) -> Self {
        let (tx, rx) = mpsc::channel::<Job<T>>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let metrics = metrics.clone();
                thread::Builder::new()
                    .name(format!("obliv-engine-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only while pulling a job.
                        let job = lock_recover(&rx).recv();
                        match job {
                            Ok(job) => job.run(metrics.as_ref()),
                            // Channel closed: the pool is shutting down.
                            Err(_) => return,
                        }
                    })
                    .expect("spawning an engine worker thread failed")
            })
            .collect();
        WorkerPool {
            injector: Mutex::new(Some(tx)),
            workers,
            metrics,
        }
    }

    /// Number of resident worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submit a batch of jobs and a reply sender; outputs arrive on the
    /// corresponding receiver in completion order, tagged with each job's
    /// slot.  The caller typically drops its own clone of the reply sender
    /// and then `iter().take(n)`s the receiver.
    ///
    /// # Panics
    ///
    /// Panics if called during/after shutdown (the engine drops the pool
    /// only when the engine itself is dropped, so a live `&Engine` can
    /// always submit).
    pub(crate) fn submit(
        &self,
        jobs: impl IntoIterator<Item = (usize, PoolTask<T>)>,
        reply: &mpsc::Sender<(usize, JobOutput<T>)>,
    ) {
        let injector = lock_recover(&self.injector);
        let tx = injector.as_ref().expect("worker pool is shut down");
        for (slot, task) in jobs {
            if let Some(m) = &self.metrics {
                m.queue_depth.inc();
            }
            tx.send(Job {
                slot,
                submitted: Instant::now(),
                task,
                reply: reply.clone(),
            })
            .expect("resident workers outlive the injector");
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    /// Graceful shutdown: close the injector (workers finish whatever is
    /// queued, then see the closed channel and exit), then join every
    /// worker so no thread outlives the engine.
    fn drop(&mut self) {
        lock_recover(&self.injector).take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_telemetry::{MetricClass, MetricsRegistry};

    #[test]
    fn pool_runs_jobs_and_tags_slots() {
        let pool: WorkerPool<u64> = WorkerPool::new(3, None);
        assert_eq!(pool.workers(), 3);
        let (tx, rx) = mpsc::channel();
        pool.submit(
            (0..8usize).map(|i| {
                let task: PoolTask<u64> = Box::new(move |_wait| (i as u64) * 10);
                (i, task)
            }),
            &tx,
        );
        drop(tx);
        let mut out: Vec<(usize, u64)> = rx.iter().map(|(s, r)| (s, r.unwrap())).collect();
        out.sort_unstable();
        assert_eq!(
            out,
            (0..8usize)
                .map(|i| (i, (i as u64) * 10))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn pool_serves_many_batches_without_respawning() {
        let pool: WorkerPool<usize> = WorkerPool::new(2, None);
        for round in 0..50 {
            let (tx, rx) = mpsc::channel();
            pool.submit(
                (0..4usize).map(|i| {
                    let task: PoolTask<usize> = Box::new(move |_wait| i + round);
                    (i, task)
                }),
                &tx,
            );
            drop(tx);
            assert_eq!(rx.iter().count(), 4);
        }
    }

    #[test]
    fn zero_worker_pool_constructs_and_drops() {
        let pool: WorkerPool<()> = WorkerPool::new(0, None);
        assert_eq!(pool.workers(), 0);
        drop(pool);
    }

    #[test]
    fn pool_reports_jobs_depth_and_busy_time() {
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics {
            queue_depth: registry.gauge("engine_pool_queue_depth", MetricClass::Timing, &[]),
            jobs: registry.counter("engine_pool_jobs_total", MetricClass::Timing, &[]),
            busy_ns: registry.counter("engine_pool_busy_ns_total", MetricClass::Timing, &[]),
            queue_wait_us: registry.histogram(
                "engine_pool_queue_wait_us",
                MetricClass::Timing,
                &[],
            ),
        };
        let pool: WorkerPool<u8> = WorkerPool::new(2, Some(metrics));
        let (tx, rx) = mpsc::channel();
        pool.submit(
            (0..6usize).map(|i| {
                let task: PoolTask<u8> = Box::new(move |_wait| {
                    thread::sleep(Duration::from_millis(1));
                    i as u8
                });
                (i, task)
            }),
            &tx,
        );
        drop(tx);
        assert_eq!(rx.iter().count(), 6);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine_pool_jobs_total", &[]), 6);
        assert_eq!(snap.gauge("engine_pool_queue_depth", &[]), 0);
        assert!(snap.counter("engine_pool_busy_ns_total", &[]) >= 6_000_000);
    }

    #[test]
    fn tasks_receive_their_queue_wait() {
        let pool: WorkerPool<Duration> = WorkerPool::new(1, None);
        let (tx, rx) = mpsc::channel();
        pool.submit(
            (0..2usize).map(|i| {
                let task: PoolTask<Duration> = Box::new(move |wait| {
                    thread::sleep(Duration::from_millis(2));
                    wait
                });
                (i, task)
            }),
            &tx,
        );
        drop(tx);
        let waits: Vec<Duration> = rx.iter().map(|(_, r)| r.unwrap()).collect();
        // With one worker the second job waits at least as long as the
        // first job's sleep.
        assert!(waits.iter().any(|w| *w >= Duration::from_millis(2)));
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let pool: WorkerPool<u8> = WorkerPool::new(1, None);
        let (tx, rx) = mpsc::channel();
        pool.submit(
            [
                (
                    0usize,
                    Box::new(|_wait: Duration| -> u8 { panic!("job bug") }) as PoolTask<u8>,
                ),
                (1usize, Box::new(|_wait: Duration| 5u8) as PoolTask<u8>),
            ],
            &tx,
        );
        drop(tx);
        // The panicked job ships its payload back; the same worker still
        // runs the next job in the queue.
        let out: Vec<(usize, JobOutput<u8>)> = rx.iter().collect();
        assert_eq!(out.len(), 2);
        let payload = out[0].1.as_ref().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job bug"));
        assert_eq!(out[1].0, 1);
        assert_eq!(*out[1].1.as_ref().unwrap(), 5);
        // And the pool serves later batches.
        let (tx2, rx2) = mpsc::channel();
        pool.submit(
            std::iter::once((2usize, Box::new(|_wait: Duration| 9u8) as PoolTask<u8>)),
            &tx2,
        );
        drop(tx2);
        let out: Vec<(usize, u8)> = rx2.iter().map(|(s, r)| (s, r.unwrap())).collect();
        assert_eq!(out, vec![(2, 9)]);
    }

    #[test]
    fn dropped_reply_receiver_does_not_kill_workers() {
        let pool: WorkerPool<u8> = WorkerPool::new(1, None);
        let (tx, rx) = mpsc::channel();
        drop(rx); // Caller gave up before the job ran.
        pool.submit(
            std::iter::once((0usize, Box::new(|_wait: Duration| 7u8) as PoolTask<u8>)),
            &tx,
        );
        drop(tx);
        // The worker must survive the failed send and serve the next batch.
        let (tx2, rx2) = mpsc::channel();
        pool.submit(
            std::iter::once((1usize, Box::new(|_wait: Duration| 9u8) as PoolTask<u8>)),
            &tx2,
        );
        drop(tx2);
        let out: Vec<(usize, u8)> = rx2.iter().map(|(s, r)| (s, r.unwrap())).collect();
        assert_eq!(out, vec![(1, 9)]);
    }

    #[test]
    fn a_short_query_does_not_wait_on_an_unrelated_long_one() {
        // Two callers, each with its own reply channel, share a 2-worker
        // pool.  The short reply must arrive while the long job is still
        // running: no job ever waits on an unrelated one.  Sleeps, not
        // spins, so the test holds on one CPU too.
        let pool: WorkerPool<&'static str> = WorkerPool::new(2, None);
        let (long_tx, long_rx) = mpsc::channel();
        pool.submit(
            std::iter::once((
                0usize,
                Box::new(|_wait: Duration| {
                    thread::sleep(Duration::from_millis(300));
                    "long"
                }) as PoolTask<&'static str>,
            )),
            &long_tx,
        );
        // Let a worker pick the long job up, so the short job really runs
        // beside it rather than ahead of it.
        thread::sleep(Duration::from_millis(20));
        let (short_tx, short_rx) = mpsc::channel();
        pool.submit(
            std::iter::once((
                1usize,
                Box::new(|_wait: Duration| "short") as PoolTask<&'static str>,
            )),
            &short_tx,
        );
        let (slot, short) = short_rx.recv().expect("short reply");
        assert_eq!((slot, short.unwrap()), (1, "short"));
        assert!(
            long_rx.try_recv().is_err(),
            "the short reply must arrive before the long job finishes"
        );
        let (slot, long) = long_rx.recv().expect("long reply");
        assert_eq!((slot, long.unwrap()), (0, "long"));
    }
}
