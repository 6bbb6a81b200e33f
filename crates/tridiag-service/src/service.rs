//! The threaded front door: a bounded submission queue, one worker
//! draining it in coalescing ticks, and typed backpressure at
//! admission time.
//!
//! Real client threads call [`SolveService::submit`] concurrently; the
//! worker owns the [`ServiceCore`] (pins, plan cache, tick machinery)
//! and answers each ticket over its own channel. Timing stays on the
//! modeled axis — the worker keeps a modeled clock that advances by
//! each tick's kernel/scatter time, and takes each tick's window from
//! [`ServiceConfig::tick_window`], the rule
//! [`ServiceCore::run_workload`] uses; wall clocks appear nowhere, so
//! span assertions in tests are deterministic. A poisoned state lock
//! (a thread panicked while holding it) shuts the service down rather
//! than panicking: admission and every waiting ticket answer
//! [`ServiceError::ShuttingDown`].
//!
//! [`pause`](SolveService::pause)/[`resume`](SolveService::resume) gate
//! the worker without touching admission: tests use them to stack the
//! queue (guaranteeing coalescing) or to fill it to the brim
//! (guaranteeing a typed [`ServiceError::Overloaded`]).

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use gpu_sim::DeviceGroup;

use crate::cache::CacheStats;
use crate::core::{ServiceConfig, ServiceCore};
use crate::report::BatchSummary;
use crate::request::{Payload, Response, ServiceError, SolveRequest};
use crate::telemetry::Telemetry;

/// Counters a running service exposes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests admitted past the queue bound.
    pub submitted: u64,
    /// Requests solved successfully.
    pub completed: u64,
    /// Requests bounced at admission ([`ServiceError::Overloaded`] /
    /// [`ServiceError::ShuttingDown`]).
    pub rejected: u64,
    /// Admitted requests that ended in a typed solve failure.
    pub failed: u64,
    /// Fused launches performed.
    pub batches: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// The worker's modeled clock (µs).
    pub clock_us: f64,
}

/// A pending response: block on [`Ticket::wait`] to collect it.
#[derive(Debug)]
pub struct Ticket {
    /// The id the response will carry.
    pub id: u64,
    arrival_us: f64,
    rx: Receiver<Response>,
}

impl Ticket {
    /// Block until the service answers. The service always answers
    /// every admitted ticket — a shutdown drains the queue with typed
    /// [`ServiceError::ShuttingDown`] responses first — and a worker
    /// that vanished without answering reads as the same typed
    /// [`ServiceError::ShuttingDown`].
    pub fn wait(self) -> Response {
        let (id, arrival_us) = (self.id, self.arrival_us);
        self.rx.recv().unwrap_or_else(|_| Response {
            id,
            result: Err(ServiceError::ShuttingDown),
            spans: Default::default(),
            batch: None,
            coalesced_with: 0,
            cache_hit: false,
            completed_us: arrival_us,
        })
    }
}

struct State {
    queue: VecDeque<(SolveRequest, Sender<Response>)>,
    paused: bool,
    shutdown: bool,
    next_id: u64,
    stats: ServiceStats,
    /// The worker parks the core's telemetry here on exit so
    /// [`SolveService::shutdown_with_telemetry`] can hand it out.
    telemetry: Option<Telemetry>,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

impl Shared {
    /// Lock the state. A poisoned lock — a thread panicked while
    /// holding it — shuts the service down instead of spreading the
    /// panic: admission then answers [`ServiceError::ShuttingDown`] and
    /// the worker, woken, drains the queue with typed responses. The
    /// recovered state is sound to use: its updates are counter, flag
    /// and queue operations that cannot panic halfway.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| self.shut_down(p))
    }

    /// Block on the wake-up condition, with [`Shared::lock`]'s
    /// poisoning rule.
    fn wait<'a>(&'a self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.wake.wait(st).unwrap_or_else(|p| self.shut_down(p))
    }

    /// Recover a poisoned state guard, marked as shutting down.
    fn shut_down<'a>(&self, poisoned: PoisonError<MutexGuard<'a, State>>) -> MutexGuard<'a, State> {
        let mut st = poisoned.into_inner();
        st.shutdown = true;
        self.wake.notify_all();
        st
    }
}

/// The threaded solve service. See the module docs.
pub struct SolveService {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    queue_depth: usize,
}

impl SolveService {
    /// Start a service over `group` with tuning `cfg`; the worker
    /// thread runs until [`shutdown`](SolveService::shutdown) (or
    /// drop).
    pub fn start(group: DeviceGroup, cfg: ServiceConfig) -> SolveService {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                paused: false,
                shutdown: false,
                next_id: 0,
                stats: ServiceStats::default(),
                telemetry: None,
            }),
            wake: Condvar::new(),
        });
        let queue_depth = cfg.queue_depth.max(1);
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || {
            worker_loop(worker_shared, ServiceCore::new(group, cfg));
        });
        SolveService {
            shared,
            worker: Some(worker),
            queue_depth,
        }
    }

    /// Submit one request. Returns the ticket to wait on, or the typed
    /// admission failure — [`ServiceError::Overloaded`] when the
    /// bounded queue is full, [`ServiceError::ShuttingDown`] after
    /// shutdown began, [`ServiceError::InvalidRequest`] for malformed
    /// payloads. Never blocks on the solver.
    pub fn submit(&self, payload: Payload) -> Result<Ticket, ServiceError> {
        if payload.num_systems() == 0 || payload.system_len() == 0 {
            return Err(ServiceError::InvalidRequest(format!(
                "empty geometry: m = {}, n = {}",
                payload.num_systems(),
                payload.system_len()
            )));
        }
        let mut st = self.shared.lock();
        if st.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        if st.queue.len() >= self.queue_depth {
            st.stats.rejected += 1;
            return Err(ServiceError::Overloaded {
                depth: self.queue_depth,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.stats.submitted += 1;
        // Arrival on the modeled axis: the worker's clock as of the
        // last completed tick (submissions during a tick time-stamp at
        // its start — deterministic, if coarse).
        let arrival_us = st.stats.clock_us;
        let (tx, rx) = channel();
        st.queue.push_back((
            SolveRequest {
                id,
                arrival_us,
                payload,
            },
            tx,
        ));
        drop(st);
        self.shared.wake.notify_all();
        Ok(Ticket { id, arrival_us, rx })
    }

    /// Stop the worker from draining the queue (admission continues,
    /// so the bounded queue can fill and bounce).
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Let the worker drain again.
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.wake.notify_all();
    }

    /// Current counters (a snapshot; the worker updates them between
    /// ticks).
    pub fn stats(&self) -> ServiceStats {
        self.shared.lock().stats
    }

    /// Number of requests waiting right now.
    pub fn queue_len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Drain and stop: queued-but-unsolved requests get typed
    /// [`ServiceError::ShuttingDown`] responses, the worker exits, and
    /// the final counters come back.
    pub fn shutdown(mut self) -> ServiceStats {
        self.begin_shutdown();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        self.stats()
    }

    /// Like [`shutdown`](SolveService::shutdown), but also hands back
    /// the worker's accumulated [`Telemetry`] (metrics + event log)
    /// for offline export and replay validation.
    pub fn shutdown_with_telemetry(mut self) -> (ServiceStats, Telemetry) {
        self.begin_shutdown();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        let mut st = self.shared.lock();
        let telemetry = st.telemetry.take().unwrap_or_default();
        (st.stats, telemetry)
    }

    fn begin_shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, mut core: ServiceCore) {
    let cfg = *core.config();
    let mut batch_base = 0usize;
    loop {
        // Wait for work (or shutdown), then drain a tick's working set.
        let (working, senders, device_free) = {
            let mut st = shared.lock();
            while (st.paused || st.queue.is_empty()) && !st.shutdown {
                st = shared.wait(st);
            }
            if st.shutdown {
                let clock = st.stats.clock_us;
                let drained: Vec<_> = st.queue.drain(..).collect();
                st.stats.rejected += drained.len() as u64;
                for (req, tx) in drained {
                    core.telemetry_mut()
                        .on_reject(req.id, clock, &ServiceError::ShuttingDown);
                    let _ = tx.send(Response {
                        id: req.id,
                        result: Err(ServiceError::ShuttingDown),
                        spans: Default::default(),
                        batch: None,
                        coalesced_with: 0,
                        cache_hit: false,
                        completed_us: clock,
                    });
                }
                st.telemetry = Some(core.take_telemetry());
                return;
            }
            let take = cfg.tick_drain(st.queue.len());
            let mut working = Vec::with_capacity(take);
            let mut senders = Vec::with_capacity(take);
            for (req, tx) in st.queue.drain(..take) {
                working.push(req);
                senders.push(tx);
            }
            (working, senders, st.stats.clock_us)
        };

        let (open, close) = cfg.tick_window(working[0].arrival_us, device_free);
        let (responses, batches, free) = core.solve_tick(open, close, &working, batch_base);
        batch_base += batches.len();
        publish(&shared, &responses, &batches, free, core.cache_stats());
        for (resp, tx) in responses.into_iter().zip(senders) {
            let _ = tx.send(resp);
        }
    }
}

fn publish(
    shared: &Arc<Shared>,
    responses: &[Response],
    batches: &[BatchSummary],
    clock_us: f64,
    cache: CacheStats,
) {
    let mut st = shared.lock();
    for r in responses {
        match &r.result {
            Ok(_) => st.stats.completed += 1,
            Err(_) => st.stats.failed += 1,
        }
    }
    st.stats.batches += batches.len() as u64;
    st.stats.clock_us = clock_us;
    st.stats.cache = cache;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::tests::windows;
    use gpu_sim::DeviceSpec;
    use tridiag_core::generators::random_batch;

    fn group() -> DeviceGroup {
        DeviceGroup::single(DeviceSpec::gtx480())
    }

    fn config(window_us: f64) -> ServiceConfig {
        ServiceConfig {
            window_us,
            ..ServiceConfig::default()
        }
    }

    fn payload(seed: u64) -> Payload {
        Payload::F64(random_batch::<f64>(2, 256, seed))
    }

    /// The threaded worker and the modeled driver take their ticks from
    /// one rule: the same queue gives the same windows and the same
    /// spans, with and without coalescing.
    #[test]
    fn threaded_ticks_match_run_workload() {
        for w in [0.0, 4.0] {
            let service = SolveService::start(group(), config(w));
            service.pause();
            let tickets: Vec<Ticket> = (0..3)
                .map(|i| service.submit(payload(i)).unwrap())
                .collect();
            service.resume();
            let threaded: Vec<Response> = tickets.into_iter().map(Ticket::wait).collect();
            let (_, telemetry) = service.shutdown_with_telemetry();

            let mut core = ServiceCore::new(group(), config(w));
            let requests = (0..3)
                .map(|i| SolveRequest {
                    id: i,
                    arrival_us: 0.0,
                    payload: payload(i),
                })
                .collect();
            let modeled = core.run_workload(requests);
            assert_eq!(windows(&telemetry), windows(core.telemetry()), "window {w}");
            assert_eq!(windows(&telemetry).len(), if w == 0.0 { 3 } else { 1 });
            for (t, m) in threaded.iter().zip(&modeled.responses) {
                assert_eq!(
                    (t.id, t.spans, t.completed_us),
                    (m.id, m.spans, m.completed_us)
                );
            }
        }
    }

    /// A panic while holding the state lock poisons it; the service
    /// then answers typed errors instead of panicking in turn.
    #[test]
    fn poisoned_state_shuts_the_service_down() {
        let service = SolveService::start(group(), config(4.0));
        service.pause();
        let queued = service.submit(payload(1)).unwrap();
        let shared = Arc::clone(&service.shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.state.lock().unwrap();
            panic!("poison the service state");
        });
        assert!(poisoner.join().is_err());
        assert!(service.shared.state.is_poisoned());

        assert_eq!(
            service.submit(payload(2)).unwrap_err(),
            ServiceError::ShuttingDown
        );
        let resp = queued.wait();
        assert_eq!(resp.result, Err(ServiceError::ShuttingDown));
        let stats = service.shutdown();
        assert_eq!((stats.submitted, stats.rejected), (1, 1));
    }

    /// A ticket whose worker vanished without answering reads as a
    /// typed shutdown, not a panic.
    #[test]
    fn vanished_worker_answers_shutting_down() {
        let (tx, rx) = channel();
        drop(tx);
        let resp = Ticket {
            id: 7,
            arrival_us: 3.0,
            rx,
        }
        .wait();
        assert_eq!(resp.id, 7);
        assert_eq!(resp.result, Err(ServiceError::ShuttingDown));
        assert_eq!((resp.batch, resp.completed_us), (None, 3.0));
    }
}
