//! Shard worker supervision: spawn, watch, restart, park.
//!
//! The [`Supervisor`] owns one `kbqa-shardd` process per shard of the
//! bundle's [`ShardPlan`](kbqa_core::ShardPlan) and the remote
//! [`ShardRouter`] the service scatters through. Its
//! monitor thread ticks at the heartbeat interval and drives each worker
//! through a tiny state machine:
//!
//! ```text
//!            spawn ok + ping ok
//!   (start) ────────────────────▶ Up ──────────────┐
//!      ▲                          │ exit / hang    │ breaker trips
//!      │ backoff elapsed,         ▼                ▼
//!      └─────────────────── Restarting ────────▶ Parked
//!                                (fault flag set: owned questions
//!                                 refuse fast, everything else serves)
//! ```
//!
//! * **Crash detection** is `try_wait` (the child exited) — the lane's
//!   fault flag is set *immediately*, so in-flight and subsequent lookups
//!   fail fast to [`Refusal::ShardUnavailable`] instead of burning a
//!   connect timeout each.
//! * **Hang detection** is heartbeat age: a worker that stops answering
//!   pings (SIGSTOP, swap death) past the grace window is declared hung,
//!   SIGKILLed and treated as a crash. Until then, per-lookup deadlines
//!   on the remote lane bound request latency.
//! * **Restart cadence** is [`BackoffPolicy`]: exponential from `base`,
//!   capped at `max`, plus a deterministic jitter hashed from the shard id
//!   and attempt number (reproducible in tests; no wall-clock
//!   randomness).
//! * **Crash-loop containment** is [`CrashLoopBreaker`]: more than
//!   `max_restarts` crashes inside `window` parks the shard — the router
//!   serves degraded (typed refusals for owned questions) until an
//!   operator intervenes, rather than forking a restart storm. Both
//!   policies are pure functions of passed-in [`Instant`]s, unit-tested
//!   without sleeping.
//! * **Reload** is two-phase: [`Supervisor::stage_and_commit`] stages
//!   epoch N+1 on every up worker, then commits everywhere, then the
//!   caller swaps in the next epoch's service. Workers refuse lookups above their
//!   committed epoch, so a batch pinned to one snapshot can never merge
//!   values from two epochs.
//! * **Shutdown** is graceful: a `Terminate` frame per worker, then
//!   SIGKILL after `terminate_grace`.
//!
//! [`Refusal::ShardUnavailable`]: kbqa_core::service::Refusal

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kbqa_core::persist::{self, shard_store_file};
use kbqa_core::wire::Frame;
use kbqa_core::{RemoteOptions, RemoteShard, ShardRouter};
use serde::{Deserialize, Serialize};

/// SplitMix64: the deterministic hash behind restart jitter and the 429
/// `Retry-After` spread. Statistically solid for seeds that differ in one
/// bit, trivially reproducible in tests, and free of wall-clock state.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exponential backoff with deterministic jitter. Pure: `delay` depends
/// only on its arguments, so restart cadence is unit-testable with
/// fabricated attempts and replayable from logs.
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// Delay before the first retry (attempt 1).
    pub base: Duration,
    /// Upper bound on any delay, jitter included.
    pub max: Duration,
}

impl BackoffPolicy {
    /// Delay before restart attempt `attempt` (1-based): `base ·
    /// 2^(attempt−1)` capped at `max`, plus up to 50% deterministic jitter
    /// hashed from `seed` and the attempt — a fleet of replicas restarting
    /// the same dead shard spreads out instead of thundering together.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let attempt = attempt.max(1);
        let base_ms = self.base.as_millis() as u64;
        let max_ms = self.max.as_millis() as u64;
        let exp_ms = base_ms
            .saturating_mul(1u64 << (attempt - 1).min(20))
            .min(max_ms);
        let jitter_ms = splitmix64(seed ^ u64::from(attempt)) % (exp_ms / 2 + 1);
        Duration::from_millis(exp_ms.saturating_add(jitter_ms).min(max_ms))
    }
}

/// Crash-loop circuit breaker: more than `max_restarts` recorded crashes
/// inside a sliding `window` trips it. Pure over passed-in [`Instant`]s.
#[derive(Debug)]
pub struct CrashLoopBreaker {
    window: Duration,
    max_restarts: u32,
    recent: VecDeque<Instant>,
}

impl CrashLoopBreaker {
    /// A breaker tripping on more than `max_restarts` crashes per `window`.
    pub fn new(window: Duration, max_restarts: u32) -> Self {
        Self {
            window,
            max_restarts,
            recent: VecDeque::new(),
        }
    }

    /// Record a crash observed at `now`; returns `true` when the breaker
    /// trips (the shard should be parked).
    pub fn record(&mut self, now: Instant) -> bool {
        self.recent.push_back(now);
        while let Some(&front) = self.recent.front() {
            if now.duration_since(front) > self.window {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        self.recent.len() > self.max_restarts as usize
    }

    /// Crashes currently inside the window.
    pub fn in_window(&self) -> usize {
        self.recent.len()
    }
}

/// Supervisor tuning. Defaults suit production; tests shrink every window
/// to keep the chaos suite fast.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Directory holding the shard snapshots (`store.shard-{i}.snap`).
    pub bundle_dir: PathBuf,
    /// Path of the `kbqa-shardd` binary.
    pub worker_binary: PathBuf,
    /// Directory for worker unix sockets (one `shard-{i}.sock` each).
    pub socket_dir: PathBuf,
    /// Monitor tick / ping cadence.
    pub heartbeat_interval: Duration,
    /// Per-ping reply deadline.
    pub heartbeat_timeout: Duration,
    /// Heartbeat age past which a live-but-silent worker is declared hung
    /// and killed.
    pub hang_grace: Duration,
    /// Restart cadence.
    pub backoff: BackoffPolicy,
    /// Crash-loop window.
    pub breaker_window: Duration,
    /// Crashes tolerated per window before parking.
    pub breaker_max_restarts: u32,
    /// Per-lookup wall-clock budget on the remote lanes (covers retries).
    pub lookup_deadline: Duration,
    /// Transient-error retries per lookup.
    pub lookup_retries: u32,
    /// How long a freshly spawned worker gets to become pingable.
    pub startup_deadline: Duration,
    /// Grace between `Terminate` and SIGKILL at shutdown.
    pub terminate_grace: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            bundle_dir: PathBuf::from("."),
            worker_binary: PathBuf::from("kbqa-shardd"),
            socket_dir: std::env::temp_dir(),
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_millis(500),
            hang_grace: Duration::from_secs(2),
            backoff: BackoffPolicy {
                base: Duration::from_millis(100),
                max: Duration::from_secs(5),
            },
            breaker_window: Duration::from_secs(30),
            breaker_max_restarts: 5,
            lookup_deadline: Duration::from_millis(500),
            lookup_retries: 1,
            startup_deadline: Duration::from_secs(10),
            terminate_grace: Duration::from_secs(2),
        }
    }
}

/// One worker's externally visible state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerStatus {
    /// Shard id.
    pub shard: usize,
    /// `"up"`, `"restarting"` or `"parked"`.
    pub state: String,
    /// Lifetime restarts (crashes + hang kills + failed restart attempts).
    pub restarts: u64,
    /// Milliseconds since the last successful heartbeat.
    pub heartbeat_age_ms: u64,
    /// The worker's pid while one is running.
    pub pid: Option<u32>,
}

#[derive(Debug)]
enum Phase {
    Up,
    Restarting { next: Instant, attempt: u32 },
    Parked,
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Up => "up",
            Phase::Restarting { .. } => "restarting",
            Phase::Parked => "parked",
        }
    }
}

struct Slot {
    child: Option<Child>,
    phase: Phase,
    restarts: u64,
    last_heartbeat: Instant,
    breaker: CrashLoopBreaker,
}

/// The part of a [`Slot`] that [`Supervisor::status`] reports.
#[derive(Clone, Copy)]
struct Published {
    state: &'static str,
    restarts: u64,
    last_heartbeat: Instant,
    pid: Option<u32>,
}

impl Slot {
    fn published(&self) -> Published {
        Published {
            state: self.phase.name(),
            restarts: self.restarts,
            last_heartbeat: self.last_heartbeat,
            pid: self.child.as_ref().map(Child::id),
        }
    }
}

struct Shared {
    config: SupervisorConfig,
    router: Arc<ShardRouter>,
    slots: Vec<Mutex<Slot>>,
    /// Each slot's status as of the last time the monitor let go of it.
    /// The monitor holds a slot across a ping or a worker start (a reload's
    /// stage must not race a start), up to a deadline; a status read —
    /// `/healthz` or `/metrics`, on a server event loop — must not wait
    /// that out.
    published: Vec<Mutex<Published>>,
    epoch: AtomicU64,
    shutdown: AtomicBool,
    wake: (Mutex<bool>, Condvar),
    reload: Mutex<()>,
}

/// Handle to the supervision tier: the monitor thread, the worker
/// processes, and the remote router they serve.
pub struct Supervisor {
    shared: Arc<Shared>,
    monitor: Option<JoinHandle<()>>,
}

/// Socket path for shard `i` under `dir`.
pub fn socket_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.sock"))
}

impl Supervisor {
    /// Read the bundle's shard plan, spawn one worker per shard, and
    /// return the supervisor plus the remote router to attach to the
    /// service. Workers that fail to come up within the startup deadline
    /// start in `restarting` (degraded but serving) rather than failing
    /// the whole server.
    pub fn start(config: SupervisorConfig, initial_epoch: u64) -> std::io::Result<Supervisor> {
        let plan = persist::load_shard_manifest(&config.bundle_dir)
            .map_err(|e| std::io::Error::other(format!("bundle manifest: {e}")))?
            .ok_or_else(|| {
                std::io::Error::other(format!(
                    "bundle at {} is not sharded (no shard plan in manifest); save it with \
                     a shard plan or unset KBQA_SHARD_WORKERS",
                    config.bundle_dir.display()
                ))
            })?;
        std::fs::create_dir_all(&config.socket_dir)?;
        let opts = RemoteOptions {
            deadline: config.lookup_deadline,
            retries: config.lookup_retries,
            max_idle: 8,
        };
        let lanes: Vec<RemoteShard> = (0..plan.shards())
            .map(|i| RemoteShard::new(i, socket_path(&config.socket_dir, i), opts.clone()))
            .collect();
        let router = Arc::new(ShardRouter::from_remote(plan, lanes));
        let now = Instant::now();
        let slots: Vec<Slot> = (0..router.shard_count())
            .map(|_| Slot {
                child: None,
                phase: Phase::Restarting {
                    next: now,
                    attempt: 0,
                },
                restarts: 0,
                last_heartbeat: now,
                breaker: CrashLoopBreaker::new(config.breaker_window, config.breaker_max_restarts),
            })
            .collect();
        let published = slots.iter().map(|s| Mutex::new(s.published())).collect();
        let shared = Arc::new(Shared {
            config,
            router,
            slots: slots.into_iter().map(Mutex::new).collect(),
            published,
            epoch: AtomicU64::new(initial_epoch),
            shutdown: AtomicBool::new(false),
            wake: (Mutex::new(false), Condvar::new()),
            reload: Mutex::new(()),
        });
        // Every lane starts poisoned; the first successful bring-up heals
        // it. Owned questions refuse (typed, fast) until then.
        for i in 0..shared.router.shard_count() {
            shared.router.inject_fault(i);
        }
        // Synchronous first bring-up: a healthy fleet is Up before serve()
        // accepts a connection; an unhealthy worker stays Restarting and
        // the monitor keeps trying.
        for i in 0..shared.router.shard_count() {
            let mut slot = shared.slots[i].lock().unwrap();
            try_start_worker(&shared, i, &mut slot, Instant::now());
            publish(&shared, i, &slot);
        }
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kbqa-supervisor".into())
                .spawn(move || monitor_loop(&shared))?
        };
        Ok(Supervisor {
            shared,
            monitor: Some(monitor),
        })
    }

    /// The remote router served by this supervisor's workers.
    pub fn router(&self) -> Arc<ShardRouter> {
        Arc::clone(&self.shared.router)
    }

    /// Per-worker state snapshot (healthz, metrics), as of the monitor's
    /// last pass over each worker: never waits on a ping or a start.
    pub fn status(&self) -> Vec<WorkerStatus> {
        let now = Instant::now();
        self.shared
            .published
            .iter()
            .enumerate()
            .map(|(i, published)| {
                let published = *published.lock().unwrap();
                WorkerStatus {
                    shard: i,
                    state: published.state.to_string(),
                    restarts: published.restarts,
                    heartbeat_age_ms: now
                        .saturating_duration_since(published.last_heartbeat)
                        .as_millis() as u64,
                    pid: published.pid,
                }
            })
            .collect()
    }

    /// Number of shards not currently `up` (as [`Supervisor::status`]
    /// reports them).
    pub fn degraded(&self) -> usize {
        self.shared
            .published
            .iter()
            .filter(|published| published.lock().unwrap().state != "up")
            .count()
    }

    /// The epoch workers are committed at (restarted workers rejoin here).
    pub fn current_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The pid of shard `i`'s worker, when one is running (chaos tests).
    pub fn worker_pid(&self, shard: usize) -> Option<u32> {
        self.shared.slots[shard]
            .lock()
            .unwrap()
            .child
            .as_ref()
            .map(Child::id)
    }

    /// Two-phase epoch swap across the fleet: stage `epoch` on every up
    /// worker (phase 1 — any failure aborts with nothing committed, the
    /// old epoch keeps serving), then commit everywhere (phase 2). Only
    /// after `Ok` should the caller swap in the next epoch's service, so
    /// requests never pin an epoch no worker has committed. Workers not up are
    /// skipped — they rejoin at the new epoch on restart.
    pub fn stage_and_commit(&self, epoch: u64) -> Result<(), String> {
        let _guard = self.shared.reload.lock().unwrap();
        let lanes = self.shared.router.lanes();
        let budget = self.shared.config.startup_deadline;
        let up: Vec<usize> = (0..lanes.len())
            .filter(|&i| matches!(self.shared.slots[i].lock().unwrap().phase, Phase::Up))
            .collect();
        for &i in &up {
            let snapshot = self
                .shared
                .config
                .bundle_dir
                .join(shard_store_file(i))
                .display()
                .to_string();
            match lanes[i].call_with(&Frame::Stage { epoch, snapshot }, budget, 1) {
                Ok(Frame::Staged { epoch: e }) if e == epoch => {}
                Ok(other) => {
                    return Err(format!("shard {i}: stage {epoch} refused: {other:?}"));
                }
                Err(e) => return Err(format!("shard {i}: stage {epoch} failed: {e}")),
            }
        }
        for &i in &up {
            match lanes[i].call_with(&Frame::Commit { epoch }, budget, 1) {
                Ok(Frame::Committed { epoch: e }) if e == epoch => {}
                // A worker dying between stage and commit is a plain crash:
                // poison its lane and let the monitor restart it at the new
                // epoch. The flip stays atomic for every surviving worker.
                _ => self.shared.router.inject_fault(i),
            }
        }
        self.shared.epoch.store(epoch, Ordering::Release);
        Ok(())
    }

    /// Stop monitoring and terminate every worker: `Terminate` frame
    /// first, SIGKILL after the grace deadline. Idempotent per worker.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let (lock, cvar) = &self.shared.wake;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
        let grace = self.shared.config.terminate_grace;
        let lanes = self.shared.router.lanes();
        for (i, slot) in self.shared.slots.iter().enumerate() {
            let mut slot = slot.lock().unwrap();
            let Some(mut child) = slot.child.take() else {
                continue;
            };
            // Clean terminate: the worker acknowledges and exits 0.
            let _ = lanes[i].call_with(&Frame::Terminate, grace, 0);
            let deadline = Instant::now() + grace;
            let exited = loop {
                match child.try_wait() {
                    Ok(Some(_)) => break true,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => break false,
                }
            };
            if !exited {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::Acquire) {
            self.stop_inner();
        }
    }
}

fn monitor_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::Acquire) {
        tick(shared, Instant::now());
        let (lock, cvar) = &shared.wake;
        let guard = lock.lock().unwrap();
        let _unused = cvar
            .wait_timeout(guard, shared.config.heartbeat_interval)
            .unwrap();
    }
}

/// One monitor pass over every slot at time `now`.
fn tick(shared: &Shared, now: Instant) {
    for i in 0..shared.slots.len() {
        let mut slot = shared.slots[i].lock().unwrap();
        match slot.phase {
            Phase::Up => check_up_worker(shared, i, &mut slot, now),
            Phase::Restarting { next, .. } => {
                if now >= next {
                    try_start_worker(shared, i, &mut slot, now);
                }
            }
            Phase::Parked => {}
        }
        publish(shared, i, &slot);
    }
}

/// Make slot `i`'s current state what [`Supervisor::status`] reports.
fn publish(shared: &Shared, i: usize, slot: &Slot) {
    *shared.published[i].lock().unwrap() = slot.published();
}

fn check_up_worker(shared: &Shared, i: usize, slot: &mut Slot, now: Instant) {
    // Child exit beats heartbeat: a dead process needs no ping to diagnose.
    if let Some(child) = slot.child.as_mut() {
        if let Ok(Some(_status)) = child.try_wait() {
            slot.child = None;
            on_crash(shared, i, slot, now, "exited");
            return;
        }
    }
    let lane = &shared.router.lanes()[i];
    let nonce = splitmix64((i as u64) << 48 ^ slot.restarts);
    match lane.ping(nonce, shared.config.heartbeat_timeout) {
        Ok(_) => slot.last_heartbeat = now,
        Err(_) => {
            if now.saturating_duration_since(slot.last_heartbeat) > shared.config.hang_grace {
                // Alive but silent past the grace: hung. Kill and treat as
                // a crash (SIGKILL works on a SIGSTOPped process too).
                shared.router.inject_fault(i);
                if let Some(mut child) = slot.child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                on_crash(shared, i, slot, now, "hung");
            }
            // Inside the grace: per-lookup deadlines bound request latency;
            // give the worker another tick.
        }
    }
}

fn on_crash(shared: &Shared, i: usize, slot: &mut Slot, now: Instant, _why: &str) {
    shared.router.inject_fault(i);
    shared.router.lanes()[i].clear_pool();
    slot.restarts += 1;
    if slot.breaker.record(now) {
        slot.phase = Phase::Parked;
        return;
    }
    let attempt = match slot.phase {
        Phase::Restarting { attempt, .. } => attempt + 1,
        _ => 1,
    };
    slot.phase = Phase::Restarting {
        next: now
            + shared
                .config
                .backoff
                .delay(attempt, (i as u64) << 32 | u64::from(attempt)),
        attempt,
    };
}

/// Spawn shard `i`'s worker and wait (bounded) for it to answer a ping.
/// On success the slot goes `Up` and the lane heals; on failure the crash
/// accounting runs (which may park a crash-looping shard).
fn try_start_worker(shared: &Shared, i: usize, slot: &mut Slot, now: Instant) {
    let config = &shared.config;
    let epoch = shared.epoch.load(Ordering::Acquire);
    let spawned = Command::new(&config.worker_binary)
        .arg("--shard")
        .arg(i.to_string())
        .arg("--snapshot")
        .arg(config.bundle_dir.join(shard_store_file(i)))
        .arg("--socket")
        .arg(socket_path(&config.socket_dir, i))
        .arg("--epoch")
        .arg(epoch.to_string())
        .stdin(Stdio::null())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(_) => {
            on_crash(shared, i, slot, now, "spawn failed");
            return;
        }
    };
    let lane = &shared.router.lanes()[i];
    lane.clear_pool();
    let deadline = Instant::now() + config.startup_deadline;
    let mut ready = false;
    while Instant::now() < deadline {
        if let Ok(Some(_)) = child.try_wait() {
            break; // died during startup; no point pinging the corpse
        }
        if lane.ping(0, config.heartbeat_timeout).is_ok() {
            ready = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if ready {
        slot.child = Some(child);
        slot.phase = Phase::Up;
        slot.last_heartbeat = Instant::now();
        shared.router.heal(i);
    } else {
        let _ = child.kill();
        let _ = child.wait();
        on_crash(shared, i, slot, Instant::now(), "startup timeout");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test below fabricates time: policies are pure over Instants,
    // so backoff/breaker behaviour is pinned without a single sleep.

    fn policy(base_ms: u64, max_ms: u64) -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(base_ms),
            max: Duration::from_millis(max_ms),
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = policy(100, 5_000);
        let unjittered: Vec<u64> = (1..=8)
            .map(|a| {
                // Strip jitter by reconstructing the floor: delay is in
                // [exp, min(1.5·exp, max)].
                let d = p.delay(a, 7).as_millis() as u64;
                let exp = (100u64 << (a - 1)).min(5_000);
                assert!(
                    d >= exp && d <= (exp + exp / 2).min(5_000),
                    "attempt {a}: {d}ms outside [{exp}, {}]",
                    (exp + exp / 2).min(5_000)
                );
                exp
            })
            .collect();
        assert_eq!(unjittered, vec![100, 200, 400, 800, 1600, 3200, 5000, 5000]);
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_spread() {
        let p = policy(100, 10_000);
        for attempt in 1..=6 {
            for seed in 0..32 {
                assert_eq!(
                    p.delay(attempt, seed),
                    p.delay(attempt, seed),
                    "same inputs, same delay"
                );
            }
        }
        // Different seeds actually spread (not all equal).
        let delays: std::collections::BTreeSet<Duration> = (0..32).map(|s| p.delay(4, s)).collect();
        assert!(delays.len() > 8, "jitter spreads restarts: {delays:?}");
    }

    #[test]
    fn breaker_trips_only_on_crashes_inside_the_window() {
        let t0 = Instant::now();
        let mut b = CrashLoopBreaker::new(Duration::from_secs(30), 3);
        // Three crashes in-window: tolerated.
        assert!(!b.record(t0));
        assert!(!b.record(t0 + Duration::from_secs(5)));
        assert!(!b.record(t0 + Duration::from_secs(10)));
        // Fourth inside the window: trips.
        assert!(b.record(t0 + Duration::from_secs(12)));
    }

    #[test]
    fn breaker_forgets_crashes_older_than_the_window() {
        let t0 = Instant::now();
        let mut b = CrashLoopBreaker::new(Duration::from_secs(30), 2);
        assert!(!b.record(t0));
        assert!(!b.record(t0 + Duration::from_secs(1)));
        // 40s later both earlier crashes have aged out.
        assert!(!b.record(t0 + Duration::from_secs(40)));
        assert_eq!(b.in_window(), 1);
        assert!(!b.record(t0 + Duration::from_secs(41)));
        assert!(b.record(t0 + Duration::from_secs(42)));
    }

    #[test]
    fn restart_storm_is_contained_by_the_breaker() {
        // A worker crash-looping every 50ms: the breaker must trip within
        // max_restarts+1 records and stay tripped for the whole storm.
        let t0 = Instant::now();
        let mut b = CrashLoopBreaker::new(Duration::from_secs(30), 5);
        let mut tripped_at = None;
        for k in 0..100u64 {
            let tripped = b.record(t0 + Duration::from_millis(50 * k));
            if tripped && tripped_at.is_none() {
                tripped_at = Some(k);
            }
            if let Some(at) = tripped_at {
                assert!(
                    tripped || k < at,
                    "breaker un-tripped mid-storm at crash {k}"
                );
            }
        }
        assert_eq!(tripped_at, Some(5), "trips on the 6th crash in-window");
        // Containment: the storm records 100 crashes but the breaker keeps
        // the shard parked — at most max_restarts+1 restarts ever ran.
    }

    #[test]
    fn backoff_plus_breaker_bound_restart_attempts_over_time() {
        // Drive the *policy pair* the monitor uses with synthetic time: a
        // worker that dies instantly on every start. Count how many
        // restarts happen before parking.
        let p = policy(100, 5_000);
        let mut b = CrashLoopBreaker::new(Duration::from_secs(30), 5);
        let t0 = Instant::now();
        let mut now = t0;
        let mut restarts = 0u32;
        let mut attempt = 0u32;
        loop {
            if b.record(now) {
                break; // parked
            }
            attempt += 1;
            restarts += 1;
            now += p.delay(attempt, u64::from(attempt));
            assert!(restarts < 50, "breaker never tripped");
        }
        assert_eq!(restarts, 5, "exactly max_restarts attempts before parking");
        // And the elapsed synthetic time is the backoff sum, not zero —
        // i.e. the storm was rate-limited as well as bounded.
        assert!(now.duration_since(t0) >= Duration::from_millis(100 + 200 + 400 + 800));
    }

    #[test]
    fn splitmix_is_stable_and_spreads_adjacent_seeds() {
        assert_eq!(splitmix64(0), splitmix64(0));
        // Adjacent seeds land far apart (the property the Retry-After
        // spread and restart jitter rely on).
        let outputs: std::collections::BTreeSet<u64> = (0..64).map(splitmix64).collect();
        assert_eq!(outputs.len(), 64, "no collisions across adjacent seeds");
        let low_bits: std::collections::BTreeSet<u64> =
            (0..64).map(|s| splitmix64(s) % 8).collect();
        assert!(low_bits.len() >= 6, "low bits vary: {low_bits:?}");
    }
}
