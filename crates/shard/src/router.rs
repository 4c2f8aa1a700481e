//! The sharded router: `S` independent BGPQ instances behind a
//! MultiQueue-style front.
//!
//! * **Inserts** route whole batches to one shard chosen by the
//!   caller's sticky affinity, so each shard still sees the sorted,
//!   batch-at-a-time traffic its partial buffer and root cache are
//!   built for (§3.2/§4.3 of the paper apply per shard unchanged).
//! * **Deletes** sample `c` of `S` shards, compare their cached
//!   root-min hints ([`Bgpq::min_hint_bits`]) without taking any locks,
//!   and take a batch from the best. If the best raced empty the
//!   remaining sampled shards are tried in hint order (work stealing);
//!   if all sampled shards miss, an exact sweep attempts a real delete
//!   on *every* shard before reporting emptiness — so quiescent
//!   emptiness and full drains remain precise even though ordering
//!   between shards is relaxed.
//!
//! The router is generic over [`Platform`]: the same code runs on
//! `CpuPlatform` (real threads; see [`crate::cpu`]) and on the gpu-sim
//! scheduler, where each shard models a queue private to one GPU / SM
//! partition.
//!
//! ## Failure handling: circuit breaker per shard
//!
//! A shard that fails (poisoned heap, lock timeout) trips its breaker
//! **Open**: it is excluded from routing, sampling and sweeps, and the
//! survivors absorb its traffic. Without recovery configured that is
//! permanent — the original fail-stop behaviour. With
//! [`ShardedOptions::recovery`] set (and a salvager installed, see
//! [`ShardedBgpq::with_platforms_recovering`]), the breaker follows the
//! classic state machine:
//!
//! * **Open** — after an exponential, jittered backoff (measured in
//!   router operations, so it is deterministic per schedule and needs
//!   no clock), the next operation to notice the expired deadline
//!   probes the shard: it waits for in-flight operations to drain,
//!   salvages the crashed heap through the installed salvager
//!   (`bgpq-recover` on the CPU platform), and rebuilds it from its own
//!   recovered keys (spilling to survivors if the home shard refuses).
//! * **Half-open** — the rebuilt shard serves trial traffic. Each
//!   successful operation burns one trial token; a failure re-opens the
//!   breaker with a doubled backoff.
//! * **Closed** — trial traffic succeeded; the shard is fully
//!   re-admitted.
//!
//! Key accounting is conservative and loud: every key a salvage could
//! not recover is counted in [`QualitySnapshot::keys_lost`] — loss is
//! never silent.
//!
//! ## Buffered mode
//!
//! With [`ShardedOptions::buffer`] set, single ops stage in and serve
//! from per-worker buffers that the router flushes and refills in whole
//! `k`-batches (`ShardedBgpq::buffered_*`). The buffered state, its
//! rank-error bound and its lock discipline are documented in
//! `buffer.rs`; this module keeps the shard calls.

use crate::buffer::{BufferPolicy, Buffers, WorkerBuffers, BUFFER_SLOTS};
use crate::quality::{QualitySnapshot, QualityStats};
#[cfg(any(test, feature = "mutations"))]
use bgpq::Mutation;
use bgpq::{Bgpq, BgpqOptions};
use bgpq_recover::SalvageReport;
use bgpq_runtime::Platform;
use pq_api::{Entry, KeyType, OpStats, QueueError, ValueType};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Configuration of a [`ShardedBgpq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedOptions {
    /// Number of independent BGPQ shards `S`.
    pub shards: usize,
    /// Shards sampled per delete `c` (clamped to `1..=S`). `c = S`
    /// degenerates to always taking the globally best hint.
    pub sample: usize,
    /// Per-shard heap configuration. Every shard is built with the same
    /// options; note the heap preallocates `max_nodes * node_capacity`
    /// entries per shard, so total memory scales with `S`.
    pub queue: BgpqOptions,
    /// Circuit-breaker recovery for crashed shards. `None` (the
    /// default) keeps quarantine permanent; `Some` enables salvage,
    /// rebuild and re-admission — provided the front also installs a
    /// salvager (the CPU front does automatically; see
    /// [`ShardedBgpq::with_platforms_recovering`]).
    pub recovery: Option<RecoveryOptions>,
    /// Buffered operating mode (per-worker insert/delete buffers with
    /// sticky shard selection — see the module docs). `None` (the
    /// default) keeps the unbuffered front, and the buffered entry
    /// points fall through to it.
    pub buffer: Option<BufferPolicy>,
}

impl ShardedOptions {
    pub fn new(shards: usize, sample: usize, queue: BgpqOptions) -> Self {
        Self { shards, sample, queue, recovery: None, buffer: None }
    }

    /// Enable circuit-breaker recovery with the given policy.
    pub fn with_recovery(mut self, recovery: RecoveryOptions) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Enable the buffered operating mode with the given policy.
    pub fn with_buffering(mut self, buffer: BufferPolicy) -> Self {
        self.buffer = Some(buffer);
        self
    }

    /// Options where *each shard* can hold `items` keys with node
    /// capacity `k`. Sizing every shard for the full workload is
    /// deliberate: sticky affinity means a single producer thread sends
    /// everything to one shard, and the heap's backing array does not
    /// grow.
    pub fn with_capacity_for(shards: usize, sample: usize, k: usize, items: usize) -> Self {
        Self::new(shards, sample, BgpqOptions::with_capacity_for(k, items))
    }

    pub fn validate(&self) {
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.sample >= 1, "must sample at least one shard");
        if let Some(b) = &self.buffer {
            b.validate();
        }
        self.queue.validate();
    }
}

impl Default for ShardedOptions {
    fn default() -> Self {
        Self::new(4, 2, BgpqOptions::default())
    }
}

/// Circuit-breaker policy for shard recovery. All deadlines are in
/// *router operations* (one tick per `try_insert` / `try_delete_min`),
/// not wall time: deterministic per schedule, meaningful on both the
/// thread and the gpu-sim platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Router operations to wait before the first salvage probe of a
    /// freshly opened breaker. Doubled on each re-open (pre-jitter).
    pub base_backoff_ops: u64,
    /// Cap on the backoff growth (pre-jitter).
    pub max_backoff_ops: u64,
    /// Successful shard operations required in half-open before the
    /// breaker closes and the shard counts as re-admitted.
    pub trial_ops: u64,
    /// Salvage attempts per shard before its quarantine becomes
    /// permanent after all (a shard that keeps crashing is hardware,
    /// not luck). `0` means unlimited.
    pub max_generations: u32,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self { base_backoff_ops: 64, max_backoff_ops: 4096, trial_ops: 8, max_generations: 8 }
    }
}

/// Observable state of one shard's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Serving normally.
    Closed,
    /// Quarantined: excluded from routing until a salvage probe (or
    /// forever, when recovery is off or generations are exhausted).
    Open,
    /// Salvaged and rebuilt; serving trial traffic.
    HalfOpen,
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// How long a salvage probe spins waiting for a quarantined shard's
/// straggler operations to drain before giving up and rescheduling.
const QUIESCE_SPINS: u32 = 100_000;

/// Per-shard breaker: state machine plus the bookkeeping recovery
/// needs (probe deadline, attempt generation, trial budget, and an
/// in-flight count so salvage can wait out stragglers that passed the
/// quarantine check before the breaker opened).
#[derive(Debug)]
struct Breaker {
    state: AtomicU8,
    /// Salvage attempts so far; doubles the backoff and feeds jitter.
    generation: AtomicU32,
    /// Global op-count after which the next probe may run (Open only).
    probe_at: AtomicU64,
    /// Successful trial operations still required to close (HalfOpen).
    trial_left: AtomicU64,
    /// Probe mutual exclusion: only one operation salvages at a time.
    recovering: AtomicBool,
    /// Operations currently inside this shard's heap.
    inflight: AtomicU64,
}

impl Breaker {
    fn new() -> Self {
        Self {
            state: AtomicU8::new(CLOSED),
            generation: AtomicU32::new(0),
            probe_at: AtomicU64::new(0),
            trial_left: AtomicU64::new(0),
            recovering: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
        }
    }
}

/// Decrement-on-drop in-flight token. Drop runs during unwind too, so
/// an operation killed inside a shard (an injected panic, say) still
/// releases its token and cannot wedge later salvage quiescence.
struct InflightGuard<'a>(&'a AtomicU64);

impl<'a> InflightGuard<'a> {
    fn enter(counter: &'a AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::AcqRel);
        Self(counter)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Platform capability hook: salvage one crashed heap (reset abandoned
/// locks, walk settled keys into the vec, reset to empty) and report
/// the accounting. On the CPU platform this is
/// [`bgpq_recover::salvage_heap`]; platforms without a safe
/// force-unlock simply install none and keep permanent quarantine.
pub type Salvager<K, V, P> =
    fn(&Bgpq<K, V, P>, &mut <P as Platform>::Worker, &mut Vec<Entry<K, V>>) -> SalvageReport;

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Backoff before generation `gen`'s probe of shard `shard`:
/// exponential (`base << gen`, capped) with deterministic jitter in
/// `[raw/2, 3*raw/2)` drawn from the (shard, generation) pair — shards
/// opened by one fault burst do not probe in lockstep.
fn backoff_ops(rec: &RecoveryOptions, shard: usize, gen: u32) -> u64 {
    let raw =
        rec.base_backoff_ops.saturating_mul(1u64 << gen.min(20)).min(rec.max_backoff_ops).max(1);
    let r = splitmix64(((shard as u64) << 32) | u64::from(gen).wrapping_add(1));
    raw / 2 + r % raw
}

/// xorshift64*: tiny, allocation-free PRNG for shard sampling. The
/// caller owns the state (one word per worker), keeping the router
/// itself stateless across operations.
#[inline]
fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Per-worker routing scratch: the sampled-delete work lists (live
/// shards, hint snapshot, sampled picks). Parked in the worker's
/// [`pq_api::ScratchSlot`] between deletes, alongside the heap's own
/// arena — distinct types share the slot, so the router taking its
/// scratch never conflicts with the shard heaps taking theirs inside
/// the same operation.
#[derive(Debug, Default)]
struct RouterScratch {
    live: Vec<usize>,
    hints: Vec<u64>,
    picks: Vec<usize>,
}

/// `S` BGPQ instances behind a relaxed, sampled router.
pub struct ShardedBgpq<K: KeyType, V: ValueType, P: Platform> {
    shards: Box<[Bgpq<K, V, P>]>,
    sample: usize,
    quality: QualityStats,
    /// Per-shard circuit breakers: a shard that poisoned itself or hit
    /// a lock timeout opens its breaker and is excluded from routing,
    /// sampling and sweeps — the surviving shards absorb its traffic.
    /// With `recovery` + `salvager` set, open breakers are probed,
    /// salvaged and re-admitted; otherwise quarantine is permanent.
    breakers: Box<[Breaker]>,
    /// Recovery policy; `None` keeps quarantine permanent.
    recovery: Option<RecoveryOptions>,
    /// Platform salvage capability; `None` keeps quarantine permanent.
    salvager: Option<Salvager<K, V, P>>,
    /// Router operation counter: the clock that backoff deadlines are
    /// measured against. Ticks only when recovery is configured.
    ops: AtomicU64,
    /// Number of breakers currently Open (fast path guard: zero means
    /// the per-op recovery scan is skipped entirely).
    open_shards: AtomicU64,
    /// Buffered-mode state (policy, per-worker slots, parked-key
    /// count); `None` when unbuffered.
    buffers: Option<Buffers<K, V>>,
    /// Front-level counters for the buffered mode (flushes, refills,
    /// stickiness; shard-level traffic keeps landing in the per-shard
    /// [`OpStats`] as before).
    front_stats: OpStats,
    /// Verification self-test mutation (see [`bgpq::Mutation`]), copied
    /// from the per-shard queue options so router-level mutations
    /// ([`bgpq::Mutation::SweepDiscardsOnTrip`]) are honored at this
    /// layer. Compiled out of production builds.
    #[cfg(any(test, feature = "mutations"))]
    mutation: Mutation,
}

impl<K: KeyType, V: ValueType, P: Platform> ShardedBgpq<K, V, P> {
    /// Build from one platform instance per shard (each shard owns its
    /// lock table). `platforms.len()` must equal `opts.shards`, and
    /// each platform needs at least `opts.queue.max_nodes + 1` locks.
    ///
    /// No salvager is installed, so even with [`ShardedOptions::recovery`]
    /// set quarantine stays permanent; use
    /// [`ShardedBgpq::with_platforms_recovering`] (or the CPU front,
    /// which wires it up automatically) for self-healing.
    pub fn with_platforms(platforms: Vec<P>, opts: ShardedOptions) -> Self {
        Self::build(platforms, opts, None)
    }

    /// [`ShardedBgpq::with_platforms`] plus a platform salvage hook:
    /// when `opts.recovery` is set, opened breakers are probed after
    /// backoff, crashed shards salvaged through `salvager`, rebuilt
    /// from their own recovered keys, and re-admitted via half-open
    /// trial traffic.
    pub fn with_platforms_recovering(
        platforms: Vec<P>,
        opts: ShardedOptions,
        salvager: Salvager<K, V, P>,
    ) -> Self {
        Self::build(platforms, opts, Some(salvager))
    }

    fn build(platforms: Vec<P>, opts: ShardedOptions, salvager: Option<Salvager<K, V, P>>) -> Self {
        opts.validate();
        assert_eq!(platforms.len(), opts.shards, "one platform per shard");
        let shards: Vec<Bgpq<K, V, P>> =
            platforms.into_iter().map(|p| Bgpq::with_platform(p, opts.queue)).collect();
        let breakers = (0..opts.shards).map(|_| Breaker::new()).collect();
        Self {
            shards: shards.into_boxed_slice(),
            sample: opts.sample.clamp(1, opts.shards),
            quality: QualityStats::new(),
            breakers,
            recovery: opts.recovery,
            salvager,
            ops: AtomicU64::new(0),
            open_shards: AtomicU64::new(0),
            buffers: opts.buffer.map(|p| Buffers::new(p, opts.queue.node_capacity)),
            front_stats: OpStats::new(),
            #[cfg(any(test, feature = "mutations"))]
            mutation: opts.queue.mutation,
        }
    }

    /// Access-tag the front's shared coordination state (breaker
    /// states, in-flight tokens, the recovery op clock) for schedule
    /// exploration: maps to [`Platform::touch_shared`], a no-op outside
    /// the simulator. Reads conflict only with breaker transitions, so
    /// fault-free schedules keep their cross-shard independence.
    #[inline]
    fn touch_front(&self, w: &mut P::Worker, write: bool) {
        self.shards[0].platform().touch_shared(w, write);
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shards sampled per delete (after clamping to `1..=S`).
    pub fn sample(&self) -> usize {
        self.sample
    }

    /// Direct access to one shard (tests, invariant checks).
    pub fn shard(&self, i: usize) -> &Bgpq<K, V, P> {
        &self.shards[i]
    }

    /// Batch capacity `k` (identical across shards).
    pub fn node_capacity(&self) -> usize {
        self.shards[0].node_capacity()
    }

    /// Which shard an affinity token routes to.
    #[inline]
    pub fn shard_for(&self, affinity: usize) -> usize {
        affinity % self.shards.len()
    }

    /// Whether shard `i` has been taken out of rotation (breaker Open).
    /// Half-open shards are *live*: they serve trial traffic.
    pub fn is_quarantined(&self, i: usize) -> bool {
        self.breakers[i].state.load(Ordering::Relaxed) == OPEN
    }

    /// Number of shards currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.breakers.iter().filter(|b| b.state.load(Ordering::Relaxed) == OPEN).count()
    }

    /// Observable breaker state of shard `i`.
    pub fn breaker_state(&self, i: usize) -> BreakerState {
        match self.breakers[i].state.load(Ordering::Relaxed) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Take shard `i` out of rotation (idempotent while Open). Called
    /// by the routing paths when a shard reports `Poisoned` or
    /// `LockTimeout`; also available to callers that detect a failure
    /// out of band. With recovery configured this schedules a salvage
    /// probe after an exponential, jittered backoff; each re-open
    /// doubles the wait.
    pub fn quarantine(&self, i: usize) {
        let b = &self.breakers[i];
        let prev = b.state.swap(OPEN, Ordering::SeqCst);
        if prev == OPEN {
            return;
        }
        self.open_shards.fetch_add(1, Ordering::Relaxed);
        self.quality.record_quarantine();
        OpStats::bump(&self.shards[i].stats().shard_quarantines);
        if let Some(rec) = &self.recovery {
            let gen = b.generation.fetch_add(1, Ordering::Relaxed);
            let now = self.ops.load(Ordering::Relaxed);
            b.probe_at.store(now.saturating_add(backoff_ops(rec, i, gen)), Ordering::Relaxed);
        }
    }

    /// Advance the recovery clock and run due salvage probes. Called at
    /// the top of every routing operation; free when recovery is off,
    /// one relaxed increment plus one load when no breaker is open.
    fn tick(&self, w: &mut P::Worker) {
        let (Some(rec), Some(salvager)) = (self.recovery, self.salvager) else {
            return;
        };
        // The op clock is written by every operation: with recovery
        // armed, front traffic is genuinely order-sensitive (which op
        // crosses a probe deadline first matters).
        self.touch_front(w, true);
        let now = self.ops.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        if self.open_shards.load(Ordering::Relaxed) == 0 {
            return;
        }
        for i in 0..self.shards.len() {
            let b = &self.breakers[i];
            if b.state.load(Ordering::Acquire) != OPEN
                || now < b.probe_at.load(Ordering::Relaxed)
                || (rec.max_generations != 0
                    && b.generation.load(Ordering::Relaxed) > rec.max_generations)
            {
                continue;
            }
            if b.recovering.swap(true, Ordering::Acquire) {
                continue; // another operation is already probing
            }
            if b.state.load(Ordering::Acquire) == OPEN {
                self.probe_shard(i, w, salvager, &rec, now);
            }
            b.recovering.store(false, Ordering::Release);
        }
    }

    /// One salvage probe: wait for stragglers, salvage, rebuild, and
    /// move the shard to half-open. Runs under the breaker's
    /// `recovering` lock with the breaker Open, so no routing path can
    /// enter the shard concurrently.
    fn probe_shard(
        &self,
        i: usize,
        w: &mut P::Worker,
        salvager: Salvager<K, V, P>,
        rec: &RecoveryOptions,
        now: u64,
    ) {
        self.quality.record_probe();
        // The whole probe mutates front state (quiesce reads, breaker
        // transition to half-open); the salvage itself tags the shard's
        // own lock domain through the salvager.
        self.touch_front(w, true);
        let b = &self.breakers[i];

        // Quiescence: operations that passed the quarantine check just
        // before the breaker opened may still be inside (or unwinding
        // out of) the shard. Their in-flight tokens release even on
        // panic; wait them out, bounded — a wedged straggler (its
        // watchdog has not fired yet) just postpones this probe.
        let mut spins = 0u32;
        while b.inflight.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins > QUIESCE_SPINS {
                b.probe_at
                    .store(now.saturating_add(rec.base_backoff_ops.max(1)), Ordering::Relaxed);
                return;
            }
            std::hint::spin_loop();
        }

        let mut recovered: Vec<Entry<K, V>> = Vec::new();
        let report = salvager(&self.shards[i], w, &mut recovered);
        self.quality.record_salvage(report.keys_recovered as u64, report.keys_lost as u64);

        // Rebuild the shard from its own keys; spill chunks the freshly
        // reset home shard refuses (it re-poisoned, or raced Full) to
        // the survivors, and count anything nobody accepted as lost —
        // loudly, never silently.
        let k = self.shards[i].node_capacity();
        let mut residue = 0u64;
        for chunk in recovered.chunks(k) {
            if self.shards[i].try_insert(w, chunk).is_ok() {
                continue;
            }
            if !self.spill(w, i, chunk) {
                residue += chunk.len() as u64;
            }
        }
        if residue > 0 {
            self.quality.record_lost(residue);
        }

        // Trial service: live again, but each success burns a token and
        // any failure re-opens with a doubled backoff.
        b.trial_left.store(rec.trial_ops.max(1), Ordering::Relaxed);
        b.state.store(HALF_OPEN, Ordering::Release);
        self.open_shards.fetch_sub(1, Ordering::Relaxed);
    }

    /// Offer `chunk` to any live shard other than `from`. Returns
    /// whether someone took it.
    fn spill(&self, w: &mut P::Worker, from: usize, chunk: &[Entry<K, V>]) -> bool {
        let s = self.shards.len();
        for off in 1..s {
            let i = (from + off) % s;
            if self.is_quarantined(i) {
                continue;
            }
            if self.shards[i].try_insert(w, chunk).is_ok() {
                return true;
            }
        }
        false
    }

    /// Note a successful operation against shard `i`: in half-open it
    /// burns one trial token, and the token that reaches zero closes
    /// the breaker (full re-admission).
    #[inline]
    fn note_success(&self, i: usize) {
        let b = &self.breakers[i];
        if b.state.load(Ordering::Relaxed) != HALF_OPEN {
            return;
        }
        if b.trial_left.fetch_sub(1, Ordering::AcqRel) == 1
            && b.state
                .compare_exchange(HALF_OPEN, CLOSED, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.quality.record_readmission();
        }
    }

    /// Total items across *live* shards plus keys parked in buffer
    /// slots (buffered mode). Exact at quiescence. A quarantined
    /// shard's count is unreliable (it crashed mid-flight) and its keys
    /// are unreachable, so it is excluded.
    pub fn len(&self) -> usize {
        self.live_shards().map(Bgpq::len).sum::<usize>() + self.buffered_len()
    }

    /// The shards not quarantined.
    fn live_shards(&self) -> impl Iterator<Item = &Bgpq<K, V, P>> {
        self.shards.iter().enumerate().filter(|&(i, _)| !self.is_quarantined(i)).map(|(_, s)| s)
    }

    /// Keys currently parked in worker buffers (0 when unbuffered).
    pub fn buffered_len(&self) -> usize {
        self.buffers.as_ref().map_or(0, Buffers::len)
    }

    /// Whether the buffered operating mode is on.
    pub fn buffered(&self) -> bool {
        self.buffers.is_some()
    }

    /// Front-level counters for the buffered mode (flush / refill /
    /// stickiness traffic; shard-level counters stay per shard, see
    /// [`ShardedBgpq::merged_stats`]).
    pub fn front_stats(&self) -> &OpStats {
        &self.front_stats
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Relaxation counters recorded by the delete path.
    pub fn quality(&self) -> QualitySnapshot {
        self.quality.snapshot()
    }

    pub fn reset_quality(&self) {
        self.quality.reset();
    }

    /// All shards' operation counters folded into one.
    pub fn merged_stats(&self) -> OpStats {
        let total = OpStats::new();
        for s in self.shards.iter() {
            total.merge(s.stats());
        }
        total
    }

    /// Ratio of the most-loaded shard's inserted-item count to the
    /// mean (1.0 = perfectly balanced; meaningful after inserts ran).
    pub fn load_imbalance(&self) -> f64 {
        let loads: Vec<u64> =
            self.shards.iter().map(|s| s.stats().snapshot().items_inserted).collect();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        *loads.iter().max().unwrap() as f64 / mean
    }

    /// Insert a sorted-or-not batch into the shard selected by
    /// `affinity` (callers keep this sticky per worker so consecutive
    /// batches hit the same shard's partial buffer).
    ///
    /// Panics on failure; prefer [`ShardedBgpq::try_insert`] when the
    /// caller wants backpressure and fail-over as values.
    pub fn insert(&self, w: &mut P::Worker, affinity: usize, items: &[Entry<K, V>]) {
        self.try_insert(w, affinity, items)
            .unwrap_or_else(|e| panic!("sharded BGPQ insert failed: {e}"));
    }

    /// Insert with failure handling: route to the affinity shard, and
    /// if that shard is quarantined — or fails during the attempt —
    /// redistribute to the next live shard (round robin from the home
    /// shard, so a dead shard's producers spread over the survivors).
    ///
    /// `Err(Full)` is backpressure, not failure: the shard stays live
    /// (deletes make room) and no key is taken. A shard returning
    /// `Poisoned` or `LockTimeout` is quarantined and the insert moves
    /// on; only when every live shard refused does the error surface —
    /// the last `Full` if any shard was merely full, else `Poisoned`.
    pub fn try_insert(
        &self,
        w: &mut P::Worker,
        affinity: usize,
        items: &[Entry<K, V>],
    ) -> Result<(), QueueError> {
        self.tick(w);
        // Routing reads the breaker states; conflicts only with trips.
        self.touch_front(w, false);
        let s = self.shards.len();
        let home = self.shard_for(affinity);
        let mut full: Option<QueueError> = None;
        for off in 0..s {
            let i = (home + off) % s;
            if self.is_quarantined(i) {
                continue;
            }
            let r = {
                let _g = InflightGuard::enter(&self.breakers[i].inflight);
                self.shards[i].try_insert(w, items)
            };
            match r {
                Ok(()) => {
                    self.note_success(i);
                    return Ok(());
                }
                Err(e @ QueueError::Full { .. }) => full = Some(e),
                Err(_) => {
                    self.touch_front(w, true);
                    self.quarantine(i);
                }
            }
        }
        Err(full.unwrap_or(QueueError::Poisoned))
    }

    /// Relaxed delete-min: sample `c` shards through `rng`, take up to
    /// `count` entries from the best-hinted one, steal from the other
    /// sampled shards on a miss, and finish with an exact sweep of all
    /// shards before returning 0. Appended entries are ascending (they
    /// come from a single shard's delete).
    pub fn delete_min(
        &self,
        w: &mut P::Worker,
        rng: &mut u64,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> usize {
        self.try_delete_min(w, rng, out, count)
            .unwrap_or_else(|e| panic!("sharded BGPQ delete_min failed: {e}"))
    }

    /// Relaxed delete-min with failure handling: quarantined shards are
    /// excluded from sampling, stealing and the exact sweep; a shard
    /// that fails mid-attempt is quarantined and the delete continues
    /// on the survivors. `Ok(0)` means every *live* shard was observed
    /// empty (exact at quiescence); `Err(Poisoned)` means no live shard
    /// remains. `count` may exceed the node width `k`: the serving
    /// shard is asked for several `≤ k`-wide linearized batches (the
    /// buffered front's wide-refill path).
    pub fn try_delete_min(
        &self,
        w: &mut P::Worker,
        rng: &mut u64,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        self.tick(w);
        self.touch_front(w, false);
        // Take the routing scratch out of the worker's slot for the
        // whole delete (the shards' own arenas are a different type in
        // the same slot). A panicking shard op drops it; the next
        // delete just rebuilds.
        let mut rs = self.scratch_slot(w).take::<RouterScratch>().unwrap_or_default();
        let r = self.try_delete_min_routed(w, rng, out, count, &mut rs);
        self.scratch_slot(w).put(rs);
        r.map(|(got, _)| got)
    }

    /// The worker's scratch parking spot, reached through any shard's
    /// platform (slot storage lives on the worker, not the platform).
    #[inline]
    fn scratch_slot<'a>(&self, w: &'a mut P::Worker) -> &'a mut pq_api::ScratchSlot {
        self.shards[0].platform().scratch_slot(w)
    }

    /// Visit shard `i` once: one delete under an in-flight token (so a
    /// later salvage probe can wait this operation out — the token
    /// releases on panic too, see [`InflightGuard`]) plus its breaker
    /// bookkeeping. Keys taken and a clean miss both count as a success;
    /// an error quarantines the shard and yields `None`. Routed through
    /// the heap's partial-batch entry point, so `count` may exceed the
    /// node width `k` (buffered refills wider than one node).
    fn visit(
        &self,
        i: usize,
        w: &mut P::Worker,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Option<usize> {
        let r = {
            let _g = InflightGuard::enter(&self.breakers[i].inflight);
            self.shards[i].try_delete_up_to(w, out, count)
        };
        match r {
            Ok(got) => {
                self.note_success(i);
                Some(got)
            }
            Err(_) => {
                self.touch_front(w, true);
                self.quarantine(i);
                None
            }
        }
    }

    /// The sampled/steal/sweep machinery behind [`Self::try_delete_min`].
    /// Also reports *which* shard served the delete (when one did), so
    /// the buffered front can latch it as the sticky shard.
    fn try_delete_min_routed(
        &self,
        w: &mut P::Worker,
        rng: &mut u64,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
        rs: &mut RouterScratch,
    ) -> Result<(usize, Option<usize>), QueueError> {
        let s = self.shards.len();
        let start = out.len();
        // Breaker-trip snapshot for the SweepDiscardsOnTrip mutation:
        // the mutated loop compares against this to "notice" a trip
        // that happened while the delete was in flight.
        #[cfg(any(test, feature = "mutations"))]
        let trips_at_entry = self.quarantined_count();
        let RouterScratch { live, hints, picks } = rs;
        live.clear();
        live.extend((0..s).filter(|&i| !self.is_quarantined(i)));
        if live.is_empty() {
            return Err(QueueError::Poisoned);
        }

        if let &[i] = &live[..] {
            let got = self.visit(i, w, out, count).ok_or(QueueError::Poisoned)?;
            if got > 0 {
                self.quality.record_delete(&[], 0, out[start].key.to_ordered_bits(), false);
            }
            return Ok((got, (got > 0).then_some(i)));
        }

        // Lock-free routing snapshot: every shard's published root-min
        // (a poisoned shard parks its hint at `u64::MAX`, but we route
        // over the live list regardless). Each hint read races that
        // shard's root publishes — tag it at the shard's root lock.
        hints.clear();
        hints.extend(self.shards.iter().map(|q| {
            q.platform().touch(w, 0, false);
            q.min_hint_bits()
        }));

        let c = self.sample.min(live.len());
        picks.clear();
        if c >= live.len() {
            picks.extend(live.iter().copied());
        } else {
            while picks.len() < c {
                let i = live[(next_u64(rng) % live.len() as u64) as usize];
                if !picks.contains(&i) {
                    picks.push(i);
                }
            }
        }
        picks.sort_unstable_by_key(|&i| hints[i]);

        // The sampled shards in hint order (a miss on the best steals
        // from the next), then the exact sweep: a hint of `u64::MAX`
        // means "empty or never published", so sampled misses do not
        // prove emptiness. The sweep attempts a real delete on every
        // live shard; only a full sweep of misses reports 0, which at
        // quiescence is precise.
        let sampled = picks.len();
        let mut clean_miss = false;
        for (n, &i) in picks.iter().chain(live.iter()).enumerate() {
            if n == sampled {
                self.quality.record_full_sweep();
            }
            if n >= sampled && self.is_quarantined(i) {
                continue;
            }
            match self.visit(i, w, out, count) {
                None => {}
                Some(0) => clean_miss = true,
                Some(got) => {
                    // SweepDiscardsOnTrip: a breaker tripped while this
                    // delete was in flight; the mutated router "rolls
                    // back" the batch and retries from a clean miss —
                    // but the shard already handed the keys over, so
                    // they are silently lost (the bug the explorer's
                    // accounting oracle must catch).
                    #[cfg(any(test, feature = "mutations"))]
                    if self.mutation == Mutation::SweepDiscardsOnTrip
                        && self.quarantined_count() > trips_at_entry
                    {
                        out.truncate(start);
                        clean_miss = true;
                        continue;
                    }
                    self.quality.record_delete(hints, i, out[start].key.to_ordered_bits(), n > 0);
                    return Ok((got, Some(i)));
                }
            }
        }
        if clean_miss {
            Ok((0, None))
        } else {
            Err(QueueError::Poisoned)
        }
    }

    // ------------------------------------------------------------------
    // Buffered mode (sticky batching — see `buffer.rs`)
    // ------------------------------------------------------------------

    /// Buffered insert: stage `items` in the worker's slot, flushing to
    /// the shards first when staging would overflow the policy's
    /// capacity `B`. Batches of `B` or more skip staging (the buffer
    /// exists to *assemble* batches; one that arrives pre-formed routes
    /// directly, in `k`-wide chunks, after a flush keeps its keys
    /// ordered around it). Without buffering this is
    /// [`Self::try_insert`] with `worker` as the affinity.
    ///
    /// `Err` is clean: it is only returned when *none* of the new items
    /// were accepted — the error came from flushing *previously staged*
    /// keys, which remain staged. Once the new items start landing the
    /// call commits: a chunk failure (or unwind) mid-way leaves the
    /// un-inserted tail in the stage (over capacity if need be) and
    /// still returns `Ok`, so a retry never duplicates keys; the
    /// shards' backpressure surfaces on the next flush instead.
    pub fn buffered_try_insert(
        &self,
        w: &mut P::Worker,
        worker: usize,
        items: &[Entry<K, V>],
    ) -> Result<(), QueueError> {
        let Some(bufs) = &self.buffers else {
            return self.try_insert(w, worker, items);
        };
        if items.is_empty() {
            return Ok(());
        }
        let slot = bufs.slot_for(worker);
        let cap = bufs.policy.insert_capacity;
        let direct = items.len() >= cap;
        let mut b = bufs.lock(slot);
        if direct || b.stage.len() + items.len() > cap {
            self.flush_locked(w, bufs, slot, &mut b)?;
        }
        b.stage.extend_from_slice(items);
        bufs.park(items.len());
        if direct {
            // Committed: a refused chunk leaves the un-inserted tail staged.
            let _ = bufs.insert_chunks(&mut b.stage, |chunk| self.try_insert(w, slot, chunk));
        }
        OpStats::bump(&self.front_stats.inserts);
        OpStats::add(&self.front_stats.items_inserted, items.len() as u64);
        Ok(())
    }

    /// Buffered delete-min: serve up to `count` entries from the
    /// worker's deletion buffer, refilling it with one wide sampled
    /// delete when empty. `Ok(0)` keeps the unbuffered exactness
    /// contract *extended to buffers*: it is returned only after every
    /// live shard swept empty, the caller's own staged inserts were
    /// served, and every reachable foreign slot was harvested — at
    /// quiescence, `Ok(0)` really means the queue holds nothing.
    /// Without buffering this is [`Self::try_delete_min`].
    ///
    /// Entries are ascending per call (they come from one sorted
    /// buffer).
    pub fn buffered_try_delete_min(
        &self,
        w: &mut P::Worker,
        worker: usize,
        rng: &mut u64,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        let Some(bufs) = &self.buffers else {
            return self.try_delete_min(w, rng, out, count);
        };
        assert!(count >= 1, "delete batch must request at least one entry");
        let slot = bufs.slot_for(worker);
        let mut b = bufs.lock(slot);
        if b.ready.is_empty() {
            // A wide refill is several shard batches; if a later one
            // unwinds, the keys the earlier ones took out stay servable.
            let refill =
                catch_unwind(AssertUnwindSafe(|| self.refill_locked(w, bufs, slot, rng, &mut b)));
            match refill {
                Ok(r) => {
                    r?;
                }
                Err(p) => {
                    let got = b.tmp.len();
                    if got > 0 {
                        self.commit_refill(bufs, &mut b, got);
                    }
                    resume_unwind(p);
                }
            }
        }
        let n = count.min(b.ready.len());
        let at = b.ready.len() - n;
        out.extend(b.ready.drain(at..).rev());
        bufs.unpark(n);
        OpStats::bump(&self.front_stats.delete_mins);
        OpStats::add(&self.front_stats.items_deleted, n as u64);
        Ok(n)
    }

    /// Restock `b.ready` (which must be empty): sticky shard first,
    /// then a fresh sample through the full routed machinery, then —
    /// only when every live shard swept empty — the caller's own stage
    /// and finally a harvest of every reachable foreign slot.
    fn refill_locked(
        &self,
        w: &mut P::Worker,
        bufs: &Buffers<K, V>,
        slot: usize,
        rng: &mut u64,
        b: &mut WorkerBuffers<K, V>,
    ) -> Result<usize, QueueError> {
        debug_assert!(b.ready.is_empty());
        self.tick(w);
        let width = bufs.refill_width;
        b.tmp.clear();

        // Sticky reuse: skip sampling while the latched shard has
        // tenure left and is still live. Rank error is still recorded
        // honestly against a fresh hint scan. A dry or failed sticky
        // shard falls through to a fresh sample.
        if b.sticky_left > 0 && !self.is_quarantined(b.sticky) {
            let i = b.sticky;
            b.sticky_left -= 1;
            OpStats::bump(&self.front_stats.sticky_reuses);
            if let Some(got @ 1..) = self.visit(i, w, &mut b.tmp, width) {
                let first = b.tmp[0].key.to_ordered_bits();
                self.quality.record_delete_with_error(self.hint_error(w, i, first), false);
                self.commit_refill(bufs, b, got);
                return Ok(got);
            }
        }
        b.sticky_left = 0;

        OpStats::bump(&self.front_stats.sticky_resamples);
        let mut rs = self.scratch_slot(w).take::<RouterScratch>().unwrap_or_default();
        let routed = self.try_delete_min_routed(w, rng, &mut b.tmp, width, &mut rs);
        self.scratch_slot(w).put(rs);
        match routed {
            Ok((got, src)) if got > 0 => {
                if let Some(i) = src {
                    b.sticky = i;
                    b.sticky_left = bufs.policy.stickiness - 1;
                }
                self.commit_refill(bufs, b, got);
                Ok(got)
            }
            Ok(_) => Ok(bufs.serve_parked(slot, b)),
            // No live shard remains — but parked keys are still
            // reachable and must win over a Poisoned verdict.
            Err(e) => match bufs.serve_parked(slot, b) {
                0 => Err(e),
                n => Ok(n),
            },
        }
    }

    /// Account one shard-sourced refill of `got` keys and move `b.tmp`
    /// into `b.ready`.
    fn commit_refill(&self, bufs: &Buffers<K, V>, b: &mut WorkerBuffers<K, V>, got: usize) {
        OpStats::bump(&self.front_stats.buffer_refills);
        OpStats::add(&self.front_stats.buffer_refill_items, got as u64);
        self.front_stats.record_batch_occupancy(got, bufs.refill_width);
        bufs.park(got);
        b.restock();
    }

    /// Flush the staged inserts of `b` to the shards in `k`-wide
    /// chunks. On `Err` or an unwind the *unflushed* keys remain staged
    /// (the flushed prefix is committed and leaves the stage) — a failed
    /// flush never loses or duplicates keys. Keys
    /// whose home shard is quarantined re-route through
    /// [`Self::try_insert`]'s redistribution and are counted in
    /// [`QualitySnapshot::buffer_reroutes`].
    fn flush_locked(
        &self,
        w: &mut P::Worker,
        bufs: &Buffers<K, V>,
        slot: usize,
        b: &mut WorkerBuffers<K, V>,
    ) -> Result<usize, QueueError> {
        let total = b.stage.len();
        if total == 0 {
            return Ok(0);
        }
        if self.is_quarantined(self.shard_for(slot)) {
            self.quality.record_buffer_reroute(total as u64);
        }
        let (done, r) = bufs.insert_chunks(&mut b.stage, |chunk| self.try_insert(w, slot, chunk));
        if done > 0 {
            let cap = bufs.policy.insert_capacity;
            OpStats::bump(&self.front_stats.buffer_flushes);
            OpStats::add(&self.front_stats.buffer_flush_items, done as u64);
            self.front_stats.record_batch_occupancy(done.min(cap), cap);
        }
        r.map(|()| done)
    }

    /// Shard-level rank error of a delete served by shard `taken`
    /// whose smallest key has ordered bits `first`: how many *other*
    /// shards currently hint a smaller minimum. Same tagging as the
    /// sampled path's hint snapshot.
    fn hint_error(&self, w: &mut P::Worker, taken: usize, first: u64) -> u64 {
        self.shards
            .iter()
            .enumerate()
            .filter(|&(j, q)| {
                j != taken && {
                    q.platform().touch(w, 0, false);
                    q.min_hint_bits() < first
                }
            })
            .count() as u64
    }

    /// Flush one worker's staged inserts to the shards (deletion-buffer
    /// keys stay put — they were already removed from the shards).
    /// `Ok(0)` when unbuffered.
    pub fn flush_slot(&self, w: &mut P::Worker, worker: usize) -> Result<usize, QueueError> {
        let Some(bufs) = &self.buffers else { return Ok(0) };
        let slot = bufs.slot_for(worker);
        self.flush_locked(w, bufs, slot, &mut bufs.lock(slot))
    }

    /// Fully quiesce one worker's slot: flush staged inserts *and*
    /// return deletion-buffer keys to the shards, leaving the slot
    /// empty. On `Err` or an unwind unreturned keys remain parked
    /// (never lost). `Ok(0)` when unbuffered. Returns keys moved back
    /// to the shards.
    pub fn quiesce_slot(&self, w: &mut P::Worker, worker: usize) -> Result<usize, QueueError> {
        let Some(bufs) = &self.buffers else { return Ok(0) };
        let slot = bufs.slot_for(worker);
        let mut guard = bufs.lock(slot);
        let flushed = self.flush_locked(w, bufs, slot, &mut guard)?;
        // The flush emptied the stage; the deletion buffer moves there
        // ascending, so the home shard sees sorted batches and the keys
        // a refused or unwound chunk leaves behind stay parked.
        let b = &mut *guard;
        b.stage.extend(b.ready.drain(..).rev());
        let (moved, r) = bufs.insert_chunks(&mut b.stage, |chunk| self.try_insert(w, slot, chunk));
        if r.is_err() {
            // Back into the deletion buffer (descending), servable again.
            b.ready.extend(b.stage.drain(..).rev());
        }
        r.map(|()| flushed + moved)
    }

    /// Quiesce every slot (drains and benches; quiescent callers).
    pub fn quiesce_all(&self, w: &mut P::Worker) -> Result<usize, QueueError> {
        let slots = if self.buffers.is_some() { BUFFER_SLOTS } else { 0 };
        (0..slots).try_fold(0, |moved, slot| Ok(moved + self.quiesce_slot(w, slot)?))
    }

    /// Remove every item from live shards and buffer slots (shard by
    /// shard; the concatenation is sorted per shard / per slot, not
    /// globally). Returns the number drained. Quarantined shards are
    /// skipped — their contents are unreachable by design. Quiescent
    /// callers only in buffered mode (slot locks are taken blocking).
    pub fn drain(&self, w: &mut P::Worker, out: &mut Vec<Entry<K, V>>) -> usize {
        let parked = self.buffers.as_ref().map_or(0, |b| b.drain(out, true));
        parked + self.live_shards().map(|s| s.drain(w, out)).sum::<usize>()
    }

    /// Discard every item in live shards and buffer slots. Returns the
    /// number discarded.
    pub fn clear(&self, w: &mut P::Worker) -> usize {
        let parked = self.buffers.as_ref().map_or(0, |b| b.drain(&mut Vec::new(), false));
        parked + self.live_shards().map(|s| s.clear(w)).sum::<usize>()
    }

    /// Check every live shard's heap invariants (quiescent callers
    /// only). Returns the total item count including buffered keys, so
    /// it stays comparable to [`ShardedBgpq::len`]. Quarantined shards
    /// are skipped: a crashed shard's invariants are void (that is why
    /// it was quarantined).
    pub fn check_invariants(&self) -> usize {
        self.live_shards().map(Bgpq::check_invariants).sum::<usize>() + self.buffered_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_runtime::{CpuPlatform, CpuWorker};

    fn sharded(s: usize, c: usize, k: usize) -> ShardedBgpq<u32, u32, CpuPlatform> {
        let queue = BgpqOptions { node_capacity: k, max_nodes: 256, ..Default::default() };
        let platforms = (0..s).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
        ShardedBgpq::with_platforms(platforms, ShardedOptions::new(s, c, queue))
    }

    #[test]
    fn routes_inserts_by_affinity() {
        let q = sharded(4, 2, 8);
        let mut w = CpuWorker::new();
        for a in 0..8usize {
            q.insert(&mut w, a, &[Entry::new(a as u32, 0)]);
        }
        // affinity a and a+4 land on the same shard.
        for i in 0..4 {
            assert_eq!(q.shard(i).len(), 2, "shard {i}");
        }
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn drains_exactly_across_shards() {
        let q = sharded(3, 1, 4);
        let mut w = CpuWorker::new();
        let mut rng = 7u64;
        for i in 0..60u32 {
            q.insert(&mut w, (i % 3) as usize, &[Entry::new(i, i)]);
        }
        let mut out = Vec::new();
        let mut got = 0;
        loop {
            let n = q.delete_min(&mut w, &mut rng, &mut out, 4);
            if n == 0 {
                break;
            }
            got += n;
        }
        assert_eq!(got, 60, "exact sweep must drain every shard");
        assert!(q.is_empty());
        let mut keys: Vec<u32> = out.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..60).collect::<Vec<_>>());
        assert_eq!(q.check_invariants(), 0);
    }

    #[test]
    fn single_shard_is_strict() {
        let q = sharded(1, 1, 4);
        let mut w = CpuWorker::new();
        let mut rng = 3u64;
        q.insert(&mut w, 0, &[Entry::new(9u32, 0), Entry::new(2, 0), Entry::new(5, 0)]);
        let mut out = Vec::new();
        assert_eq!(q.delete_min(&mut w, &mut rng, &mut out, 4), 3);
        assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), vec![2, 5, 9]);
        assert_eq!(q.quality().rank_error_sum, 0);
    }

    #[test]
    fn sampled_delete_prefers_best_hint() {
        let q = sharded(2, 2, 4);
        let mut w = CpuWorker::new();
        let mut rng = 1u64;
        q.insert(&mut w, 0, &[Entry::new(100u32, 0)]);
        q.insert(&mut w, 1, &[Entry::new(5u32, 0)]);
        let mut out = Vec::new();
        // c == S: both hints visible, must take the smaller minimum.
        assert_eq!(q.delete_min(&mut w, &mut rng, &mut out, 1), 1);
        assert_eq!(out[0].key, 5);
        assert_eq!(q.quality().rank_error_sum, 0, "c = S never skips a smaller shard");
    }

    #[test]
    fn quarantined_shard_is_bypassed_for_inserts_and_deletes() {
        use bgpq_runtime::{CpuPlatform, FaultAction, FaultPlan, InjectionPoint};
        use std::sync::Arc;

        // Shard 0 gets a fault plan that panics its first insert
        // heapify; the other shards are healthy.
        let queue = BgpqOptions { node_capacity: 2, max_nodes: 64, ..Default::default() };
        let plan = Arc::new(FaultPlan::new().with_rule(
            InjectionPoint::MidInsertHeapify,
            1,
            FaultAction::Panic,
        ));
        let platforms: Vec<CpuPlatform> = (0..3)
            .map(|i| {
                let p = CpuPlatform::new(queue.max_nodes + 1);
                if i == 0 {
                    p.with_faults(plan.clone())
                } else {
                    p
                }
            })
            .collect();
        let q: ShardedBgpq<u32, u32, CpuPlatform> =
            ShardedBgpq::with_platforms(platforms, ShardedOptions::new(3, 2, queue));
        let mut w = CpuWorker::new();

        // Crash shard 0 directly (the router only sees the poisoned
        // state afterwards, as it would from another thread's crash).
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..32u32 {
                q.shard(0).insert(&mut w, &[Entry::new(i, 0), Entry::new(i + 100, 0)]);
            }
        }));
        assert!(r.is_err(), "injected panic must fire");
        assert!(q.shard(0).is_poisoned());

        // Affinity 0 points at the dead shard; try_insert must
        // redistribute, quarantine it, and succeed on a survivor.
        q.try_insert(&mut w, 0, &[Entry::new(7u32, 7)]).expect("redistributed insert");
        assert!(q.is_quarantined(0));
        assert_eq!(q.quarantined_count(), 1);
        assert_eq!(q.quality().quarantines, 1);
        assert_eq!(q.shard(0).stats().snapshot().shard_quarantines, 1);
        assert_eq!(q.len(), 1, "len counts only live shards");

        // Deletes skip the quarantined shard and drain the survivors.
        let mut rng = 5u64;
        let mut out = Vec::new();
        assert_eq!(q.try_delete_min(&mut w, &mut rng, &mut out, 2).unwrap(), 1);
        assert_eq!(out[0].key, 7);
        assert_eq!(q.try_delete_min(&mut w, &mut rng, &mut out, 2).unwrap(), 0);
        assert_eq!(q.check_invariants(), 0, "invariant sweep skips the quarantined shard");
    }

    #[test]
    fn all_shards_quarantined_reports_poisoned() {
        let q = sharded(2, 1, 4);
        let mut w = CpuWorker::new();
        q.quarantine(0);
        q.quarantine(1);
        q.quarantine(1); // idempotent
        assert_eq!(q.quarantined_count(), 2);
        assert_eq!(q.quality().quarantines, 2);
        assert!(matches!(
            q.try_insert(&mut w, 0, &[Entry::new(1u32, 1)]),
            Err(QueueError::Poisoned)
        ));
        let mut rng = 9u64;
        let mut out = Vec::new();
        assert!(matches!(
            q.try_delete_min(&mut w, &mut rng, &mut out, 1),
            Err(QueueError::Poisoned)
        ));
        assert!(out.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn full_shard_is_backpressure_not_quarantine() {
        // One tiny shard: filling it must yield Full, leave it live,
        // and deleting makes room again.
        let queue = BgpqOptions { node_capacity: 2, max_nodes: 2, ..Default::default() };
        let platforms = vec![CpuPlatform::new(queue.max_nodes + 1)];
        let q: ShardedBgpq<u32, u32, CpuPlatform> =
            ShardedBgpq::with_platforms(platforms, ShardedOptions::new(1, 1, queue));
        let mut w = CpuWorker::new();
        while q.try_insert(&mut w, 0, &[Entry::new(1, 0), Entry::new(2, 0)]).is_ok() {}
        assert!(matches!(
            q.try_insert(&mut w, 0, &[Entry::new(3, 0), Entry::new(4, 0)]),
            Err(QueueError::Full { .. })
        ));
        assert_eq!(q.quarantined_count(), 0, "Full must not quarantine");
        let mut rng = 3u64;
        let mut out = Vec::new();
        q.try_delete_min(&mut w, &mut rng, &mut out, 2).unwrap();
        q.try_insert(&mut w, 0, &[Entry::new(3, 0), Entry::new(4, 0)])
            .expect("room freed by delete");
    }

    #[test]
    fn crashed_shard_is_salvaged_and_readmitted_within_bounded_probes() {
        use bgpq_runtime::{FaultAction, FaultPlan, InjectionPoint};
        use std::sync::Arc;

        // Shard 0 crashes on its first insert heapify; recovery is
        // enabled with tiny backoffs so the drill stays fast.
        let queue = BgpqOptions { node_capacity: 2, max_nodes: 64, ..Default::default() };
        let rec = RecoveryOptions {
            base_backoff_ops: 4,
            max_backoff_ops: 16,
            trial_ops: 2,
            max_generations: 4,
        };
        let plan = Arc::new(FaultPlan::new().with_rule(
            InjectionPoint::MidInsertHeapify,
            1,
            FaultAction::Panic,
        ));
        let platforms: Vec<CpuPlatform> = (0..3)
            .map(|i| {
                let p = CpuPlatform::new(queue.max_nodes + 1);
                if i == 0 {
                    p.with_faults(plan.clone())
                } else {
                    p
                }
            })
            .collect();
        let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms_recovering(
            platforms,
            ShardedOptions::new(3, 2, queue).with_recovery(rec),
            bgpq_recover::salvage_heap,
        );
        let mut w = CpuWorker::new();

        // Crash shard 0 mid-insert, counting the batches that settled.
        let mut settled = 0u32;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..32u32 {
                q.shard(0).insert(&mut w, &[Entry::new(i, 0), Entry::new(i + 100, 0)]);
                settled = i + 1;
            }
        }));
        assert!(r.is_err(), "injected panic must fire");
        assert!(q.shard(0).is_poisoned());

        // The next routed insert notices, quarantines, and fails over.
        q.try_insert(&mut w, 0, &[Entry::new(7u32, 7)]).expect("redistributed insert");
        assert!(q.is_quarantined(0));
        assert_eq!(q.breaker_state(0), BreakerState::Open);

        // Pump traffic over rotating affinities (so the re-admitted
        // shard sees trial ops from its returning producers); the
        // breaker must probe, salvage, trial and close within a small
        // bounded number of operations.
        let mut rng = 11u64;
        let mut pumped = Vec::new();
        let mut ops = 0usize;
        while q.breaker_state(0) != BreakerState::Closed {
            ops += 1;
            assert!(ops <= 400, "breaker must close within bounded probes");
            q.try_insert(&mut w, ops, &[Entry::new(1_000 + ops as u32, 0)]).unwrap();
            pumped.push(1_000 + ops as u32);
        }
        let s = q.quality();
        assert_eq!(s.salvages, 1, "one salvage pass rebuilt the shard");
        assert_eq!(s.readmissions, 1, "trial traffic closed the breaker");
        assert!(s.probes >= 1);
        assert_eq!(s.keys_lost, 2, "exactly one in-flight batch is reported lost, not silent");
        assert_eq!(
            s.keys_recovered,
            u64::from(settled) * 2,
            "every other accepted key is walked out"
        );
        assert_eq!(q.quarantined_count(), 0);

        // The re-admitted shard serves again: home-affinity inserts
        // land on it, and a full drain conserves keys exactly — the
        // queue accepted `settled * 2 + 2` keys before the crash (the
        // dying insert had already merged into the heap), lost a
        // reported 2 of them, and everything else drains once each.
        // (Which two keys were lost is not specified: a crashed
        // insert-heapify may have swapped batch keys into the heap and
        // carried settled ones on its stack.)
        q.try_insert(&mut w, 0, &[Entry::new(9_999u32, 0)]).unwrap();
        let mut out = Vec::new();
        while q.try_delete_min(&mut w, &mut rng, &mut out, 2).unwrap() > 0 {}
        let got: Vec<u32> = out.iter().map(|e| e.key).collect();
        let accepted = u64::from(settled) * 2 + 2;
        assert_eq!(
            got.len() as u64,
            accepted - s.keys_lost + 2 + pumped.len() as u64,
            "drain returns every accepted key minus exactly the reported loss"
        );
        let offered: std::collections::HashSet<u32> = (0..32u32)
            .flat_map(|i| [i, i + 100])
            .chain([7, 9_999])
            .chain(pumped.iter().copied())
            .collect();
        let mut uniq = got.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), got.len(), "no key drains twice");
        assert!(got.iter().all(|k| offered.contains(k)), "salvage never invents keys");
        assert_eq!(q.check_invariants(), 0);
    }

    #[test]
    fn recovery_disabled_keeps_quarantine_permanent() {
        // Even with RecoveryOptions set, a router built without a
        // salvager (plain `with_platforms`) must never probe.
        let queue = BgpqOptions { node_capacity: 4, max_nodes: 64, ..Default::default() };
        let platforms = (0..2).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
        let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms(
            platforms,
            ShardedOptions::new(2, 1, queue).with_recovery(RecoveryOptions::default()),
        );
        let mut w = CpuWorker::new();
        q.quarantine(0);
        for i in 0..200u32 {
            // Full is fine (one small surviving shard); the point is
            // that hundreds of ticks never probe the open breaker.
            let _ = q.try_insert(&mut w, 1, &[Entry::new(i, 0)]);
        }
        assert_eq!(q.breaker_state(0), BreakerState::Open, "no salvager, no re-admission");
        assert_eq!(q.quality().probes, 0);
        assert_eq!(q.quality().salvages, 0);
    }

    #[test]
    fn sweep_discards_on_trip_is_caught_in_the_exact_sweep_phase() {
        use bgpq_runtime::{FaultAction, FaultPlan, InjectionPoint};
        use std::sync::Arc;

        // S = 3, c = 1: shard 0 is crashed (breaker still closed),
        // shard 1 holds four keys, shard 2 is empty. A seed whose one
        // sampled pick is shard 2 misses cleanly, so both the trip
        // (shard 0) and the delete that observes it (shard 1) fall in
        // the exact sweep, not the sampled phase.
        let seed = (1u64..)
            .find(|&s| {
                let mut r = s;
                next_u64(&mut r) % 3 == 2
            })
            .unwrap();
        let run = |mutation: Mutation| {
            let queue = BgpqOptions { node_capacity: 2, max_nodes: 64, ..Default::default() };
            let plan = Arc::new(FaultPlan::new().with_rule(
                InjectionPoint::MidInsertHeapify,
                1,
                FaultAction::Panic,
            ));
            let platforms: Vec<CpuPlatform> = (0..3)
                .map(|i| {
                    let p = CpuPlatform::new(queue.max_nodes + 1);
                    if i == 0 {
                        p.with_faults(plan.clone())
                    } else {
                        p
                    }
                })
                .collect();
            let mut q: ShardedBgpq<u32, u32, CpuPlatform> =
                ShardedBgpq::with_platforms(platforms, ShardedOptions::new(3, 1, queue));
            q.mutation = mutation;
            let mut w = CpuWorker::new();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for i in 0..32u32 {
                    q.shard(0).insert(&mut w, &[Entry::new(i, 0), Entry::new(i + 100, 0)]);
                }
            }));
            assert!(r.is_err() && q.shard(0).is_poisoned());
            for i in 0..4u32 {
                q.insert(&mut w, 1, &[Entry::new(i, i)]);
            }
            let (mut rng, mut out) = (seed, Vec::new());
            let got = q.try_delete_min(&mut w, &mut rng, &mut out, 2).unwrap();
            assert!(q.is_quarantined(0), "the sweep tripped shard 0");
            assert_eq!(q.quality().full_sweeps, 1, "the sampled pick missed");
            // Accounting: delivered + resident against the four keys.
            (got, out.len() + q.len())
        };
        assert_eq!(run(Mutation::None), (2, 4), "the clean sweep delivers and conserves");
        let (got, held) = run(Mutation::SweepDiscardsOnTrip);
        assert_eq!(got, 0, "the mutated sweep reports a clean miss");
        assert_eq!(held, 2, "the accounting check sees the discarded batch");
    }

    #[test]
    fn merged_stats_fold_all_shards() {
        let q = sharded(4, 2, 8);
        let mut w = CpuWorker::new();
        for a in 0..4usize {
            q.insert(&mut w, a, &[Entry::new(1u32, 0), Entry::new(2, 0)]);
        }
        let total = q.merged_stats().snapshot();
        assert_eq!(total.inserts, 4);
        assert_eq!(total.items_inserted, 8);
        assert!((q.load_imbalance() - 1.0).abs() < 1e-12, "even affinity = balanced");
    }

    fn buffered(
        s: usize,
        c: usize,
        k: usize,
        policy: BufferPolicy,
    ) -> ShardedBgpq<u32, u32, CpuPlatform> {
        let queue = BgpqOptions { node_capacity: k, max_nodes: 256, ..Default::default() };
        let platforms = (0..s).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
        ShardedBgpq::with_platforms(
            platforms,
            ShardedOptions::new(s, c, queue).with_buffering(policy),
        )
    }

    #[test]
    fn buffered_insert_stages_until_capacity_then_flushes() {
        let policy = BufferPolicy::new().with_insert_capacity(4);
        let q = buffered(2, 1, 4, policy);
        let mut w = CpuWorker::new();
        for i in 0..3u32 {
            q.buffered_try_insert(&mut w, 0, &[Entry::new(i, i)]).unwrap();
        }
        // Three keys parked in the slot, none in a shard yet — but all
        // three visible through len().
        assert_eq!(q.buffered_len(), 3);
        assert_eq!(q.shard(0).len() + q.shard(1).len(), 0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.front_stats().snapshot().buffer_flushes, 0);

        // The 4th and 5th key would overflow capacity 4: the slot
        // flushes its 3 staged keys down first, then stages the rest.
        q.buffered_try_insert(&mut w, 0, &[Entry::new(3, 3), Entry::new(4, 4)]).unwrap();
        let fs = q.front_stats().snapshot();
        assert_eq!(fs.buffer_flushes, 1);
        assert_eq!(fs.buffer_flush_items, 3);
        assert_eq!(q.buffered_len(), 2);
        assert_eq!(q.len(), 5);

        // An over-capacity batch bypasses the stage entirely (after
        // flushing what was parked).
        let big: Vec<Entry<u32, u32>> = (10..20u32).map(|i| Entry::new(i, i)).collect();
        q.buffered_try_insert(&mut w, 0, &big).unwrap();
        assert_eq!(q.buffered_len(), 0, "wide batches go straight to the shard");
        assert_eq!(q.len(), 15);
        assert_eq!(q.check_invariants(), 15);
    }

    #[test]
    fn buffered_delete_refills_wide_and_serves_locally() {
        let policy =
            BufferPolicy::new().with_insert_capacity(8).with_refill_width(8).with_stickiness(4);
        let q = buffered(2, 2, 4, policy);
        let mut w = CpuWorker::new();
        let mut rng = 11u64;
        let items: Vec<Entry<u32, u32>> = (0..16u32).map(|i| Entry::new(i, i)).collect();
        for chunk in items[..8].chunks(4) {
            q.try_insert(&mut w, 0, chunk).unwrap();
        }
        for chunk in items[8..].chunks(4) {
            q.try_insert(&mut w, 1, chunk).unwrap();
        }

        let mut out = Vec::new();
        // First pop triggers one 8-wide refill (two k=4 batches from
        // the best shard), then serves 1 from the local buffer.
        assert_eq!(q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 1).unwrap(), 1);
        assert_eq!(out[0].key, 0, "quiescent single-worker pop is exact");
        let fs = q.front_stats().snapshot();
        assert_eq!(fs.buffer_refills, 1);
        assert_eq!(fs.buffer_refill_items, 8);
        assert!((fs.mean_refill_occupancy() - 8.0).abs() < 1e-12);
        assert_eq!(q.buffered_len(), 7);

        // The next 7 pops serve from the buffer with no new refill.
        for want in 1..8u32 {
            out.clear();
            assert_eq!(q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 1).unwrap(), 1);
            assert_eq!(out[0].key, want);
        }
        assert_eq!(q.front_stats().snapshot().buffer_refills, 1);

        // Drain the rest; emptiness is exact even through the buffer.
        out.clear();
        let mut got = 8;
        while q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 4).unwrap() > 0 {
            got = 8 + out.len();
        }
        assert_eq!(got, 16);
        assert!(q.is_empty());
        assert_eq!(q.check_invariants(), 0);
    }

    #[test]
    fn sticky_tenure_counts_reuses_and_resamples() {
        let policy =
            BufferPolicy::new().with_insert_capacity(8).with_refill_width(2).with_stickiness(3);
        let q = buffered(2, 1, 2, policy);
        let mut w = CpuWorker::new();
        let mut rng = 5u64;
        let items: Vec<Entry<u32, u32>> = (0..24u32).map(|i| Entry::new(i, i)).collect();
        for chunk in items[..12].chunks(2) {
            q.try_insert(&mut w, 0, chunk).unwrap();
        }
        for chunk in items[12..].chunks(2) {
            q.try_insert(&mut w, 1, chunk).unwrap();
        }

        // 12 pops = 6 refills of width 2: sample, reuse, reuse, sample,
        // reuse, reuse under stickiness 3.
        let mut out = Vec::new();
        for _ in 0..12 {
            out.clear();
            assert_eq!(q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 1).unwrap(), 1);
        }
        let fs = q.front_stats().snapshot();
        assert_eq!(fs.buffer_refills, 6);
        assert_eq!(fs.sticky_resamples, 2);
        assert_eq!(fs.sticky_reuses, 4);
        assert!((fs.sticky_reuse_rate() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn parked_keys_are_reachable_from_other_slots_and_drains() {
        let policy = BufferPolicy::new().with_insert_capacity(16).with_refill_width(4);
        let q = buffered(2, 1, 4, policy);
        let mut w = CpuWorker::new();
        let mut rng = 9u64;

        // Worker 0 stages 3 keys and walks away without flushing.
        q.buffered_try_insert(
            &mut w,
            0,
            &[Entry::new(5u32, 5), Entry::new(1, 1), Entry::new(3, 3)],
        )
        .unwrap();
        assert_eq!(q.buffered_len(), 3);
        assert!(!q.is_empty(), "parked keys must keep the queue non-empty");

        // Worker 1 (a different slot) finds the shards empty, harvests
        // the parked keys, and serves them in order.
        let mut out = Vec::new();
        assert_eq!(q.buffered_try_delete_min(&mut w, 1, &mut rng, &mut out, 2).unwrap(), 2);
        assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), vec![1, 3]);

        // The last harvested key sits in worker 1's deletion buffer
        // now; a drain must still find it.
        let mut rest = Vec::new();
        q.drain(&mut w, &mut rest);
        assert_eq!(rest.iter().map(|e| e.key).collect::<Vec<_>>(), vec![5]);
        assert!(q.is_empty());
        assert_eq!(q.buffered_len(), 0);
        assert_eq!(q.check_invariants(), 0);
    }

    #[test]
    fn quiesce_returns_every_parked_key_to_the_shards() {
        let policy = BufferPolicy::new().with_insert_capacity(16).with_refill_width(4);
        let q = buffered(3, 2, 4, policy);
        let mut w = CpuWorker::new();
        let mut rng = 13u64;

        let items: Vec<Entry<u32, u32>> = (0..12u32).map(|i| Entry::new(i, i)).collect();
        for chunk in items.chunks(4) {
            q.try_insert(&mut w, 0, chunk).unwrap();
        }
        // Stage some inserts and pull a refill into a deletion buffer.
        q.buffered_try_insert(&mut w, 1, &[Entry::new(50u32, 50), Entry::new(51, 51)]).unwrap();
        let mut out = Vec::new();
        q.buffered_try_delete_min(&mut w, 2, &mut rng, &mut out, 1).unwrap();
        assert!(q.buffered_len() > 0);

        let moved = q.quiesce_all(&mut w).unwrap();
        assert!(moved > 0);
        assert_eq!(q.buffered_len(), 0, "quiesce leaves nothing parked");
        let shard_total: usize = (0..3).map(|i| q.shard(i).len()).sum();
        assert_eq!(shard_total, q.len());
        assert_eq!(q.len(), 13, "12 + 2 staged - 1 popped");
        assert_eq!(q.check_invariants(), 13);
    }

    #[test]
    fn buffered_flush_reroutes_around_quarantine() {
        let policy = BufferPolicy::new().with_insert_capacity(8).with_refill_width(4);
        let q = buffered(2, 1, 4, policy);
        let mut w = CpuWorker::new();

        // Slot 0's home shard is shard 0; park keys, then quarantine it
        // out from under the buffer.
        q.buffered_try_insert(&mut w, 0, &[Entry::new(1u32, 1), Entry::new(2, 2)]).unwrap();
        q.quarantine(0);
        assert_eq!(q.flush_slot(&mut w, 0).unwrap(), 2);
        assert_eq!(q.buffered_len(), 0);
        assert_eq!(q.shard(1).len(), 2, "staged keys re-routed to the survivor");
        assert_eq!(q.quality().buffer_reroutes, 2);
        assert_eq!(q.len(), 2, "zero silent loss");
    }
}
