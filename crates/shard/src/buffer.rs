//! The router's buffered operating mode: sticky batching.
//!
//! With [`ShardedOptions::buffer`](crate::ShardedOptions::buffer) set,
//! the router adds a *buffered* operating mode in the style of
//! "Engineering MultiQueues" (Williams & Sanders): each worker hashes
//! to one of [`BUFFER_SLOTS`] buffer slots holding
//!
//! * an **insertion buffer** — up to `B` staged inserts, flushed to the
//!   home shard as `k`-wide batches when full, on demand
//!   ([`ShardedBgpq::flush_slot`]), or on quiesce;
//! * a **deletion buffer** — restocked by one `k`-wide (or wider, see
//!   [`BufferPolicy::refill_width`]) sampled delete-min and then served
//!   locally with no shared-memory traffic at all;
//! * a **sticky shard** — the shard picked by the last fresh `c`-of-`S`
//!   sample serves up to `σ` consecutive refills before the front
//!   re-samples, trading bounded extra rank error for `σ×` fewer hint
//!   scans and sampled probes.
//!
//! Buffered keys stay *owned by the router*: [`ShardedBgpq::len`] counts
//! them, exact-emptiness deletes drain the caller's own stage and then
//! harvest every other reachable slot before reporting `Ok(0)`, and
//! [`ShardedBgpq::drain`] empties every slot. A flush whose home shard
//! was quarantined re-routes through the ordinary redistribution path
//! and the re-routed keys are counted in
//! [`QualitySnapshot::buffer_reroutes`](crate::QualitySnapshot::buffer_reroutes)
//! — buffered inserts are never silently dropped by a breaker trip.
//!
//! **Rank-error bound (quiescent, exact hints).** An unbuffered sampled
//! delete skips at most `S − c` shards. Buffered pops add two windows:
//! a pop served from position `j > 1` of a refill batch can additionally
//! be beaten by any shard whose minimum arrived after the refill was
//! sampled, and a sticky refill skips the sample entirely — so a single
//! buffered pop's shard-level rank error is bounded by `S − 1` (every
//! shard except the serving one; the serving shard's remaining keys are
//! all ≥ the buffered batch by construction). `B` and `σ` control how
//! *often* the worst case can occur, not its magnitude: between two
//! fresh samples at most `σ · max(refill_width, k)` pops are served from
//! sticky or buffered state.
//!
//! **Split.** This module owns the buffered state ([`Buffers`]: the
//! policy, the slots, their locking and the parked-key count) and every
//! pure memory move on it; the router's buffered entry points
//! (`ShardedBgpq::buffered_*`, `flush_slot`, `quiesce_*`) own the shard
//! calls. Without a policy the router holds no `Buffers` and those
//! entry points fall through to the plain front.
//!
//! **Lock discipline.** The slot's owner (the worker hashing to it)
//! takes the lock blocking — the only contenders are harvesters and
//! drains, whose critical sections are pure memory moves — while
//! *foreign* access (emptiness harvests, full drains) uses `try_lock`
//! and never performs a platform or shard call while holding someone
//! else's slot. That discipline is what makes the blocking lock safe
//! under the gpu-sim virtual-time scheduler: an owner never waits on a
//! holder that is itself waiting on virtual time.

#[cfg(doc)]
use crate::ShardedBgpq;
use pq_api::{Entry, KeyType, QueueError, ValueType};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Buffer slots in buffered mode: workers hash to `worker % 64`. More
/// slots mean less slot sharing, at a few empty `Vec`s of memory each.
pub(crate) const BUFFER_SLOTS: usize = 64;

/// Knobs for the buffered ("sticky batching") mode: per-worker
/// insertion/deletion buffers plus sticky shard selection.
///
/// "Engineering MultiQueues" (Williams & Sanders) identifies three
/// levers that dominate relaxed-front throughput, and this struct names
/// all three:
///
/// * [`insert_capacity`](Self::insert_capacity) (`B`) — staged inserts
///   per worker before an automatic flush pushes them to the shards
///   as full batches.
/// * [`refill_width`](Self::refill_width) — keys fetched per
///   deletion-buffer refill; `0` means "the shards' natural batch
///   width `k`", the only value that makes the front's amortization
///   unit match BGPQ's node width.
/// * [`stickiness`](Self::stickiness) (`σ`) — shard-sourced refills
///   served by the same sampled shard before the front re-samples.
///   `1` re-samples every refill (stickiness off).
///
/// Larger `B`/`σ` buy fewer shared-memory operations at the price of a
/// larger relaxation window (the bound is in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferPolicy {
    /// Staged inserts per worker before an automatic flush (`B`).
    pub insert_capacity: usize,
    /// Keys fetched per deletion-buffer refill (`0` ⇒ shard batch
    /// width `k`).
    pub refill_width: usize,
    /// Shard-sourced refills served by the sticky shard before
    /// re-sampling (`σ ≥ 1`; `1` disables stickiness).
    pub stickiness: u32,
}

impl Default for BufferPolicy {
    fn default() -> Self {
        Self { insert_capacity: 64, refill_width: 0, stickiness: 4 }
    }
}

impl BufferPolicy {
    /// The default policy (`B = 64`, refill width = shard `k`,
    /// `σ = 4`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: staged-insert capacity `B`.
    pub fn with_insert_capacity(mut self, b: usize) -> Self {
        self.insert_capacity = b;
        self
    }

    /// Builder: deletion-buffer refill width (`0` ⇒ shard `k`).
    pub fn with_refill_width(mut self, w: usize) -> Self {
        self.refill_width = w;
        self
    }

    /// Builder: sticky tenure `σ` in refills.
    pub fn with_stickiness(mut self, s: u32) -> Self {
        self.stickiness = s;
        self
    }

    /// Panic on nonsensical settings (zero-capacity buffers, zero
    /// tenure). Called when a buffered router is built.
    pub fn validate(&self) {
        assert!(self.insert_capacity >= 1, "insertion buffer needs capacity for at least one key");
        assert!(self.stickiness >= 1, "sticky tenure counts the first refill itself");
    }
}

/// One worker's staged inserts and deletion buffer.
///
/// `ready` is kept **descending** by key so `pop()` serves the current
/// minimum in O(1); `stage` is arrival-ordered (a flush re-batches it
/// through the router, which sorts per node batch anyway). `tmp` is the
/// long-lived refill scratch — reused so steady-state refills allocate
/// nothing once the vectors reach their working capacity.
#[derive(Debug)]
pub(crate) struct WorkerBuffers<K: KeyType, V: ValueType> {
    /// Staged inserts, arrival order; over the policy's
    /// `insert_capacity` only while a refused or unwound insert left
    /// keys parked here.
    pub(crate) stage: Vec<Entry<K, V>>,
    /// Deletion buffer, descending by key (serve by popping the tail).
    pub(crate) ready: Vec<Entry<K, V>>,
    /// Refill scratch.
    pub(crate) tmp: Vec<Entry<K, V>>,
    /// Sticky shard latched by the last fresh sample.
    pub(crate) sticky: usize,
    /// Shard-sourced refills left before the next fresh sample.
    pub(crate) sticky_left: u32,
}

impl<K: KeyType, V: ValueType> Default for WorkerBuffers<K, V> {
    fn default() -> Self {
        Self { stage: Vec::new(), ready: Vec::new(), tmp: Vec::new(), sticky: 0, sticky_left: 0 }
    }
}

impl<K: KeyType, V: ValueType> WorkerBuffers<K, V> {
    /// Keys parked in this slot (staged inserts + deletion buffer).
    pub(crate) fn parked(&self) -> usize {
        self.stage.len() + self.ready.len()
    }

    /// Move `tmp` into the (empty) deletion buffer, descending so pops
    /// serve ascending, and return how many keys it now holds. Sorting
    /// rather than reversing: a refill wider than `k` is several
    /// linearized shard batches, whose concatenation need not be
    /// globally sorted under concurrent inserts.
    pub(crate) fn restock(&mut self) -> usize {
        self.tmp.sort_unstable_by_key(|e| Reverse(e.key));
        std::mem::swap(&mut self.ready, &mut self.tmp);
        self.tmp.clear();
        self.ready.len()
    }
}

/// Drain-on-drop for a chunked insert in progress: the prefix already
/// handed to the shards leaves its source vector and the parked count
/// even when a later chunk's insert unwinds (an injected panic, say),
/// so a retry never inserts it twice and the rest stays parked.
struct InsertedPrefix<'a, K: KeyType, V: ValueType> {
    src: &'a mut Vec<Entry<K, V>>,
    parked: &'a AtomicU64,
    done: usize,
}

impl<K: KeyType, V: ValueType> Drop for InsertedPrefix<'_, K, V> {
    fn drop(&mut self) {
        self.src.drain(..self.done);
        self.parked.fetch_sub(self.done as u64, Ordering::Relaxed);
    }
}

/// The buffered mode's state: the policy, the per-worker slots and the
/// count of keys parked across them.
pub(crate) struct Buffers<K: KeyType, V: ValueType> {
    pub(crate) policy: BufferPolicy,
    /// The shards' batch width `k`: the chunk width of every insert.
    k: usize,
    /// Keys one refill asks the shards for (the policy's
    /// `refill_width`, or `k` when that is 0).
    pub(crate) refill_width: usize,
    slots: Box<[Mutex<WorkerBuffers<K, V>>]>,
    /// Keys currently parked across all slots (updated only after a
    /// successful buffer mutation, so a panicking shard op cannot
    /// strand the count).
    parked: AtomicU64,
}

impl<K: KeyType, V: ValueType> Buffers<K, V> {
    /// Buffers for shards of batch width `k`.
    pub(crate) fn new(policy: BufferPolicy, k: usize) -> Self {
        Self {
            policy,
            k,
            refill_width: if policy.refill_width == 0 { k } else { policy.refill_width },
            slots: (0..BUFFER_SLOTS).map(|_| Mutex::new(WorkerBuffers::default())).collect(),
            parked: AtomicU64::new(0),
        }
    }

    /// The slot a worker token hashes to.
    #[inline]
    pub(crate) fn slot_for(&self, worker: usize) -> usize {
        worker % BUFFER_SLOTS
    }

    /// Keys currently parked across all slots.
    pub(crate) fn len(&self) -> usize {
        self.parked.load(Ordering::Relaxed) as usize
    }

    /// Count `n` keys that just entered a slot.
    pub(crate) fn park(&self, n: usize) {
        self.parked.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Count `n` keys that just left a slot.
    pub(crate) fn unpark(&self, n: usize) {
        self.parked.fetch_sub(n as u64, Ordering::Relaxed);
    }

    /// Lock the caller's *own* slot. Blocking is safe under the lock
    /// discipline (module docs). A poisoned slot (a fault-injected
    /// panic unwound through its owner) is recovered, not propagated —
    /// the buffers inside are always structurally valid.
    #[inline]
    pub(crate) fn lock(&self, slot: usize) -> MutexGuard<'_, WorkerBuffers<K, V>> {
        self.slots[slot].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try-lock a *foreign* slot; `None` when its owner (or another
    /// harvester) holds it — a busy owner is mid-operation, so its keys
    /// do not count against quiescent exactness.
    #[inline]
    fn try_lock(&self, slot: usize) -> Option<MutexGuard<'_, WorkerBuffers<K, V>>> {
        match self.slots[slot].try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Hand the parked keys of `src` to `insert` in `k`-wide chunks, in
    /// order, until one is refused. The inserted prefix leaves `src`
    /// and the parked count on return *and* on unwind; the rest stays
    /// in `src`. Returns the keys inserted and the refusal, if any.
    pub(crate) fn insert_chunks(
        &self,
        src: &mut Vec<Entry<K, V>>,
        mut insert: impl FnMut(&[Entry<K, V>]) -> Result<(), QueueError>,
    ) -> (usize, Result<(), QueueError>) {
        let mut prefix = InsertedPrefix { src, parked: &self.parked, done: 0 };
        while prefix.done < prefix.src.len() {
            let end = (prefix.done + self.k).min(prefix.src.len());
            if let Err(e) = insert(&prefix.src[prefix.done..end]) {
                return (prefix.done, Err(e));
            }
            prefix.done = end;
        }
        (prefix.done, Ok(()))
    }

    /// Exhausted-shards fallback: serve the caller's own staged inserts
    /// and harvest every reachable foreign slot straight into `b.ready`
    /// (the keys are already parked, so the count is unchanged).
    /// Returns how many keys became servable.
    pub(crate) fn serve_parked(&self, slot: usize, b: &mut WorkerBuffers<K, V>) -> usize {
        b.tmp.append(&mut b.stage);
        for j in (0..self.slots.len()).filter(|&j| j != slot) {
            // Foreign slot: try_lock only, pure memory moves inside.
            if let Some(mut fb) = self.try_lock(j) {
                b.tmp.append(&mut fb.ready);
                b.tmp.append(&mut fb.stage);
            }
        }
        b.restock()
    }

    /// Empty every slot, appending (when `keep`) each slot's keys to
    /// `out` in ascending key order per slot. Quiescent callers only
    /// (slot locks are taken blocking). Returns the keys removed.
    pub(crate) fn drain(&self, out: &mut Vec<Entry<K, V>>, keep: bool) -> usize {
        let mut total = 0;
        for slot in 0..self.slots.len() {
            let mut b = self.lock(slot);
            let n = b.parked();
            if n == 0 {
                continue;
            }
            if keep {
                let start = out.len();
                out.extend(b.ready.drain(..).rev());
                out.append(&mut b.stage);
                out[start..].sort_unstable_by_key(|e| e.key);
            } else {
                b.ready.clear();
                b.stage.clear();
            }
            total += n;
        }
        self.unpark(total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parked_counts_both_buffers() {
        let mut b: WorkerBuffers<u32, u32> = WorkerBuffers::default();
        assert_eq!(b.parked(), 0);
        b.stage.push(Entry::new(1, 1));
        b.ready.push(Entry::new(2, 2));
        b.ready.push(Entry::new(0, 0));
        assert_eq!(b.parked(), 3);
    }

    #[test]
    fn buffer_policy_builders_and_default() {
        let p = BufferPolicy::new();
        assert_eq!(p, BufferPolicy::default());
        p.validate();
        let q =
            BufferPolicy::new().with_insert_capacity(8).with_refill_width(16).with_stickiness(1);
        assert_eq!(q.insert_capacity, 8);
        assert_eq!(q.refill_width, 16);
        assert_eq!(q.stickiness, 1);
        q.validate();
    }

    #[test]
    #[should_panic(expected = "insertion buffer")]
    fn buffer_policy_rejects_zero_capacity() {
        BufferPolicy::new().with_insert_capacity(0).validate();
    }

    #[test]
    #[should_panic(expected = "sticky tenure")]
    fn buffer_policy_rejects_zero_tenure() {
        BufferPolicy::new().with_stickiness(0).validate();
    }
}
