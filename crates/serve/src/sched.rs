//! Priority-aged job queue.
//!
//! Plain priority scheduling starves low-priority tenants whenever a
//! high-priority stream keeps the queue non-empty. The standard batch
//! remedy is *aging*: a job's effective priority grows with its wait, so
//! every job eventually outbids fresh arrivals. Here age is measured in
//! *scheduling decisions* (logical ticks), not wall seconds — the same
//! job mix always schedules in the same order, which is what the
//! bit-identity soak tests need.
//!
//! Ties (equal effective priority) break FIFO by submission sequence, so
//! equal-priority tenants get fair ordering rather than hash order.

/// Effective-priority points an entry gains per tick of waiting.
const AGING_RATE: u64 = 1;

/// One queued entry: the payload plus its scheduling metadata.
#[derive(Debug)]
struct Queued<T> {
    item: T,
    base_priority: u32,
    /// Submission sequence number (FIFO tiebreak, also the age origin).
    seq: u64,
    /// Tick at which the entry was (re-)enqueued.
    born: u64,
}

/// A priority queue with tick-based aging.
#[derive(Debug)]
pub struct AgedQueue<T> {
    entries: Vec<Queued<T>>,
    next_seq: u64,
    tick: u64,
}

/// An empty queue whose entries gain one priority point per scheduling
/// tick they wait.
impl<T> Default for AgedQueue<T> {
    fn default() -> AgedQueue<T> {
        AgedQueue {
            entries: Vec::new(),
            next_seq: 0,
            tick: 0,
        }
    }
}

impl<T> AgedQueue<T> {
    /// Enqueue with a base priority. Returns the submission sequence
    /// number.
    pub fn push(&mut self, item: T, base_priority: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Queued {
            item,
            base_priority,
            seq,
            born: self.tick,
        });
        seq
    }

    /// Re-enqueue a previously popped item (a preempted job going back to
    /// wait) keeping its original sequence number — its age origin resets
    /// to now, but its FIFO position among equals is preserved.
    pub fn requeue(&mut self, item: T, base_priority: u32, seq: u64) {
        self.entries.push(Queued {
            item,
            base_priority,
            seq,
            born: self.tick,
        });
    }

    fn effective(&self, q: &Queued<T>) -> u64 {
        q.base_priority as u64 + AGING_RATE * (self.tick - q.born)
    }

    /// Pop the best entry: highest effective priority, FIFO among ties.
    /// Advances the aging tick. Returns `(item, base_priority, seq)`.
    pub fn pop(&mut self) -> Option<(T, u32, u64)> {
        self.pop_where(|_| true)
    }

    /// Pop the best entry among those satisfying `eligible` — the
    /// backfill hook: when the head job's rank request cannot currently
    /// be leased, a smaller job may run instead of idling the pool.
    /// Advances the aging tick (every scheduling decision ages the
    /// queue, even a backfilled one).
    pub fn pop_where<F: Fn(&T) -> bool>(&mut self, eligible: F) -> Option<(T, u32, u64)> {
        self.tick += 1;
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, q)| eligible(&q.item))
            .max_by(|(_, a), (_, b)| {
                self.effective(a)
                    .cmp(&self.effective(b))
                    // FIFO: lower seq wins a tie, so compare reversed.
                    .then(b.seq.cmp(&a.seq))
            })
            .map(|(i, _)| i)?;
        let q = self.entries.swap_remove(best);
        Some((q.item, q.base_priority, q.seq))
    }

    /// Entries still waiting.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_priority_pops_first_fifo_on_ties() {
        let mut q = AgedQueue::default();
        q.push("low", 1);
        q.push("hi", 5);
        q.push("low2", 1);
        assert_eq!(q.pop().unwrap().0, "hi");
        assert_eq!(q.pop().unwrap().0, "low", "FIFO among equals");
        assert_eq!(q.pop().unwrap().0, "low2");
        assert!(q.pop().is_none());
    }

    #[test]
    fn aging_lets_old_jobs_outbid_fresh_high_priority() {
        // One point per tick: a priority-0 job that sits through 6
        // scheduling decisions (e.g. its rank request was never leasable)
        // outbids a fresh priority-5 arrival on the 7th.
        let mut q = AgedQueue::default();
        q.push("old", 0);
        for _ in 0..6 {
            // Scheduling decisions that can't run "old" (no eligible
            // entry) still advance the aging tick.
            assert!(q.pop_where(|_| false).is_none());
        }
        q.push("fresh", 5);
        // old: 0 + 7 = 7 beats fresh: 5 + 1 = 6.
        assert_eq!(q.pop().unwrap().0, "old", "aged past the fresh job");
    }

    #[test]
    fn pop_where_backfills_around_ineligible_head() {
        let mut q = AgedQueue::default();
        q.push(("big", 16usize), 9);
        q.push(("small", 2usize), 1);
        // Only 4 ranks free: the priority-9 head is ineligible.
        let (item, _, _) = q.pop_where(|&(_, ranks)| ranks <= 4).unwrap();
        assert_eq!(item.0, "small");
        assert_eq!(q.len(), 1, "big job still waiting");
    }

    #[test]
    fn requeue_preserves_fifo_position_among_equals() {
        let mut q = AgedQueue::default();
        q.push("first", 3);
        q.push("second", 3);
        let (item, p, seq) = q.pop().unwrap();
        assert_eq!(item, "first");
        // Requeued one tick later with one point more, "first" ties
        // "second" (3 + 1 + 1 = 3 + 2); its original seq keeps it ahead.
        q.requeue(item, p + 1, seq);
        assert_eq!(q.pop().unwrap().0, "first");
    }
}
