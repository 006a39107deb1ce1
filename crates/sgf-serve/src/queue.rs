//! A bounded MPMC request queue with explicit backpressure.
//!
//! Producers (connection readers) use the non-blocking
//! [`BoundedQueue::try_push`]: a full queue is surfaced to the caller — which
//! turns it into a `queue_full` rejection with a retry hint — instead of
//! blocking the connection or buffering unboundedly.  Consumers (the worker
//! pool) block on [`BoundedQueue::pop`].  [`BoundedQueue::close`] starts a
//! graceful drain: no new items are admitted, but everything already queued
//! is still handed to workers before `pop` returns `None`.

use sgf_metrics::{Counter, Summary};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Why a [`BoundedQueue::try_push`] was refused; the rejected item is handed
/// back so the caller can settle any resources attached to it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — retry later.
    Full(T),
    /// The queue is closed (server draining) — do not retry.
    Closed(T),
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The `serve.queue.*` handles of the admission path.
struct QueueMetrics {
    pushed: Arc<Counter>,
    popped: Arc<Counter>,
    depth: Arc<Summary>,
}

/// The bounded queue (see the module docs).
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// Resolved by the first push, then kept (the rejection counters are
    /// cold and stay looked up by name).
    metrics: OnceLock<QueueMetrics>,
}

impl<T> BoundedQueue<T> {
    /// Lock the queue state, tolerating poison: every mutation of
    /// `QueueInner` is a single push/pop/flag write that cannot be observed
    /// half-done, so the state is consistent even if a holder panicked, and
    /// propagating the panic to every other producer/consumer (what
    /// `.expect()` would do) only turns one dead worker into a dead server.
    fn locked(&self) -> MutexGuard<'_, QueueInner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A queue admitting at most `capacity` pending items (at least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            metrics: OnceLock::new(),
        }
    }

    fn metrics(&self) -> &QueueMetrics {
        self.metrics.get_or_init(|| QueueMetrics {
            pushed: sgf_metrics::counter("serve.queue.pushed"),
            popped: sgf_metrics::counter("serve.queue.popped"),
            depth: sgf_metrics::summary("serve.queue.depth"),
        })
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently queued (racy by nature; for reporting).
    pub fn len(&self) -> usize {
        self.locked().items.len()
    }

    /// Whether the queue is currently empty (racy by nature; for reporting).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue without blocking; a full or closed queue hands the item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.locked();
        if inner.closed {
            sgf_metrics::counter("serve.queue.rejected_closed").incr();
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            sgf_metrics::counter("serve.queue.rejected_full").incr();
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        let metrics = self.metrics();
        metrics.pushed.incr();
        metrics.depth.observe(depth as u64);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue, blocking while the queue is empty and open.  Returns `None`
    /// once the queue is closed *and* fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.locked();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.metrics().popped.incr();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue: subsequent pushes fail with [`PushError::Closed`],
    /// already-queued items still drain, and idle consumers wake up to exit.
    pub fn close(&self) {
        self.locked().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn backpressure_hands_items_back_at_capacity() {
        let queue = BoundedQueue::new(2);
        queue.try_push(1).unwrap();
        queue.try_push(2).unwrap();
        assert!(matches!(queue.try_push(3), Err(PushError::Full(3))));
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop(), Some(1));
        queue.try_push(3).unwrap();
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
        assert!(queue.is_empty());
    }

    #[test]
    fn close_drains_queued_items_then_stops() {
        let queue = BoundedQueue::new(4);
        queue.try_push("a").unwrap();
        queue.try_push("b").unwrap();
        queue.close();
        assert!(matches!(queue.try_push("c"), Err(PushError::Closed("c"))));
        assert_eq!(queue.pop(), Some("a"));
        assert_eq!(queue.pop(), Some("b"));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let queue = BoundedQueue::new(0);
        assert_eq!(queue.capacity(), 1);
        queue.try_push(1).unwrap();
        assert!(matches!(queue.try_push(2), Err(PushError::Full(2))));
    }

    #[test]
    fn consumers_block_until_an_item_or_close_arrives() {
        let queue = Arc::new(BoundedQueue::new(8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(item) = queue.pop() {
                        seen.push(item);
                    }
                    seen
                })
            })
            .collect();
        for i in 0..100 {
            loop {
                match queue.try_push(i) {
                    Ok(()) => break,
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!("queue closed early"),
                }
            }
        }
        queue.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }
}
