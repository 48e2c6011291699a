//! [`SwapCell`]: a shared slot whose contents are replaced wholesale.
//!
//! The cached backend keeps its region→chain table behind one of these.
//! Readers take a cheap snapshot (`Arc` clone) and work against an
//! immutable table; writers build a *new* table and publish it in one
//! swap. Nobody ever observes a half-updated table — the install of a
//! background-compiled region is atomic with respect to every reader.
//!
//! The workspace forbids `unsafe`, so the slot is a `Mutex<Arc<T>>`
//! rather than an `AtomicPtr`; the critical section is a single pointer
//! clone/store, which is uncontended in practice (one execution thread,
//! occasional installs).
//!
//! A panic under the lock cannot tear the slot — it always holds one
//! whole `Arc` — so a poisoned lock is recovered, not propagated: the
//! current contents stay published and the recovery is counted in
//! [`SwapCell::poisoned`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A publication slot holding an `Arc<T>` that is replaced, never
/// mutated in place.
pub struct SwapCell<T> {
    slot: Mutex<Arc<T>>,
    poisoned: AtomicU64,
}

impl<T> SwapCell<T> {
    /// A cell initially holding `value`.
    pub fn new(value: T) -> Self {
        SwapCell::from_arc(Arc::new(value))
    }

    /// A cell initially holding an already-shared `value`.
    pub fn from_arc(value: Arc<T>) -> Self {
        SwapCell {
            slot: Mutex::new(value),
            poisoned: AtomicU64::new(0),
        }
    }

    /// Snapshot the current contents. The returned `Arc` stays valid
    /// (and immutable) regardless of later [`SwapCell::store`]s.
    #[must_use]
    pub fn load(&self) -> Arc<T> {
        self.lock().clone()
    }

    /// Publish `next`, replacing the current contents.
    pub fn store(&self, next: Arc<T>) {
        *self.lock() = next;
    }

    /// How many times a poisoned lock was recovered.
    #[must_use]
    pub fn poisoned(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Arc<T>> {
        self.slot.lock().unwrap_or_else(|poisoned| {
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            self.slot.clear_poison();
            poisoned.into_inner()
        })
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SwapCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SwapCell").field(&self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sees_latest_store() {
        let cell = SwapCell::new(vec![1u32]);
        let before = cell.load();
        cell.store(Arc::new(vec![1, 2]));
        assert_eq!(*before, vec![1], "old snapshot unaffected");
        assert_eq!(*cell.load(), vec![1, 2]);
    }

    #[test]
    fn poisoned_lock_recovers_and_counts() {
        let cell = SwapCell::new(3u32);
        let _ = std::panic::catch_unwind(|| {
            let _held = cell.slot.lock().unwrap();
            panic!("holder panics under the swap-cell lock");
        });
        assert!(cell.slot.is_poisoned());
        assert_eq!(*cell.load(), 3, "contents survive the panic");
        assert_eq!(cell.poisoned(), 1);
        cell.store(Arc::new(4));
        assert_eq!(*cell.load(), 4);
        assert_eq!(cell.poisoned(), 1, "recovery cleared the poison");
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        // Writers publish vectors whose elements all equal their length;
        // any reader observing a mixed vector would prove a torn update.
        let cell = Arc::new(SwapCell::new(vec![0usize; 4]));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for n in 1..200 {
                        cell.store(Arc::new(vec![n; n]));
                    }
                });
            }
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..500 {
                        let v = cell.load();
                        assert!(v.iter().all(|&x| x == v.len() || v.iter().all(|&y| y == x)));
                    }
                });
            }
        });
    }
}
