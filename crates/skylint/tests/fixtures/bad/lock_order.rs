//! Bad fixture: lock-protocol violations, one per function.

use std::sync::RwLock;

/// Shared state under the read-then-write protocol.
pub struct Shared {
    inner: RwLock<Vec<u64>>,
    log: RwLock<Vec<u64>>,
}

impl Shared {
    /// Unannotated acquisition.
    pub fn count(&self) -> usize {
        self.inner.read().len()
    }

    /// Undeclared phase name.
    pub fn peek(&self) -> Option<u64> {
        self.inner.read().first().copied() // lock-order: browse
    }

    /// Annotation contradicts the acquisition kind.
    pub fn bump(&self) {
        self.inner.write().push(1); // lock-order: read
    }

    /// A read phase entered while a write guard is still held.
    pub fn swap(&self) -> usize {
        let mut log = self.log.write(); // lock-order: write
        log.push(1);
        self.inner.read().len() // lock-order: read
    }
}
