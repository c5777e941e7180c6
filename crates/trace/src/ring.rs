//! The fixed-capacity sample ring.

use std::collections::VecDeque;

/// A ring buffer with capacity fixed at construction: pushes past
/// capacity overwrite the oldest entry (flight-recorder semantics — the
/// most recent window survives) and are tallied, never silently lost.
/// `push` is allocation-free by construction: the backing store is
/// reserved full-size up front.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    overwritten: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity ring");
        Ring {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            overwritten: 0,
        }
    }

    /// Appends `item`, evicting (and tallying) the oldest entry if full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.overwritten += 1;
        }
        self.buf.push_back(item);
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.buf.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Entries evicted to make room — the sample-loss tally reports
    /// surface so a too-small ring is visible, not silent.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_newest_and_tallies_evictions() {
        let mut r: Ring<u32> = Ring::new(3);
        assert_eq!(r.len(), 0);
        for v in 0..5 {
            r.push(v);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.overwritten(), 2);
        let kept: Vec<u32> = r.iter().copied().collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted, order preserved");
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        let _ = Ring::<u32>::new(0);
    }
}
