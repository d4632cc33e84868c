//! Contiguous typed arenas with byte-level footprint accounting.
//!
//! The fleet simulator's memory wall was scattered ownership: 10⁵ member
//! records, each a separate heap object dragging its own working buffers,
//! cost ~46 GB where the durable state is a few hundred bytes per member.
//! The cure has two halves — per-worker scratch (see
//! `monitor::poller::EpochScratch`) for the transient buffers, and *this
//! crate* for the durable half: shard-local arenas that keep every member
//! record in one contiguous block.
//!
//! [`Slab<T>`] is a typed, append-only record store. Records never drop
//! until the slab does, and epoch loops iterate it like a slice — one cache
//! stream, no pointer chasing. It reports
//! [`resident_bytes`](Slab::resident_bytes) (capacity, not length — what
//! the process actually holds) so tests can pin "per-member bytes stay flat
//! as the fleet scales" (`crates/analysis/tests/alloc_steady_state.rs`).

/// A typed, append-only arena of records in one contiguous allocation.
///
/// There is no per-record free: fleet shards build once and run for the
/// whole simulation, so the only teardown is dropping the slab.
#[derive(Debug, Clone, Default)]
pub struct Slab<T> {
    items: Vec<T>,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab { items: Vec::new() }
    }

    /// An empty slab with room for `capacity` records (one allocation up
    /// front instead of doubling growth).
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            items: Vec::with_capacity(capacity),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, value: T) {
        self.items.push(value);
    }

    /// Iterates records in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Mutably iterates records in insertion order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.items.iter_mut()
    }

    /// The records as one contiguous slice (insertion order).
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Bytes of record storage the slab holds (capacity, not length).
    /// Heap owned *inside* records is the records' business — see
    /// `FleetMember::heap_bytes` for the composed figure.
    pub fn resident_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_push_appends_records() {
        let mut slab = Slab::new();
        slab.push("alpha");
        slab.push("beta");
        assert_eq!(slab.as_slice(), &["alpha", "beta"]);
        for name in slab.iter_mut() {
            *name = "gamma";
        }
        assert_eq!(slab.as_slice(), &["gamma", "gamma"]);
    }

    #[test]
    fn slab_iterates_in_insertion_order() {
        let mut slab = Slab::new();
        for i in 0..10 {
            slab.push(i * i);
        }
        let via_iter: Vec<i32> = slab.iter().copied().collect();
        assert_eq!(via_iter, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(slab.as_slice(), via_iter.as_slice());
        assert_eq!(via_iter[7], 49);
    }

    #[test]
    fn slab_records_are_contiguous() {
        let mut slab = Slab::with_capacity(4);
        slab.push(1u64);
        slab.push(2u64);
        slab.push(3u64);
        let s = slab.as_slice();
        // Contiguity is the point of the slab: adjacent records are exactly
        // one stride apart.
        let stride = std::mem::size_of::<u64>();
        let base = s.as_ptr() as usize;
        assert_eq!(&s[1] as *const u64 as usize, base + stride);
        assert_eq!(&s[2] as *const u64 as usize, base + 2 * stride);
    }

    #[test]
    fn slab_resident_bytes_tracks_capacity() {
        let slab: Slab<u64> = Slab::with_capacity(100);
        assert_eq!(slab.resident_bytes(), 100 * 8);
        let empty: Slab<u64> = Slab::new();
        assert_eq!(empty.resident_bytes(), 0);
    }
}
