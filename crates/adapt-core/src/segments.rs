//! Message segmentation for pipelined collectives, and the MPI block
//! partition that scatter, gather and allgather split a message by.

/// Partition of a message into fixed-size segments (the last one may be
/// short).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segments {
    total: u64,
    seg: u64,
}

impl Segments {
    /// Split `total` bytes into segments of at most `seg` bytes.
    pub fn new(total: u64, seg: u64) -> Segments {
        assert!(seg > 0, "segment size must be positive");
        Segments { total, seg }
    }

    /// Total message size.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of segments (zero for an empty message).
    pub fn count(&self) -> u64 {
        self.total.div_ceil(self.seg)
    }

    /// Byte offset of segment `i`.
    pub fn offset(&self, i: u64) -> u64 {
        debug_assert!(i < self.count());
        i * self.seg
    }

    /// Length of segment `i`.
    pub fn len(&self, i: u64) -> u64 {
        debug_assert!(i < self.count());
        (self.total - i * self.seg).min(self.seg)
    }

    /// True when the message is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// Byte-range partition of a message into `n` blocks (the MPI
/// convention: `msg / n` bytes each, the first `msg % n` blocks one byte
/// longer). Block `i` belongs to rank `i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    msg: u64,
    n: u64,
}

impl BlockPartition {
    /// Partition `msg` bytes into `n` blocks.
    pub fn new(msg: u64, n: u64) -> BlockPartition {
        BlockPartition { msg, n }
    }

    /// Byte offset of block `i` (`offset(n)` is the message size).
    pub fn offset(&self, i: u64) -> u64 {
        let base = self.msg / self.n;
        let rem = self.msg % self.n;
        i * base + i.min(rem)
    }

    /// Length of block `i`.
    pub fn len(&self, i: u64) -> u64 {
        self.offset(i + 1) - self.offset(i)
    }

    /// Whether the partition covers no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.msg == 0
    }

    /// Byte range `[start, end)` of the contiguous blocks `[lo, hi)`.
    pub fn range(&self, lo: u64, hi: u64) -> (u64, u64) {
        (self.offset(lo), self.offset(hi))
    }

    /// Length of the contiguous blocks `[lo, hi)`.
    pub fn range_len(&self, lo: u64, hi: u64) -> u64 {
        self.offset(hi) - self.offset(lo)
    }

    /// Byte range of block `i`.
    pub fn block(&self, i: u64) -> (u64, u64) {
        self.range(i, i + 1)
    }

    /// Byte range of the blocks in rank `v`'s subtree of a binomial tree
    /// rooted at rank 0 (see [`binomial_subtree`]).
    pub fn subtree(&self, v: u64) -> (u64, u64) {
        self.range(v, v + binomial_subtree(v, self.n))
    }
}

/// Subtree size of rank `v` in a binomial tree over `n` ranks rooted at
/// rank 0. The subtree holds the contiguous ranks `[v, v + size)`.
pub fn binomial_subtree(v: u64, n: u64) -> u64 {
    if v == 0 {
        return n;
    }
    let lsb = v & v.wrapping_neg();
    lsb.min(n - v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let s = Segments::new(1024, 256);
        assert_eq!(s.count(), 4);
        assert_eq!(s.len(3), 256);
        assert_eq!(s.offset(2), 512);
    }

    #[test]
    fn ragged_tail() {
        let s = Segments::new(1000, 256);
        assert_eq!(s.count(), 4);
        assert_eq!(s.len(3), 232);
        assert_eq!((0..s.count()).map(|i| s.len(i)).sum::<u64>(), 1000);
    }

    #[test]
    fn empty_message() {
        let s = Segments::new(0, 64);
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn oversized_segment() {
        let s = Segments::new(10, 4096);
        assert_eq!(s.count(), 1);
        assert_eq!(s.len(0), 10);
    }

    #[test]
    fn block_ranges_cover_message() {
        let p = BlockPartition::new(1003, 7);
        assert_eq!(p.range(0, 7), (0, 1003));
        let total: u64 = (0..7).map(|i| p.len(i)).sum();
        assert_eq!(total, 1003);
        assert_eq!(p.range_len(2, 5), p.len(2) + p.len(3) + p.len(4));
        // First msg % n blocks get the extra byte.
        assert_eq!(p.len(0), 144);
        assert_eq!(p.len(6), 143);
        assert_eq!(p.block(1), (144, 288));
    }

    #[test]
    fn binomial_subtree_sizes() {
        assert_eq!(binomial_subtree(0, 8), 8);
        assert_eq!(binomial_subtree(4, 8), 4);
        assert_eq!(binomial_subtree(2, 8), 2);
        assert_eq!(binomial_subtree(1, 8), 1);
        // Clipped by n for non-power-of-two counts.
        assert_eq!(binomial_subtree(4, 6), 2);
        assert_eq!(BlockPartition::new(600, 6).subtree(4), (400, 600));
    }
}
