//! Link identities and flow paths.

use adapt_sim::time::Duration;

/// Index of a link inside a [`crate::flow::Network`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// One shared communication resource (a lane direction).
#[derive(Clone, Debug)]
pub struct Link {
    /// What the link is, for diagnostics.
    pub class: LinkClass,
    /// Capacity in bytes per second, shared max-min among active flows.
    pub capacity: f64,
    /// One-way propagation latency contributed to any path crossing it.
    pub latency: Duration,
}

/// The hardware lane a link models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Shared-memory pipe of one socket (`global_socket` index).
    Shm(u32),
    /// Inter-socket bus of one node.
    InterSocket(u32),
    /// NIC transmit side of one node.
    NicTx(u32),
    /// NIC receive side of one node.
    NicRx(u32),
    /// Aggregate fabric backbone.
    Backbone,
    /// PCI-Express host-bound (device→host) direction of one socket.
    PcieUp(u32),
    /// PCI-Express device-bound (host→device) direction of one socket.
    PcieDown(u32),
    /// NVLink peer lane of one socket's GPUs.
    NvLink(u32),
    /// One core's egress copy engine (`global core` index).
    CoreTx(u32),
    /// One core's ingress copy engine (`global core` index).
    CoreRx(u32),
}

/// Maximum number of links on any route (device → NIC → backbone → NIC →
/// device is the longest).
pub const MAX_PATH: usize = 6;

/// A fixed-capacity inline path of links, avoiding a heap allocation per
/// message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Path {
    links: [LinkId; MAX_PATH],
    len: u8,
}

impl Path {
    /// The empty path (purely local transfer).
    pub const EMPTY: Path = Path {
        links: [LinkId(0); MAX_PATH],
        len: 0,
    };

    /// Construct from a slice of at most [`MAX_PATH`] links.
    pub fn new(links: &[LinkId]) -> Path {
        assert!(links.len() <= MAX_PATH, "path too long: {}", links.len());
        let mut p = Path::EMPTY;
        p.links[..links.len()].copy_from_slice(links);
        p.len = links.len() as u8;
        p
    }

    /// Append a link, panicking if the path is full.
    pub fn push(&mut self, link: LinkId) {
        assert!((self.len as usize) < MAX_PATH, "path overflow");
        self.links[self.len as usize] = link;
        self.len += 1;
    }

    /// The links as a slice. Inlined: the fair-share recompute walks
    /// every active flow's path on each bottleneck perturbation, so
    /// these accessors sit on the `flow_churn` hot path.
    #[inline]
    pub fn as_slice(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the path crosses no shared resource.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if the path crosses `link`.
    #[inline]
    pub fn contains(&self, link: LinkId) -> bool {
        self.as_slice().contains(&link)
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = LinkId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, LinkId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_push_and_contains() {
        let mut p = Path::EMPTY;
        assert!(p.is_empty());
        p.push(LinkId(3));
        p.push(LinkId(7));
        assert_eq!(p.len(), 2);
        assert!(p.contains(LinkId(3)));
        assert!(!p.contains(LinkId(4)));
        assert_eq!(p.as_slice(), &[LinkId(3), LinkId(7)]);
    }

    #[test]
    fn path_new_roundtrip() {
        let p = Path::new(&[LinkId(1), LinkId(2), LinkId(3)]);
        assert_eq!(p.as_slice().len(), 3);
    }

    #[test]
    #[should_panic(expected = "path overflow")]
    fn path_overflow_panics() {
        let mut p = Path::new(&[LinkId(0); MAX_PATH]);
        p.push(LinkId(9));
    }
}
