//! Communication trees.
//!
//! ADAPT decouples the collective engine from the tree shape (§2.2.4): any
//! spanning tree can drive broadcast (data flows root → leaves) or reduce
//! (leaves → root). This module provides the classic shapes — chain,
//! k-ary, binomial, k-nomial, flat — plus the multi-level topology-aware
//! tree of §3.2, built by composing per-level shapes bottom-up and gluing
//! them through the group leaders.

use adapt_topology::{Hierarchy, Placement, Rank};

/// Shape of a (sub-)tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeKind {
    /// Linear pipeline: each rank forwards to the next.
    Chain,
    /// Complete binary tree (BFS order).
    Binary,
    /// Complete k-ary tree (BFS order).
    Kary(u32),
    /// Binomial tree.
    Binomial,
    /// k-nomial tree (binomial generalized to radix k).
    Knomial(u32),
    /// Root sends directly to everyone.
    Flat,
}

/// A rooted spanning tree over the ranks of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tree {
    root: Rank,
    parent: Vec<Option<Rank>>,
    children: Vec<Vec<Rank>>,
}

impl Tree {
    /// An edgeless forest over `n` ranks (used as a composition canvas).
    fn empty(n: u32, root: Rank) -> Tree {
        Tree {
            root,
            parent: vec![None; n as usize],
            children: vec![Vec::new(); n as usize],
        }
    }

    /// Build a *partial* tree: a shape over `members` (whose first element
    /// is the sub-root) embedded in a canvas of `n` ranks. Ranks outside
    /// `members` are isolated (no parent, no children) — hierarchical
    /// phase collectives use this so non-participants no-op.
    pub fn partial(kind: TreeKind, n: u32, members: &[Rank]) -> Tree {
        assert!(!members.is_empty(), "partial tree needs members");
        let mut tree = Tree::empty(n, members[0]);
        tree.add_subtree(kind, members);
        tree
    }

    /// Build a tree of the given shape over all `n` ranks with `root`.
    /// Non-zero roots are handled by the usual virtual-rank rotation.
    ///
    /// ```
    /// use adapt_core::{Tree, TreeKind};
    /// let t = Tree::build(TreeKind::Binomial, 8, 0);
    /// assert_eq!(t.children(0), &[1, 2, 4]);
    /// assert_eq!(t.parent(5), Some(4));
    /// t.validate().unwrap();
    /// ```
    pub fn build(kind: TreeKind, n: u32, root: Rank) -> Tree {
        assert!(root < n, "root out of range");
        let members: Vec<Rank> = (0..n).map(|v| (v + root) % n).collect();
        let mut tree = Tree::empty(n, root);
        tree.add_subtree(kind, &members);
        tree
    }

    /// Overlay a sub-tree of the given shape on `members` (`members[0]` is the
    /// sub-root and receives no parent edge here). Panics if a member other
    /// than the sub-root already has a parent — composition must assign each
    /// rank's parent exactly once.
    pub fn add_subtree(&mut self, kind: TreeKind, members: &[Rank]) {
        let m = members.len();
        if m <= 1 {
            return;
        }
        let mut connect = |child_vr: usize, parent_vr: usize| {
            let c = members[child_vr];
            let p = members[parent_vr];
            assert!(
                self.parent[c as usize].is_none() && c != self.root,
                "rank {c} assigned two parents during composition"
            );
            self.parent[c as usize] = Some(p);
            self.children[p as usize].push(c);
        };
        match kind {
            TreeKind::Chain => {
                for v in 1..m {
                    connect(v, v - 1);
                }
            }
            TreeKind::Binary => {
                for v in 1..m {
                    connect(v, (v - 1) / 2);
                }
            }
            TreeKind::Kary(k) => {
                let k = k.max(1) as usize;
                for v in 1..m {
                    connect(v, (v - 1) / k);
                }
            }
            TreeKind::Binomial => {
                // Virtual rank v's parent clears v's lowest set bit.
                for v in 1..m {
                    let lsb = v & v.wrapping_neg();
                    connect(v, v - lsb);
                }
            }
            TreeKind::Knomial(k) => {
                let k = (k.max(2)) as usize;
                // Radix-k generalization: strip the lowest non-zero base-k
                // digit.
                for v in 1..m {
                    let mut digit = 1;
                    while (v / digit) % k == 0 {
                        digit *= k;
                    }
                    let low = (v / digit) % k;
                    connect(v, v - low * digit);
                }
            }
            TreeKind::Flat => {
                for v in 1..m {
                    connect(v, 0);
                }
            }
        }
    }

    /// Number of ranks spanned.
    pub fn len(&self) -> u32 {
        self.parent.len() as u32
    }

    /// True for a zero-rank tree (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root rank.
    pub fn root(&self) -> Rank {
        self.root
    }

    /// Parent of `rank` (`None` for the root).
    pub fn parent(&self, rank: Rank) -> Option<Rank> {
        self.parent[rank as usize]
    }

    /// Children of `rank`, in send order.
    pub fn children(&self, rank: Rank) -> &[Rank] {
        &self.children[rank as usize]
    }

    /// Depth of `rank` (root = 0).
    pub fn depth(&self, rank: Rank) -> u32 {
        let mut d = 0;
        let mut r = rank;
        while let Some(p) = self.parent[r as usize] {
            d += 1;
            r = p;
            assert!(d <= self.len(), "cycle in tree");
        }
        d
    }

    /// Height of the whole tree.
    pub fn height(&self) -> u32 {
        (0..self.len()).map(|r| self.depth(r)).max().unwrap_or(0)
    }

    /// Rebuild the tree around a set of dead ranks: every live rank whose
    /// ancestor chain crosses a dead rank is re-parented to its nearest
    /// *live* ancestor, and dead ranks are cut out entirely (no parent,
    /// no children). Send order under the adopting parent is preserved:
    /// surviving original children first, adopted orphans after, in
    /// original-tree order.
    ///
    /// Errors if the root itself is dead — there is no rank to shrink the
    /// collective onto, so the caller must surface a structured failure.
    pub fn rebuild_without(&self, dead: &[Rank]) -> Result<Tree, String> {
        let n = self.len() as usize;
        let mut is_dead = vec![false; n];
        for &d in dead {
            if (d as usize) < n {
                is_dead[d as usize] = true;
            }
        }
        if is_dead[self.root as usize] {
            return Err(format!("root rank {} is dead; cannot rebuild", self.root));
        }
        let mut t = Tree::empty(self.len(), self.root);
        // BFS from the root keeps adoption order deterministic and equal
        // to the original send order at every adopting parent.
        let mut frontier: Vec<(Rank, Rank)> = self // (live parent, subtree top)
            .children(self.root)
            .iter()
            .map(|&c| (self.root, c))
            .collect();
        while let Some((live_parent, top)) = frontier.pop() {
            if is_dead[top as usize] {
                // Cut the dead rank out; its children are adopted by the
                // nearest live ancestor, keeping their original order.
                for &c in self.children(top).iter().rev() {
                    frontier.push((live_parent, c));
                }
            } else {
                t.parent[top as usize] = Some(live_parent);
                t.children[live_parent as usize].push(top);
                for &c in self.children(top).iter().rev() {
                    frontier.push((top, c));
                }
            }
        }
        // Normalize adoption order: `pop` above walks depth-first, which
        // can interleave sibling subtrees, so sort each child list by the
        // original tree's BFS discovery order (rank order of first
        // appearance is not stable enough — use original depth, then the
        // original parent's send position chain). Simpler and fully
        // deterministic: surviving original children keep their relative
        // order, adopted ranks append in original-tree preorder.
        let preorder = self.preorder();
        let mut pos = vec![0usize; n];
        for (i, &r) in preorder.iter().enumerate() {
            pos[r as usize] = i;
        }
        for (p, kids) in t.children.iter_mut().enumerate() {
            kids.sort_by_key(|&c| {
                let original = self.parent[c as usize] == Some(p as Rank);
                (!original, pos[c as usize])
            });
        }
        Ok(t)
    }

    /// Preorder walk (root first, children in send order).
    fn preorder(&self) -> Vec<Rank> {
        let mut out = Vec::with_capacity(self.len() as usize);
        let mut stack = vec![self.root];
        while let Some(r) = stack.pop() {
            out.push(r);
            for &c in self.children(r).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Check the spanning-tree invariants; used by tests and on composition.
    pub fn validate(&self) -> Result<(), String> {
        if self.parent[self.root as usize].is_some() {
            return Err("root has a parent".into());
        }
        // Every non-root rank must have a parent and be reachable.
        for r in 0..self.len() {
            if r != self.root && self.parent[r as usize].is_none() {
                return Err(format!("rank {r} unreachable (no parent)"));
            }
        }
        // Parent/children symmetry.
        for p in 0..self.len() {
            for &c in self.children(p) {
                if self.parent[c as usize] != Some(p) {
                    return Err(format!("edge {p}->{c} not symmetric"));
                }
            }
        }
        // Depth computation doubles as cycle detection.
        for r in 0..self.len() {
            let _ = self.depth(r);
        }
        Ok(())
    }
}

/// Per-level shapes for the topology-aware tree of §3.2.1.
///
/// The paper's large-message configuration uses a chain at every level
/// (following Pješivac-Grbović et al., Cluster Computing 2007); each level can be changed
/// independently to match its lane characteristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopoTreeConfig {
    /// Shape among node leaders (inter-node lane).
    pub cluster: TreeKind,
    /// Shape among socket leaders within a node (inter-socket lane).
    pub node: TreeKind,
    /// Shape within a socket (shared-memory lane).
    pub socket: TreeKind,
}

impl Default for TopoTreeConfig {
    fn default() -> Self {
        TopoTreeConfig {
            cluster: TreeKind::Chain,
            node: TreeKind::Chain,
            socket: TreeKind::Chain,
        }
    }
}

/// Build the single-communicator topology-aware tree (paper Figure 5):
/// group processes bottom-up (socket → node → cluster), give each group its
/// own shape, and glue levels through the group leaders. Rooted at rank 0.
///
/// ```
/// use adapt_core::{topology_aware_tree, TopoTreeConfig};
/// use adapt_topology::{profiles, Placement};
/// // Figure 5's machine: 3 nodes x 2 sockets x 4 cores.
/// let machine = profiles::minicluster(3, 2, 4);
/// let placement = Placement::block_cpu(machine.shape, 24);
/// let tree = topology_aware_tree(&placement, TopoTreeConfig::default());
/// // The root feeds the next node leader, its socket-1 leader, and its
/// // intra-socket neighbour — three different lanes.
/// assert_eq!(tree.children(0), &[8, 4, 1]);
/// ```
pub fn topology_aware_tree(placement: &Placement, config: TopoTreeConfig) -> Tree {
    topology_aware_tree_rooted(placement, config, 0)
}

/// [`topology_aware_tree`] with an arbitrary root: `root` is elected leader
/// of its socket, node, and the cluster, so the tree is rooted at it while
/// every lane still carries its level's traffic (needed by applications
/// whose broadcast root rotates, e.g. ASP).
pub fn topology_aware_tree_rooted(
    placement: &Placement,
    config: TopoTreeConfig,
    root: Rank,
) -> Tree {
    let h = Hierarchy::build_rooted(placement, root);
    let n = placement.len();
    assert_eq!(h.cluster_group.leader(), root, "root leads the hierarchy");
    let mut tree = Tree::empty(n, root);
    // Top level first so composition asserts catch overlap bugs early.
    tree.add_subtree(config.cluster, &h.cluster_group.ranks);
    for g in &h.node_groups {
        tree.add_subtree(config.node, &g.ranks);
    }
    for g in &h.socket_groups {
        tree.add_subtree(config.socket, &g.ranks);
    }
    debug_assert_eq!(tree.validate(), Ok(()));
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_topology::ClusterShape;

    #[test]
    fn chain_shape() {
        let t = Tree::build(TreeKind::Chain, 5, 0);
        assert_eq!(t.children(0), &[1]);
        assert_eq!(t.children(3), &[4]);
        assert_eq!(t.children(4), &[] as &[u32]);
        assert_eq!(t.height(), 4);
        t.validate().unwrap();
    }

    #[test]
    fn binary_shape() {
        let t = Tree::build(TreeKind::Binary, 7, 0);
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.children(1), &[3, 4]);
        assert_eq!(t.children(2), &[5, 6]);
        assert_eq!(t.height(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn binomial_shape() {
        let t = Tree::build(TreeKind::Binomial, 8, 0);
        // Root of an 8-rank binomial has children 1, 2, 4.
        assert_eq!(t.children(0), &[1, 2, 4]);
        assert_eq!(t.children(4), &[5, 6]);
        assert_eq!(t.children(6), &[7]);
        assert_eq!(t.height(), 3);
        t.validate().unwrap();
    }

    #[test]
    fn knomial_radix4() {
        let t = Tree::build(TreeKind::Knomial(4), 16, 0);
        // Root's children: 1,2,3 (digit 1) and 4,8,12 (digit k).
        assert_eq!(t.children(0), &[1, 2, 3, 4, 8, 12]);
        assert_eq!(t.children(4), &[5, 6, 7]);
        t.validate().unwrap();
    }

    #[test]
    fn knomial_radix2_equals_binomial() {
        for n in [1u32, 2, 3, 7, 8, 13, 16] {
            assert_eq!(
                Tree::build(TreeKind::Knomial(2), n, 0),
                Tree::build(TreeKind::Binomial, n, 0),
                "n={n}"
            );
        }
    }

    #[test]
    fn flat_shape() {
        let t = Tree::build(TreeKind::Flat, 6, 0);
        assert_eq!(t.children(0).len(), 5);
        assert_eq!(t.height(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn nonzero_root_rotation() {
        let t = Tree::build(TreeKind::Chain, 4, 2);
        assert_eq!(t.root(), 2);
        assert_eq!(t.children(2), &[3]);
        assert_eq!(t.children(3), &[0]);
        assert_eq!(t.children(0), &[1]);
        assert_eq!(t.parent(2), None);
        t.validate().unwrap();
    }

    #[test]
    fn single_rank_tree() {
        let t = Tree::build(TreeKind::Binomial, 1, 0);
        assert_eq!(t.children(0), &[] as &[u32]);
        t.validate().unwrap();
    }

    #[test]
    fn figure5_topology_tree() {
        // Paper Figure 5: 3 nodes x 2 sockets x 4 cores, chains everywhere.
        let shape = ClusterShape {
            nodes: 3,
            sockets_per_node: 2,
            cores_per_socket: 4,
            gpus_per_socket: 0,
        };
        let placement = Placement::block_cpu(shape, 24);
        let t = topology_aware_tree(&placement, TopoTreeConfig::default());
        t.validate().unwrap();
        // Cluster chain: 0 -> 8 -> 16.
        assert!(t.children(0).contains(&8));
        assert!(t.children(8).contains(&16));
        // Node chain: 0 -> 4 (socket leaders of node 0).
        assert!(t.children(0).contains(&4));
        // Socket chain: 4 -> 5 -> 6 -> 7; P4 glues the levels.
        assert_eq!(t.parent(5), Some(4));
        assert_eq!(t.parent(6), Some(5));
        assert_eq!(t.parent(7), Some(6));
        // Socket chain on node 0 socket 0: 0 -> 1 -> 2 -> 3.
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(3), Some(2));
        // Root fan-out on Figure 5 is 3: next node leader, next socket
        // leader, next core in socket.
        assert_eq!(t.children(0).len(), 3);
    }

    #[test]
    fn topo_tree_mixed_kinds() {
        let shape = ClusterShape {
            nodes: 4,
            sockets_per_node: 2,
            cores_per_socket: 8,
            gpus_per_socket: 0,
        };
        let placement = Placement::block_cpu(shape, 64);
        let t = topology_aware_tree(
            &placement,
            TopoTreeConfig {
                cluster: TreeKind::Binomial,
                node: TreeKind::Flat,
                socket: TreeKind::Binary,
            },
        );
        t.validate().unwrap();
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn rooted_topology_tree_spans_from_any_root() {
        let shape = ClusterShape {
            nodes: 3,
            sockets_per_node: 2,
            cores_per_socket: 4,
            gpus_per_socket: 0,
        };
        let placement = Placement::block_cpu(shape, 24);
        for root in [0u32, 5, 13, 23] {
            let t = topology_aware_tree_rooted(&placement, TopoTreeConfig::default(), root);
            assert_eq!(t.root(), root, "root {root}");
            t.validate().unwrap();
            assert_eq!(t.len(), 24);
        }
    }

    #[test]
    fn rebuild_without_reparents_orphans_to_live_ancestor() {
        // Binomial over 8: 0 -> {1, 2, 4}, 4 -> {5, 6}, 6 -> {7}.
        let t = Tree::build(TreeKind::Binomial, 8, 0);
        let r = t.rebuild_without(&[4]).unwrap();
        // 4's children are adopted by the root, after its surviving
        // original children, in original order.
        assert_eq!(r.children(0), &[1, 2, 5, 6]);
        assert_eq!(r.parent(5), Some(0));
        assert_eq!(r.parent(6), Some(0));
        // The grandchild keeps its live parent.
        assert_eq!(r.parent(7), Some(6));
        // The dead rank is cut out entirely.
        assert_eq!(r.parent(4), None);
        assert_eq!(r.children(4), &[] as &[u32]);
    }

    #[test]
    fn rebuild_without_skips_chains_of_dead_ranks() {
        // Chain 0 -> 1 -> 2 -> 3 -> 4 with 1, 2, 3 all dead: 4 hops all
        // the way up to the root.
        let t = Tree::build(TreeKind::Chain, 5, 0);
        let r = t.rebuild_without(&[1, 2, 3]).unwrap();
        assert_eq!(r.parent(4), Some(0));
        assert_eq!(r.children(0), &[4]);
    }

    #[test]
    fn rebuild_without_dead_root_errors() {
        let t = Tree::build(TreeKind::Binary, 7, 0);
        assert!(t.rebuild_without(&[0]).is_err());
        // Leaf kills never error.
        assert!(t.rebuild_without(&[6]).is_ok());
    }

    #[test]
    fn rebuild_without_nobody_dead_is_identity() {
        for kind in [TreeKind::Binomial, TreeKind::Binary, TreeKind::Chain] {
            let t = Tree::build(kind, 13, 0);
            assert_eq!(t.rebuild_without(&[]).unwrap(), t);
        }
    }

    #[test]
    fn rebuild_without_spans_all_survivors() {
        // Every single-rank kill of the Figure-5 topology tree leaves a
        // tree spanning exactly the survivors.
        let shape = ClusterShape {
            nodes: 3,
            sockets_per_node: 2,
            cores_per_socket: 4,
            gpus_per_socket: 0,
        };
        let placement = Placement::block_cpu(shape, 24);
        let t = topology_aware_tree(&placement, TopoTreeConfig::default());
        for dead in 1..24u32 {
            let r = t.rebuild_without(&[dead]).unwrap();
            for rank in 0..24u32 {
                if rank == dead {
                    assert_eq!(r.parent(rank), None);
                    assert!(r.children(rank).is_empty());
                } else if rank != r.root() {
                    let p = r.parent(rank).expect("survivor reachable");
                    assert_ne!(p, dead, "no survivor may point at the dead rank");
                    assert!(r.children(p).contains(&rank), "symmetry");
                }
                let _ = r.depth(rank); // cycle check
            }
        }
    }

    #[test]
    #[should_panic(expected = "two parents")]
    fn overlapping_composition_panics() {
        let mut t = Tree::empty(4, 0);
        t.add_subtree(TreeKind::Chain, &[0, 1, 2]);
        t.add_subtree(TreeKind::Chain, &[0, 2, 3]); // 2 already has a parent
    }
}
