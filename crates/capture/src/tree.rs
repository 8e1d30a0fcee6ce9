use crate::policy::{precise_run, CapturePolicy};

/// The paper's search-tree allocation log (Fig. 5), realized as an AVL tree
/// of disjoint ranges keyed by start address.
///
/// Every node is additionally annotated with the bounds `[min_start,
/// max_end)` of its entire subtree. As in the paper, this "optimizes for the
/// common case": a lookup of an address that was *not* allocated in the
/// transaction usually falls outside the bounds of a node high in the tree
/// and terminates immediately, keeping the cost added to non-elidable
/// barriers low.
///
/// The paper does not specify its balancing scheme; we use AVL rotations
/// (documented as a substitution in DESIGN.md). Precision is what matters:
/// this structure finds *every* captured access, which is why the paper (and
/// our Fig. 8 harness) uses it to count elision opportunities.
pub struct RangeTree {
    root: Option<Box<Node>>,
    len: usize,
    /// Nodes unlinked by `remove`/`clear`, reused by `insert`: the log is
    /// emptied at every transaction end, so without this each transactional
    /// allocation is also a `malloc` and a `free`. Grows to the largest
    /// transaction's node count, like the worker's other logs. Boxed on
    /// purpose: these *are* the tree's nodes, parked without a copy.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Node>>,
}

struct Node {
    start: u64,
    end: u64,
    level: u32,
    height: i8,
    /// Smallest start in this subtree.
    min_start: u64,
    /// Largest end in this subtree.
    max_end: u64,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

impl Node {
    fn leaf(start: u64, end: u64, level: u32) -> Node {
        Node {
            start,
            end,
            level,
            height: 1,
            min_start: start,
            max_end: end,
            left: None,
            right: None,
        }
    }

    fn update(&mut self) {
        let (lh, rh) = (height(&self.left), height(&self.right));
        self.height = 1 + lh.max(rh);
        self.min_start = self.left.as_ref().map_or(self.start, |l| l.min_start);
        self.max_end = self
            .end
            .max(self.left.as_ref().map_or(0, |l| l.max_end))
            .max(self.right.as_ref().map_or(0, |r| r.max_end));
    }

    fn balance_factor(&self) -> i8 {
        height(&self.left) - height(&self.right)
    }
}

#[inline]
fn height(n: &Option<Box<Node>>) -> i8 {
    n.as_ref().map_or(0, |n| n.height)
}

fn rotate_right(mut n: Box<Node>) -> Box<Node> {
    let mut l = n.left.take().expect("rotate_right without left child");
    n.left = l.right.take();
    n.update();
    l.right = Some(n);
    l.update();
    l
}

fn rotate_left(mut n: Box<Node>) -> Box<Node> {
    let mut r = n.right.take().expect("rotate_left without right child");
    n.right = r.left.take();
    n.update();
    r.left = Some(n);
    r.update();
    r
}

fn rebalance(mut n: Box<Node>) -> Box<Node> {
    n.update();
    let bf = n.balance_factor();
    if bf > 1 {
        if n.left.as_ref().unwrap().balance_factor() < 0 {
            n.left = Some(rotate_left(n.left.take().unwrap()));
        }
        rotate_right(n)
    } else if bf < -1 {
        if n.right.as_ref().unwrap().balance_factor() > 0 {
            n.right = Some(rotate_right(n.right.take().unwrap()));
        }
        rotate_left(n)
    } else {
        n
    }
}

fn insert_node(n: Option<Box<Node>>, new: Box<Node>) -> Box<Node> {
    match n {
        None => new,
        Some(mut n) => {
            if new.start < n.start {
                n.left = Some(insert_node(n.left.take(), new));
            } else {
                n.right = Some(insert_node(n.right.take(), new));
            }
            rebalance(n)
        }
    }
}

/// Remove the node with the minimum start; returns (rest, removed).
fn take_min(mut n: Box<Node>) -> (Option<Box<Node>>, Box<Node>) {
    match n.left.take() {
        None => (n.right.take(), n),
        Some(l) => {
            let (rest, min) = take_min(l);
            n.left = rest;
            (Some(rebalance(n)), min)
        }
    }
}

/// Unlink the node starting at `start`; returns (rest, removed).
fn remove_node(n: Option<Box<Node>>, start: u64) -> (Option<Box<Node>>, Option<Box<Node>>) {
    match n {
        None => (None, None),
        Some(mut n) => {
            if start < n.start {
                let (l, removed) = remove_node(n.left.take(), start);
                n.left = l;
                (Some(rebalance(n)), removed)
            } else if start > n.start {
                let (r, removed) = remove_node(n.right.take(), start);
                n.right = r;
                (Some(rebalance(n)), removed)
            } else {
                let rest = match (n.left.take(), n.right.take()) {
                    (None, r) => r,
                    (l, None) => l,
                    (l, Some(r)) => {
                        let (rest, mut succ) = take_min(r);
                        succ.left = l;
                        succ.right = rest;
                        Some(rebalance(succ))
                    }
                };
                (rest, Some(n))
            }
        }
    }
}

impl RangeTree {
    /// An empty tree.
    pub fn new() -> RangeTree {
        RangeTree {
            root: None,
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Number of logged ranges (diagnostics; O(1)).
    pub fn entries(&self) -> usize {
        self.len
    }

    /// Height of the tree (diagnostics; O(1)).
    pub fn height(&self) -> usize {
        height(&self.root) as usize
    }

    /// Like [`CapturePolicy::query`], but returning the containing range
    /// `(start, end, level)` — the basis of the STM's inline capture cache
    /// (the tree is precise, so the range stays valid until it is removed
    /// or the tree is cleared).
    #[inline]
    pub fn query_range(&self, addr: u64) -> Option<(u64, u64, u32)> {
        let mut cur = &self.root;
        while let Some(n) = cur {
            // Paper's early-exit: the subtree bounds prune most misses at
            // internal nodes near the root.
            if addr < n.min_start || addr >= n.max_end {
                return None;
            }
            if addr < n.start {
                cur = &n.left;
            } else if addr < n.end {
                return Some((n.start, n.end, n.level));
            } else {
                cur = &n.right;
            }
        }
        None
    }

    /// Smallest logged range start strictly greater than `addr` — the next
    /// capture boundary ahead of a miss. Ranged barriers use this to bound a
    /// *shared* run: every word in `[addr, next_start_after(addr))` is
    /// guaranteed not captured (ranges are disjoint and `addr` itself already
    /// missed), so one classification covers the whole prefix. Plain BST
    /// successor-by-start walk, O(height).
    #[inline]
    pub fn next_start_after(&self, addr: u64) -> Option<u64> {
        let mut best = None;
        let mut cur = &self.root;
        while let Some(n) = cur {
            if n.start > addr {
                best = Some(n.start);
                cur = &n.left;
            } else {
                cur = &n.right;
            }
        }
        best
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        fn walk(n: &Option<Box<Node>>, lo: u64, hi: u64) -> (i8, u64, u64) {
            match n {
                None => (0, u64::MAX, 0),
                Some(n) => {
                    assert!(n.start >= lo && n.start < hi, "BST order violated");
                    let (lh, lmin, lmax) = walk(&n.left, lo, n.start);
                    let (rh, _rmin, rmax) = walk(&n.right, n.start + 1, hi);
                    assert!((lh - rh).abs() <= 1, "AVL balance violated");
                    assert_eq!(n.height, 1 + lh.max(rh), "height stale");
                    assert_eq!(n.min_start, lmin.min(n.start), "min_start stale");
                    assert_eq!(n.max_end, lmax.max(rmax).max(n.end), "max_end stale");
                    (n.height, n.min_start, n.max_end)
                }
            }
        }
        walk(&self.root, 0, u64::MAX);
    }
}

impl Default for RangeTree {
    fn default() -> Self {
        Self::new()
    }
}

impl CapturePolicy for RangeTree {
    fn insert(&mut self, start: u64, len: u64, level: u32) {
        debug_assert!(len > 0);
        let leaf = Node::leaf(start, start + len, level);
        let node = match self.spare.pop() {
            Some(mut n) => {
                *n = leaf;
                n
            }
            None => Box::new(leaf),
        };
        self.root = Some(insert_node(self.root.take(), node));
        self.len += 1;
    }

    fn remove(&mut self, start: u64, _len: u64) {
        let (root, removed) = remove_node(self.root.take(), start);
        self.root = root;
        if let Some(n) = removed {
            self.len -= 1;
            self.spare.push(n);
        }
    }

    #[inline]
    fn query(&self, addr: u64) -> Option<u32> {
        self.query_range(addr).map(|(_, _, level)| level)
    }

    fn clear(&mut self) {
        // Flatten the tree into the spare list, breadth first, using the
        // list's own tail as the queue.
        let mut i = self.spare.len();
        self.spare.extend(self.root.take());
        while let Some(n) = self.spare.get_mut(i) {
            let (l, r) = (n.left.take(), n.right.take());
            self.spare.extend(l.into_iter().chain(r));
            i += 1;
        }
        self.len = 0;
    }

    #[inline]
    fn query_run(&self, addr: u64, limit: u64) -> (Option<u32>, Option<(u64, u64)>) {
        precise_run(self.query_range(addr), addr, limit, || {
            self.next_start_after(addr)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_misses() {
        let t = RangeTree::new();
        assert_eq!(t.query(123), None);
        assert_eq!(t.entries(), 0);
    }

    #[test]
    fn paper_figure_5_example() {
        // Ranges (1000,1100), (1150,1200), (1980,2000) from the paper.
        let mut t = RangeTree::new();
        t.insert(1000, 100, 1);
        t.insert(1150, 50, 1);
        t.insert(1980, 20, 1);
        assert_eq!(t.query(1000), Some(1));
        assert_eq!(t.query(1099), Some(1));
        assert_eq!(t.query(1100), None, "end is exclusive");
        assert_eq!(t.query(1120), None, "gap between ranges");
        assert_eq!(t.query(1150), Some(1));
        assert_eq!(t.query(1999), Some(1));
        assert_eq!(t.query(999), None);
        assert_eq!(t.query(2000), None);
        t.check_invariants();
    }

    #[test]
    fn insert_remove_many_keeps_balance() {
        let mut t = RangeTree::new();
        for i in 0..512u64 {
            t.insert(i * 100, 50, 1);
            t.check_invariants();
        }
        assert_eq!(t.entries(), 512);
        assert!(
            t.height() <= 12,
            "AVL height bound violated: {}",
            t.height()
        );
        for i in (0..512u64).step_by(2) {
            t.remove(i * 100, 50);
            t.check_invariants();
        }
        assert_eq!(t.entries(), 256);
        for i in 0..512u64 {
            let expect = if i % 2 == 0 { None } else { Some(1) };
            assert_eq!(t.query(i * 100 + 25), expect, "i={i}");
        }
    }

    #[test]
    fn next_start_after_finds_the_successor_range() {
        let mut t = RangeTree::new();
        assert_eq!(t.next_start_after(0), None);
        t.insert(1000, 100, 1);
        t.insert(1150, 50, 1);
        t.insert(1980, 20, 1);
        assert_eq!(t.next_start_after(0), Some(1000));
        assert_eq!(t.next_start_after(999), Some(1000));
        assert_eq!(t.next_start_after(1000), Some(1150), "strictly greater");
        assert_eq!(t.next_start_after(1100), Some(1150));
        assert_eq!(t.next_start_after(1150), Some(1980));
        assert_eq!(t.next_start_after(1980), None);
        t.remove(1150, 50);
        assert_eq!(t.next_start_after(1000), Some(1980), "hole skips removed");
    }

    #[test]
    fn levels_are_preserved() {
        let mut t = RangeTree::new();
        t.insert(100, 10, 1);
        t.insert(200, 10, 2);
        t.insert(300, 10, 3);
        assert_eq!(t.query(105), Some(1));
        assert_eq!(t.query(205), Some(2));
        assert_eq!(t.query(305), Some(3));
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut t = RangeTree::new();
        t.insert(100, 10, 1);
        t.remove(999, 10);
        assert_eq!(t.entries(), 1);
        assert_eq!(t.query(100), Some(1));
    }

    #[test]
    fn clear_resets() {
        let mut t = RangeTree::new();
        for i in 0..32u64 {
            t.insert(i * 64, 64, 1);
        }
        t.clear();
        assert_eq!(t.entries(), 0);
        assert_eq!(t.query(64), None);
        // Unlinked nodes are parked and reused: a steady-state transaction
        // allocates no node.
        assert_eq!(t.spare.len(), 32);
        for i in 0..32u64 {
            t.insert(i * 64, 64, 2);
        }
        assert!(t.spare.is_empty());
        t.check_invariants();
        assert_eq!(t.query(64), Some(2));
        t.remove(64, 64);
        assert_eq!((t.spare.len(), t.query(64)), (1, None));
    }

    #[test]
    fn reverse_and_random_insert_orders() {
        let mut t = RangeTree::new();
        let mut order: Vec<u64> = (0..256).collect();
        // Deterministic shuffle.
        let mut s = 0x12345678u64;
        for i in (1..order.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        for &i in &order {
            t.insert(i * 16, 16, 1);
        }
        t.check_invariants();
        for i in 0..256u64 {
            assert_eq!(t.query(i * 16 + 8), Some(1));
        }
    }
}
