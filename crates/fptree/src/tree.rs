//! The ternary FP-tree data structure.

use cfp_data::{CfpError, ItemRecoder, Source, TransactionDb};
use cfp_metrics::HeapSize;

/// The null "pointer" (node index).
pub const NIL: u32 = u32::MAX;

/// One FP-tree node in ternary representation (§2.2).
///
/// All pointers are indices into the tree's node vector; `NIL` is null.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FpNode {
    /// Recoded item identifier (support-descending dense ids).
    pub item: u32,
    /// Number of transactions whose prefix ends at or passes through this
    /// node (the *cumulative* count of the classic FP-tree).
    pub count: u32,
    /// Parent node, `NIL` for children of the root.
    pub parent: u32,
    /// Next node with the same item.
    pub nodelink: u32,
    /// Left child in the sibling binary search tree.
    pub left: u32,
    /// Right child in the sibling binary search tree.
    pub right: u32,
    /// Root of the BST holding this node's direct suffixes (children).
    pub suffix: u32,
}

/// Per-item header: entry point of the nodelink chain plus total support.
#[derive(Clone, Copy, Debug, Default)]
pub struct Header {
    /// First node of the item's nodelink chain (`NIL` if none).
    pub link: u32,
    /// Total support of the item in this tree.
    pub support: u64,
}

/// An FP-tree over recoded items `0..num_items`.
///
/// Node 0 is a sentinel root with `item == NIL`; the trees of the
/// root's children hang off `nodes[0].suffix`.
#[derive(Clone, Debug)]
pub struct FpTree {
    nodes: Vec<FpNode>,
    headers: Vec<Header>,
}

impl FpTree {
    /// Creates an empty tree over `num_items` recoded items.
    pub fn new(num_items: usize) -> Self {
        let root = FpNode {
            item: NIL,
            count: 0,
            parent: NIL,
            nodelink: NIL,
            left: NIL,
            right: NIL,
            suffix: NIL,
        };
        FpTree { nodes: vec![root], headers: vec![Header { link: NIL, support: 0 }; num_items] }
    }

    /// Builds the initial FP-tree from a database: recodes every
    /// transaction and inserts it with weight 1.
    pub fn from_db(db: &TransactionDb, recoder: &ItemRecoder) -> Self {
        Self::from_source(&Source::from(db), recoder).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`from_db`](Self::from_db) over any [`Source`]: one pass, failing
    /// only when the source's input does.
    pub fn from_source(source: &Source<'_>, recoder: &ItemRecoder) -> Result<Self, CfpError> {
        let mut tree = FpTree::new(recoder.num_items());
        let mut buf = Vec::new();
        source.for_each(|t| {
            recoder.recode_transaction(t, &mut buf);
            tree.insert(&buf, 1);
            Ok(())
        })?;
        Ok(tree)
    }

    /// Number of items this tree was created for.
    pub fn num_items(&self) -> usize {
        self.headers.len()
    }

    /// Number of tree nodes, excluding the sentinel root.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether the tree holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Immutable node access.
    #[inline]
    pub fn node(&self, idx: u32) -> &FpNode {
        &self.nodes[idx as usize]
    }

    /// The per-item headers.
    pub fn headers(&self) -> &[Header] {
        &self.headers
    }

    /// Inserts a transaction of strictly ascending recoded items,
    /// incrementing the counts along its path by `weight`.
    pub fn insert(&mut self, items: &[u32], weight: u32) {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "items must ascend");
        let mut cur = 0u32;
        for &item in items {
            self.headers[item as usize].support += weight as u64;
            cur = self.child(cur, item, weight);
        }
    }

    /// Finds or creates the child of `parent` holding `item`, bumps its
    /// count by `weight`, and returns its index.
    fn child(&mut self, parent: u32, item: u32, weight: u32) -> u32 {
        // Walk the sibling BST. `slot` identifies the NIL link we would
        // attach a fresh node to: (owner, which-field).
        let mut cur = self.nodes[parent as usize].suffix;
        if cur == NIL {
            let idx = self.new_node(parent, item, weight);
            self.nodes[parent as usize].suffix = idx;
            return idx;
        }
        loop {
            let node = &mut self.nodes[cur as usize];
            match item.cmp(&node.item) {
                std::cmp::Ordering::Equal => {
                    node.count += weight;
                    return cur;
                }
                std::cmp::Ordering::Less => {
                    if node.left == NIL {
                        let idx = self.new_node(parent, item, weight);
                        self.nodes[cur as usize].left = idx;
                        return idx;
                    }
                    cur = node.left;
                }
                std::cmp::Ordering::Greater => {
                    if node.right == NIL {
                        let idx = self.new_node(parent, item, weight);
                        self.nodes[cur as usize].right = idx;
                        return idx;
                    }
                    cur = node.right;
                }
            }
        }
    }

    fn new_node(&mut self, parent: u32, item: u32, weight: u32) -> u32 {
        let idx = self.nodes.len() as u32;
        assert!(idx != NIL, "FP-tree exceeded u32 node indices");
        let header = &mut self.headers[item as usize];
        self.nodes.push(FpNode {
            item,
            count: weight,
            parent,
            nodelink: header.link,
            left: NIL,
            right: NIL,
            suffix: NIL,
        });
        header.link = idx;
        idx
    }

    /// Iterates the nodelink chain of `item`.
    pub fn nodelinks(&self, item: u32) -> NodeLinkIter<'_> {
        NodeLinkIter { tree: self, cur: self.headers[item as usize].link }
    }

    /// Collects the items on the path from `idx`'s parent up to the root,
    /// in ascending item order (root side first).
    pub fn prefix_path(&self, idx: u32, out: &mut Vec<u32>) {
        out.clear();
        let mut cur = self.nodes[idx as usize].parent;
        while cur != 0 && cur != NIL {
            out.push(self.nodes[cur as usize].item);
            cur = self.nodes[cur as usize].parent;
        }
        out.reverse();
    }

    /// If the whole tree is one downward path, returns its `(item, count)`
    /// pairs from the top; otherwise `None`. Enables the single-path
    /// shortcut of FP-growth.
    pub fn single_path(&self) -> Option<Vec<(u32, u32)>> {
        let mut path = Vec::new();
        let mut cur = self.nodes[0].suffix;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            if node.left != NIL || node.right != NIL {
                return None;
            }
            path.push((node.item, node.count));
            cur = node.suffix;
        }
        Some(path)
    }

    /// Support of `item` within this tree.
    pub fn item_support(&self, item: u32) -> u64 {
        self.headers[item as usize].support
    }

    /// Bytes per node of this in-memory representation.
    pub const NODE_BYTES: usize = std::mem::size_of::<FpNode>();

    /// Bytes per node of the 40-byte convention the paper uses as its
    /// baseline for state-of-the-art FP-growth implementations (§4.2).
    pub const PAPER_NODE_BYTES: usize = 40;
}

impl HeapSize for FpTree {
    /// Length-based accounting: the C implementations the paper compares
    /// against allocate nodes from a pool without growth slack, so we
    /// count exactly `nodes * size_of::<FpNode>()` rather than the Rust
    /// `Vec`'s doubling capacity.
    fn heap_bytes(&self) -> u64 {
        (self.nodes.len() * std::mem::size_of::<FpNode>()
            + self.headers.len() * std::mem::size_of::<Header>()) as u64
    }
}

/// Iterator over a nodelink chain.
pub struct NodeLinkIter<'a> {
    tree: &'a FpTree,
    cur: u32,
}

impl Iterator for NodeLinkIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NIL {
            return None;
        }
        let idx = self.cur;
        self.cur = self.tree.node(idx).nodelink;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The FP-tree of Figure 1 is built from prefixes over items 1..4;
    /// here we use recoded ids 0..3.
    fn figure1_like_tree() -> FpTree {
        let mut t = FpTree::new(4);
        t.insert(&[0, 1, 2, 3], 5);
        t.insert(&[0, 1, 3], 3);
        t.insert(&[0, 2, 3], 2);
        t.insert(&[2, 3], 4);
        t.insert(&[0], 1);
        t
    }

    #[test]
    fn empty_tree_has_only_root() {
        let t = FpTree::new(3);
        assert!(t.is_empty());
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.single_path(), Some(vec![]));
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut t = FpTree::new(3);
        t.insert(&[0, 1], 1);
        t.insert(&[0, 1, 2], 1);
        t.insert(&[0, 2], 1);
        // nodes: 0, 0->1, 0->1->2, 0->2
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.item_support(0), 3);
        assert_eq!(t.item_support(1), 2);
        assert_eq!(t.item_support(2), 2);
    }

    #[test]
    fn counts_accumulate_along_paths() {
        let t = figure1_like_tree();
        // Node for prefix (0): count = 5 + 3 + 2 + 1 = 11.
        let first_zero = t.nodelinks(0).last().unwrap(); // oldest insertion
        assert_eq!(t.node(first_zero).item, 0);
        assert_eq!(t.node(first_zero).count, 11);
    }

    #[test]
    fn nodelinks_chain_all_occurrences() {
        let t = figure1_like_tree();
        // Item 3 occurs at ends of 4 distinct prefixes.
        assert_eq!(t.nodelinks(3).count(), 4);
        let total: u64 = t.nodelinks(3).map(|i| t.node(i).count as u64).sum();
        assert_eq!(total, t.item_support(3));
        assert_eq!(total, 5 + 3 + 2 + 4);
    }

    #[test]
    fn prefix_path_walks_to_root_in_ascending_order() {
        let t = figure1_like_tree();
        // Find the node for prefix (0,1,2,3): the deepest item-3 node.
        let idx = t
            .nodelinks(3)
            .find(|&i| {
                let mut p = Vec::new();
                t.prefix_path(i, &mut p);
                p.len() == 3
            })
            .unwrap();
        let mut path = Vec::new();
        t.prefix_path(idx, &mut path);
        assert_eq!(path, vec![0, 1, 2]);
    }

    #[test]
    fn single_path_detected() {
        let mut t = FpTree::new(4);
        t.insert(&[0, 1, 3], 2);
        t.insert(&[0, 1], 1);
        assert_eq!(t.single_path(), Some(vec![(0, 3), (1, 3), (3, 2)]));
        t.insert(&[0, 2], 1);
        assert_eq!(t.single_path(), None);
    }

    #[test]
    fn bst_ordering_holds_for_many_siblings() {
        let mut t = FpTree::new(64);
        // Insert singleton transactions in scrambled order.
        for item in [31u32, 5, 47, 0, 63, 22, 9, 40] {
            t.insert(&[item], 1);
        }
        // All are children of the root; walk the BST and check order.
        fn inorder(t: &FpTree, idx: u32, out: &mut Vec<u32>) {
            if idx == NIL {
                return;
            }
            inorder(t, t.node(idx).left, out);
            out.push(t.node(idx).item);
            inorder(t, t.node(idx).right, out);
        }
        let mut items = Vec::new();
        inorder(&t, t.node(0).suffix, &mut items);
        assert_eq!(items, vec![0, 5, 9, 22, 31, 40, 47, 63]);
    }

    #[test]
    fn from_db_applies_recoding() {
        let db = TransactionDb::from_rows(&[vec![10u32, 20], vec![10], vec![10, 20, 99]]);
        let recoder = ItemRecoder::scan(&db, 2);
        let t = FpTree::from_db(&db, &recoder);
        // item 10 (support 3) -> id 0; item 20 (support 2) -> id 1; 99 dropped.
        assert_eq!(t.num_items(), 2);
        assert_eq!(t.item_support(0), 3);
        assert_eq!(t.item_support(1), 2);
        assert_eq!(t.num_nodes(), 2);
    }

    #[test]
    fn weighted_insert_matches_repeated_insert() {
        let mut a = FpTree::new(3);
        a.insert(&[0, 2], 4);
        let mut b = FpTree::new(3);
        for _ in 0..4 {
            b.insert(&[0, 2], 1);
        }
        assert_eq!(a.item_support(0), b.item_support(0));
        assert_eq!(a.num_nodes(), b.num_nodes());
        let na = a.nodelinks(2).next().unwrap();
        let nb = b.nodelinks(2).next().unwrap();
        assert_eq!(a.node(na).count, b.node(nb).count);
    }

    #[test]
    fn node_size_is_28_bytes() {
        assert_eq!(FpTree::NODE_BYTES, 28);
    }
}
