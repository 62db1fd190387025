//! In-memory kd-tree with best-first *incremental* nearest-neighbor search
//! (Hjaltason & Samet). SRS uses this to enumerate its 6-dimensional
//! projected points in strictly increasing projected distance.
//!
//! Points are stored **leaf-contiguous**: after the recursive median build,
//! the point table is permuted so every leaf owns one flat row-major block,
//! scored in a single [`Metric::key_batch`] sweep (original ids are carried
//! in a side table, so the public API still speaks caller ids).
//!
//! The tree serves every *additive per-axis* metric — L2, L1, and
//! cosine-as-normalized-L2 — because its split-plane pruning bound is a sum
//! of one term per constrained axis (`gap²` for L2/Cosine, `|gap|` for L1),
//! each a valid per-axis lower bound. The dot product admits no such
//! spatial bound (a far cell can hold the best inner product), so it is
//! refused at build time.

use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::metric::Metric;
use hd_core::topk::{Neighbor, TopK};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::io;

#[derive(Debug)]
enum Node {
    Leaf {
        /// Row range `[start, end)` in the leaf-contiguous point table.
        start: u32,
        end: u32,
    },
    Split {
        axis: usize,
        value: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A static kd-tree over low-dimensional points.
#[derive(Debug)]
pub struct KdTree {
    dim: usize,
    /// Row-major, permuted so each leaf's rows are contiguous.
    points: Vec<f32>,
    /// Row → original (caller) id.
    ids: Vec<u32>,
    /// Original id → row.
    rows: Vec<u32>,
    root: Node,
    len: usize,
    metric: Metric,
}

const LEAF_SIZE: usize = 16;

impl KdTree {
    /// Builds by recursive median splits (axes cycled by depth), serving
    /// the dataset's recorded metric. An empty dataset yields an empty
    /// (but queryable) tree.
    ///
    /// # Panics
    /// Panics for [`Metric::Dot`]: the split-plane pruning bound needs a
    /// per-axis distance decomposition, which the inner product lacks.
    pub fn build(data: &Dataset) -> Self {
        assert!(
            data.metric().is_metric_space(),
            "kd-tree pruning requires a per-axis metric decomposition; {} has none",
            data.metric()
        );
        let dim = data.dim();
        let points = data.as_flat();
        let n = data.len();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let root = Self::build_node(dim, points, &mut idx, 0, 0);
        // Permute rows into leaf order so leaves are flat blocks — the only
        // owned copy of the point table the tree keeps.
        let mut reordered = Vec::with_capacity(points.len());
        let mut rows = vec![0u32; n];
        for (row, &id) in idx.iter().enumerate() {
            reordered.extend_from_slice(&points[id as usize * dim..(id as usize + 1) * dim]);
            rows[id as usize] = row as u32;
        }
        Self {
            dim,
            points: reordered,
            ids: idx,
            rows,
            root,
            len: n,
            metric: data.metric(),
        }
    }

    /// The per-axis contribution of a split-plane gap to the pruning bound:
    /// `gap²` for L2/Cosine (whose key is squared L2), `|gap|` for L1. Both
    /// keys are sums of independent per-axis terms, which is exactly what
    /// lets the bound replace one axis's term as the traversal descends.
    #[inline]
    fn axis_term(&self, gap: f32) -> f32 {
        match self.metric {
            Metric::L1 => gap.abs(),
            _ => gap * gap,
        }
    }

    fn build_node(dim: usize, pts: &[f32], idx: &mut [u32], depth: usize, offset: usize) -> Node {
        if idx.len() <= LEAF_SIZE {
            return Node::Leaf {
                start: offset as u32,
                end: (offset + idx.len()) as u32,
            };
        }
        let axis = depth % dim;
        let mid = idx.len() / 2;
        idx.select_nth_unstable_by(mid, |&a, &b| {
            let va = pts[a as usize * dim + axis];
            let vb = pts[b as usize * dim + axis];
            va.partial_cmp(&vb).unwrap_or(Ordering::Equal)
        });
        let value = pts[idx[mid] as usize * dim + axis];
        let (lo, hi) = idx.split_at_mut(mid);
        Node::Split {
            axis,
            value,
            left: Box::new(Self::build_node(dim, pts, lo, depth + 1, offset)),
            right: Box::new(Self::build_node(dim, pts, hi, depth + 1, offset + mid)),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The point originally inserted as row `id` of the input table.
    pub fn point(&self, id: u32) -> &[f32] {
        let row = self.rows[id as usize] as usize;
        &self.points[row * self.dim..(row + 1) * self.dim]
    }

    /// Heap bytes held by the tree (points + id maps + topology estimate).
    pub fn memory_bytes(&self) -> usize {
        self.points.capacity() * 4
            + self.ids.capacity() * 4
            + self.rows.capacity() * 4
            + self.len * 8
    }

    /// Begins an incremental NN traversal from `query` (normalized here
    /// when the metric requires it, so callers pass raw queries).
    pub fn incremental_nn<'a>(&'a self, query: &[f32]) -> IncrementalNn<'a> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let mut query = query.to_vec();
        self.metric.normalize_for_index(&mut query);
        let mut it = IncrementalNn {
            tree: self,
            query,
            heap: BinaryHeap::new(),
            scratch: Vec::with_capacity(LEAF_SIZE),
        };
        it.heap.push(HeapItem {
            dist: 0.0,
            kind: ItemKind::Node(&self.root, Vec::new()),
        });
        it
    }
}

enum ItemKind<'a> {
    /// Node plus the axis-distance contributions that define its bounding
    /// slab (enough for correct min-distance: each split adds a per-axis
    /// lower-bound term).
    Node(&'a Node, Vec<(usize, f32)>),
    Point(u32),
}

struct HeapItem<'a> {
    dist: f32,
    kind: ItemKind<'a>,
}

impl PartialEq for HeapItem<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapItem<'_> {}
impl PartialOrd for HeapItem<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

/// Iterator yielding `(id, key)` in non-decreasing metric key (squared L2
/// for L2/Cosine trees, the L1 sum for L1 trees).
pub struct IncrementalNn<'a> {
    tree: &'a KdTree,
    query: Vec<f32>,
    heap: BinaryHeap<HeapItem<'a>>,
    /// Reusable per-leaf distance buffer for the batch kernel.
    scratch: Vec<f32>,
}

impl Iterator for IncrementalNn<'_> {
    type Item = (u32, f32);

    fn next(&mut self) -> Option<(u32, f32)> {
        while let Some(HeapItem { dist, kind }) = self.heap.pop() {
            match kind {
                ItemKind::Point(id) => return Some((id, dist)),
                ItemKind::Node(node, bounds) => match node {
                    Node::Leaf { start, end } => {
                        // The leaf's rows are one contiguous block: score
                        // them in a single batched sweep (bit-identical to
                        // the per-point metric key).
                        let (s, e) = (*start as usize, *end as usize);
                        let dim = self.tree.dim;
                        let block = &self.tree.points[s * dim..e * dim];
                        self.tree
                            .metric
                            .key_batch(&self.query, block, &mut self.scratch);
                        for (r, &d) in self.scratch.iter().enumerate() {
                            self.heap.push(HeapItem {
                                dist: d,
                                kind: ItemKind::Point(self.tree.ids[s + r]),
                            });
                        }
                    }
                    Node::Split {
                        axis,
                        value,
                        left,
                        right,
                    } => {
                        let q = self.query[*axis];
                        // The child on the query's side inherits the parent
                        // bound; the other side's bound on `axis` becomes at
                        // least (q - value)².
                        let (near, far): (&Node, &Node) = if q <= *value {
                            (left, right)
                        } else {
                            (right, left)
                        };
                        self.heap.push(HeapItem {
                            dist,
                            kind: ItemKind::Node(near, bounds.clone()),
                        });
                        let gap = q - *value;
                        let mut far_bounds = bounds;
                        // Replace (don't stack) the bound for this axis.
                        let term = self.tree.axis_term(gap);
                        let mut far_dist = dist;
                        if let Some(slot) = far_bounds.iter_mut().find(|(a, _)| a == axis) {
                            if term > slot.1 {
                                far_dist = far_dist - slot.1 + term;
                                slot.1 = term;
                            }
                        } else {
                            far_bounds.push((*axis, term));
                            far_dist += term;
                        }
                        self.heap.push(HeapItem {
                            dist: far_dist,
                            kind: ItemKind::Node(far, far_bounds),
                        });
                    }
                },
            }
        }
        None
    }
}

impl AnnIndex for KdTree {
    fn len(&self) -> u64 {
        self.len as u64
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// Exact search by incremental-NN enumeration; ties at the k-th
    /// distance are resolved by id through the [`TopK`] ordering. The
    /// budget knobs do not apply.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        let mut tk = TopK::new(req.k);
        for (id, key) in self.incremental_nn(query) {
            if tk.len() == req.k && key > tk.bound() {
                break;
            }
            tk.push(Neighbor::new(u64::from(id), key));
        }
        let mut out = tk.into_sorted();
        for nb in &mut out {
            nb.dist = self.metric.finalize(nb.dist);
        }
        Ok(SearchOutput::from_neighbors(out))
    }

    fn stats(&self) -> IndexStats {
        IndexStats::in_memory(self.memory_bytes()).with_metric(self.metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::Dataset;
    use hd_core::distance::l2_sq;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-10.0..10.0)).collect()
    }

    #[test]
    fn incremental_order_is_nondecreasing() {
        let pts = random_points(500, 6, 1);
        let tree = KdTree::build(&Dataset::from_flat(6, pts));
        let q = vec![0.5f32; 6];
        let mut prev = -1.0f32;
        let mut count = 0;
        for (_, d) in tree.incremental_nn(&q) {
            assert!(d >= prev, "distance regressed: {d} < {prev}");
            prev = d;
            count += 1;
        }
        assert_eq!(count, 500, "every point must be yielded exactly once");
    }

    #[test]
    fn first_yield_is_true_nearest() {
        for seed in 0..5 {
            let pts = random_points(300, 4, seed);
            let tree = KdTree::build(&Dataset::from_flat(4, pts.clone()));
            let q: Vec<f32> = random_points(1, 4, seed + 100);
            let (id, d) = tree.incremental_nn(&q).next().unwrap();
            // Brute force.
            let mut best = (0u32, f32::INFINITY);
            for i in 0..300 {
                let dd = l2_sq(&q, &pts[i * 4..(i + 1) * 4]);
                if dd < best.1 {
                    best = (i as u32, dd);
                }
            }
            assert_eq!(d, best.1, "seed {seed}");
            assert_eq!(id, best.0, "seed {seed}");
        }
    }

    #[test]
    fn prefix_matches_brute_force_topk() {
        let pts = random_points(400, 6, 9);
        let tree = KdTree::build(&Dataset::from_flat(6, pts.clone()));
        let q: Vec<f32> = random_points(1, 6, 77);
        let got: Vec<u32> = tree.incremental_nn(&q).take(10).map(|(i, _)| i).collect();
        let mut all: Vec<(f32, u32)> = (0..400)
            .map(|i| (l2_sq(&q, &pts[i * 6..(i + 1) * 6]), i as u32))
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let expect: Vec<u32> = all[..10].iter().map(|&(_, i)| i).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn point_lookup_survives_leaf_reordering() {
        let pts = random_points(200, 3, 5);
        let tree = KdTree::build(&Dataset::from_flat(3, pts.clone()));
        for id in 0..200u32 {
            assert_eq!(
                tree.point(id),
                &pts[id as usize * 3..(id as usize + 1) * 3],
                "id {id} lost its point in the leaf permutation"
            );
        }
    }

    #[test]
    fn l1_tree_enumerates_in_true_l1_order() {
        use hd_core::distance::l1;
        let pts = random_points(400, 5, 3);
        let data = Dataset::from_flat(5, pts.clone()).with_metric(Metric::L1);
        let tree = KdTree::build(&data);
        let q: Vec<f32> = random_points(1, 5, 33);
        let mut prev = -1.0f32;
        let mut count = 0;
        for (id, key) in tree.incremental_nn(&q) {
            assert!(key >= prev, "L1 key regressed: {key} < {prev}");
            assert_eq!(
                key,
                l1(&q, &pts[id as usize * 5..(id as usize + 1) * 5]),
                "key is not the true L1 distance of id {id}"
            );
            prev = key;
            count += 1;
        }
        assert_eq!(count, 400);
    }

    #[test]
    fn cosine_tree_matches_exact_cosine_scan() {
        use hd_core::ground_truth::knn_exact;
        let pts = random_points(300, 6, 4);
        let data = Dataset::from_flat(6, pts).with_metric(Metric::Cosine);
        let tree = KdTree::build(&data);
        for seed in 0..4 {
            let q: Vec<f32> = random_points(1, 6, 200 + seed);
            let got =
                hd_core::api::AnnIndex::search(&tree, &q, &hd_core::api::SearchRequest::new(8))
                    .unwrap();
            assert_eq!(got.neighbors, knn_exact(&data, &q, 8), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "per-axis metric decomposition")]
    fn dot_trees_are_refused() {
        let data = Dataset::from_flat(2, vec![1.0, 2.0]).with_metric(Metric::Dot);
        KdTree::build(&data);
    }

    #[test]
    fn single_point_tree() {
        let tree = KdTree::build(&Dataset::from_flat(3, vec![1.0, 2.0, 3.0]));
        let out: Vec<(u32, f32)> = tree.incremental_nn(&[1.0, 2.0, 3.0]).collect();
        assert_eq!(out, vec![(0, 0.0)]);
    }

    #[test]
    fn duplicate_points_all_yielded() {
        let mut pts = Vec::new();
        for _ in 0..50 {
            pts.extend_from_slice(&[1.0f32, 1.0]);
        }
        let tree = KdTree::build(&Dataset::from_flat(2, pts));
        assert_eq!(tree.incremental_nn(&[0.0, 0.0]).count(), 50);
    }
}
