//! HNSW (Malkov & Yashunin, 2016): hierarchical navigable small-world
//! graphs — the paper's graph-based comparator (§2.2.5, M = 10 in §5).
//!
//! A full implementation of the four algorithms of the HNSW paper: greedy
//! upper-layer descent (Alg. 1's zoom-out phase), `SEARCH-LAYER` (Alg. 2),
//! the diversity-preserving neighbor-selection *heuristic* (Alg. 4), and
//! layered insertion with exponentially-distributed levels. Entirely
//! memory-resident (vectors + adjacency), which is the fast-but-RAM-heavy
//! corner of the paper's quality/efficiency/memory triangle (Fig. 9).

use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::metric::Metric;
use hd_core::topk::{Neighbor, TopK};
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Parameters (paper §5: M = 10; ef defaults follow the HNSW paper's
/// recommendations).
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Max neighbors per node on upper layers (layer 0 allows 2M).
    pub m: usize,
    pub ef_construction: usize,
    /// Search beam width (quality knob; the HD-Index paper tunes it so
    /// HNSW's MAP matches HD-Index's).
    pub ef_search: usize,
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self {
            m: 10,
            ef_construction: 128,
            ef_search: 96,
            seed: 13,
        }
    }
}

#[derive(Debug, Clone)]
struct NodeLinks {
    /// `links[layer]` = neighbor ids at that layer; index 0 is the base.
    links: Vec<Vec<u32>>,
}

/// The HNSW graph plus an in-memory copy of the vectors.
///
/// The graph serves the metric of the dataset it was built from — all four
/// are supported: greedy beam search only needs *comparable* scores, not
/// metric axioms, which is why HNSW is the standard graph index for
/// inner-product (dot) workloads where tree/reference methods are unsound.
pub struct Hnsw {
    params: HnswParams,
    dim: usize,
    vectors: Vec<f32>,
    nodes: Vec<NodeLinks>,
    entry: u32,
    top_layer: usize,
    level_mult: f64,
    metric: Metric,
}

impl std::fmt::Debug for Hnsw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hnsw")
            .field("n", &self.nodes.len())
            .field("top_layer", &self.top_layer)
            .field("M", &self.params.m)
            .finish()
    }
}

/// Min-heap entry ordered by distance.
#[derive(PartialEq)]
struct HeapEntry(f32, u32);
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.1.cmp(&other.1))
    }
}

impl Hnsw {
    /// Builds the graph by successive insertion.
    pub fn build(data: &Dataset, params: HnswParams) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(params.m >= 2, "M must be at least 2");
        let mut h = Self {
            params,
            dim: data.dim(),
            vectors: Vec::with_capacity(data.len() * data.dim()),
            nodes: Vec::with_capacity(data.len()),
            entry: 0,
            top_layer: 0,
            level_mult: 1.0 / (params.m as f64).ln(),
            metric: data.metric(),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
        for p in data.iter() {
            h.insert(p, &mut rng);
        }
        h
    }

    #[inline]
    fn vec_of(&self, id: u32) -> &[f32] {
        &self.vectors[id as usize * self.dim..(id as usize + 1) * self.dim]
    }

    #[inline]
    fn dist(&self, id: u32, q: &[f32]) -> f32 {
        self.metric.key(q, self.vec_of(id))
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    /// Inserts one point (HNSW Alg. 1). Raw vectors are accepted for every
    /// metric; normalization (cosine) is applied here. Dataset rows arrive
    /// pre-normalized; renormalizing them can shift last-ulp bits (‖v‖ is
    /// rarely exactly 1.0f32), which is irrelevant to an approximate graph.
    pub fn insert(&mut self, point: &[f32], rng: &mut impl Rng) {
        assert_eq!(point.len(), self.dim, "dimensionality mismatch");
        let mut pbuf = Vec::new();
        let point = self.metric.normalized_query(point, &mut pbuf);
        let id = self.nodes.len() as u32;
        let level = (-rng.gen_range(f64::EPSILON..1.0).ln() * self.level_mult).floor() as usize;
        self.vectors.extend_from_slice(point);
        self.nodes.push(NodeLinks {
            links: vec![Vec::new(); level + 1],
        });

        if id == 0 {
            self.entry = 0;
            self.top_layer = level;
            return;
        }

        // Zoom out: greedy descent through layers above `level`.
        let mut ep = self.entry;
        for layer in ((level + 1)..=self.top_layer).rev() {
            ep = self.greedy_closest(point, ep, layer);
        }

        // Connect on each layer from min(level, top) down to 0.
        let mut eps = vec![ep];
        for layer in (0..=level.min(self.top_layer)).rev() {
            let found = self.search_layer(point, &eps, self.params.ef_construction, layer);
            let selected = self.select_heuristic(point, &found, self.params.m);
            for &(_, nb) in &selected {
                self.nodes[id as usize].links[layer].push(nb);
                self.nodes[nb as usize].links[layer].push(id);
                // Shrink overflowing neighbor lists with the same heuristic.
                let cap = self.max_links(layer);
                if self.nodes[nb as usize].links[layer].len() > cap {
                    let nb_point = self.vec_of(nb).to_vec();
                    let cands: Vec<(f32, u32)> = self.nodes[nb as usize].links[layer]
                        .iter()
                        .map(|&x| (self.dist(x, &nb_point), x))
                        .collect();
                    let kept = self.select_heuristic(&nb_point, &cands, cap);
                    self.nodes[nb as usize].links[layer] =
                        kept.into_iter().map(|(_, x)| x).collect();
                }
            }
            eps = found.into_iter().map(|(_, x)| x).collect();
            if eps.is_empty() {
                eps = vec![ep];
            }
        }

        if level > self.top_layer {
            self.top_layer = level;
            self.entry = id;
        }
    }

    /// Greedy single-entry descent at one layer (ef = 1).
    fn greedy_closest(&self, q: &[f32], start: u32, layer: usize) -> u32 {
        let mut cur = start;
        let mut cur_d = self.dist(cur, q);
        loop {
            let mut improved = false;
            for &nb in
                &self.nodes[cur as usize].links[layer.min(self.nodes[cur as usize].links.len() - 1)]
            {
                let d = self.dist(nb, q);
                if d < cur_d {
                    cur = nb;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// HNSW Alg. 2: beam search within one layer. Returns up to `ef`
    /// `(distance, id)` pairs sorted ascending.
    fn search_layer(
        &self,
        q: &[f32],
        entry_points: &[u32],
        ef: usize,
        layer: usize,
    ) -> Vec<(f32, u32)> {
        let mut visited: HashSet<u32> = HashSet::with_capacity(ef * 4);
        let mut candidates: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
        let mut result: BinaryHeap<HeapEntry> = BinaryHeap::new(); // max-heap

        for &ep in entry_points {
            if visited.insert(ep) {
                let d = self.dist(ep, q);
                candidates.push(Reverse(HeapEntry(d, ep)));
                result.push(HeapEntry(d, ep));
                if result.len() > ef {
                    result.pop();
                }
            }
        }

        while let Some(Reverse(HeapEntry(cd, c))) = candidates.pop() {
            let worst = result.peek().map(|e| e.0).unwrap_or(f32::INFINITY);
            if cd > worst && result.len() >= ef {
                break;
            }
            let node = &self.nodes[c as usize];
            if layer >= node.links.len() {
                continue;
            }
            for &nb in &node.links[layer] {
                if !visited.insert(nb) {
                    continue;
                }
                let d = self.dist(nb, q);
                let worst = result.peek().map(|e| e.0).unwrap_or(f32::INFINITY);
                if d < worst || result.len() < ef {
                    candidates.push(Reverse(HeapEntry(d, nb)));
                    result.push(HeapEntry(d, nb));
                    if result.len() > ef {
                        result.pop();
                    }
                }
            }
        }

        let mut out: Vec<(f32, u32)> = result.into_iter().map(|HeapEntry(d, i)| (d, i)).collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        out
    }

    /// HNSW Alg. 4 (the heuristic): pick up to `m` diverse neighbors — a
    /// candidate is kept only if it is closer to `q` than to every neighbor
    /// already kept.
    fn select_heuristic(&self, _q: &[f32], candidates: &[(f32, u32)], m: usize) -> Vec<(f32, u32)> {
        let mut sorted = candidates.to_vec();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut selected: Vec<(f32, u32)> = Vec::with_capacity(m);
        for &(d, c) in &sorted {
            if selected.len() >= m {
                break;
            }
            let dominated = selected
                .iter()
                .any(|&(_, s)| self.metric.key(self.vec_of(c), self.vec_of(s)) < d);
            if !dominated {
                selected.push((d, c));
            }
        }
        // Fall back to plain nearest if the heuristic starved the list.
        if selected.len() < m {
            for &(d, c) in &sorted {
                if selected.len() >= m {
                    break;
                }
                if !selected.iter().any(|&(_, s)| s == c) {
                    selected.push((d, c));
                }
            }
        }
        selected
    }

    /// kANN search (HNSW Alg. 5) at the build-time `ef_search`.
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.knn_with_ef(query, k, self.params.ef_search)
    }

    /// [`Self::knn`] with a per-call dynamic candidate list size `ef`
    /// (floored at `k`, as the original algorithm requires, and capped at
    /// the graph size — the dynamic list can never hold more than n nodes).
    pub fn knn_with_ef(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "dimensionality mismatch");
        let k = k.min(self.nodes.len());
        if k == 0 {
            return Vec::new();
        }
        let mut qbuf = Vec::new();
        let query = self.metric.normalized_query(query, &mut qbuf);
        let mut ep = self.entry;
        for layer in (1..=self.top_layer).rev() {
            ep = self.greedy_closest(query, ep, layer);
        }
        let ef = ef.max(k).min(self.nodes.len());
        let found = self.search_layer(query, &[ep], ef, 0);
        let mut tk = TopK::new(k);
        for (d, id) in found {
            tk.push(Neighbor::new(u64::from(id), d));
        }
        let mut out = tk.into_sorted();
        for nb in &mut out {
            nb.dist = self.metric.finalize(nb.dist);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// RAM footprint: vectors + adjacency — the "humongous main memory"
    /// (§2.2.5) that keeps graph methods off billion-scale corpora.
    pub fn memory_bytes(&self) -> usize {
        self.vectors.capacity() * 4
            + self
                .nodes
                .iter()
                .map(|n| {
                    n.links
                        .iter()
                        .map(|l| l.capacity() * 4 + std::mem::size_of::<Vec<u32>>())
                        .sum::<usize>()
                })
                .sum::<usize>()
    }
}

impl AnnIndex for Hnsw {
    fn len(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// `candidates` overrides the dynamic list size `ef` (default: the
    /// build-time `ef_search`, floored at 2k — the paper's §5 operating
    /// point); `refine` does not apply.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> std::io::Result<SearchOutput> {
        let ef = req
            .candidates
            .unwrap_or_else(|| self.params.ef_search.max(2 * req.k));
        Ok(SearchOutput::from_neighbors(
            self.knn_with_ef(query, req.k, ef),
        ))
    }

    fn stats(&self) -> IndexStats {
        IndexStats::in_memory(self.memory_bytes()).with_metric(self.metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::{generate, DatasetProfile};
    use hd_core::ground_truth::ground_truth_knn;
    use hd_core::metrics::score_workload;

    #[test]
    fn self_query_finds_itself() {
        let (data, _) = generate(&DatasetProfile::SIFT, 1000, 1, 61);
        let h = Hnsw::build(&data, HnswParams::default());
        for probe in [0usize, 500, 999] {
            let res = h.knn(data.get(probe), 1);
            assert_eq!(res[0].dist, 0.0, "probe {probe}");
        }
    }

    #[test]
    fn high_recall_on_clustered_data() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 4000, 20, 62);
        let h = Hnsw::build(&data, HnswParams::default());
        let truth = ground_truth_knn(&data, &queries, 10, 4);
        let approx: Vec<Vec<Neighbor>> = queries.iter().map(|q| h.knn(q, 10)).collect();
        let s = score_workload(&truth, &approx);
        assert!(s.recall > 0.8, "HNSW recall too low: {}", s.recall);
        assert!(s.map > 0.7, "HNSW MAP too low: {}", s.map);
    }

    #[test]
    fn cosine_graph_reaches_high_recall_against_cosine_truth() {
        let (raw, queries) = generate(&DatasetProfile::GLOVE, 3000, 15, 66);
        let data = raw.with_metric(Metric::Cosine);
        let h = Hnsw::build(&data, HnswParams::default());
        assert_eq!(hd_core::api::AnnIndex::metric(&h), Metric::Cosine);
        let truth = ground_truth_knn(&data, &queries, 10, 4);
        let approx: Vec<Vec<Neighbor>> = queries.iter().map(|q| h.knn(q, 10)).collect();
        let s = score_workload(&truth, &approx);
        assert!(s.recall > 0.8, "cosine HNSW recall too low: {}", s.recall);
    }

    #[test]
    fn dot_graph_finds_high_inner_product_neighbors() {
        let (raw, queries) = generate(&DatasetProfile::GLOVE, 2000, 10, 67);
        let data = raw.clone().with_metric(Metric::Dot);
        let h = Hnsw::build(&data, HnswParams::default());
        let truth = ground_truth_knn(&data, &queries, 10, 4);
        let approx: Vec<Vec<Neighbor>> = queries.iter().map(|q| h.knn(q, 10)).collect();
        let s = score_workload(&truth, &approx);
        assert!(s.recall > 0.6, "dot HNSW recall too low: {}", s.recall);
        // Reported distances are negated inner products.
        let q = queries.get(0);
        for nb in &approx[0] {
            assert_eq!(nb.dist, -hd_core::distance::dot(q, raw.get(nb.id as usize)));
        }
    }

    #[test]
    fn layers_shrink_exponentially() {
        let (data, _) = generate(&DatasetProfile::GLOVE, 3000, 1, 63);
        let h = Hnsw::build(&data, HnswParams::default());
        let mut counts = vec![0usize; h.top_layer + 1];
        for n in &h.nodes {
            for (l, c) in counts.iter_mut().enumerate() {
                if n.links.len() > l {
                    *c += 1;
                }
            }
        }
        assert_eq!(counts[0], 3000);
        if h.top_layer >= 1 {
            assert!(counts[1] < 3000 / 2, "upper layer too dense: {:?}", counts);
        }
    }

    #[test]
    fn degree_bounds_respected() {
        let (data, _) = generate(&DatasetProfile::GLOVE, 2000, 1, 64);
        let params = HnswParams::default();
        let h = Hnsw::build(&data, params);
        for n in &h.nodes {
            for (l, links) in n.links.iter().enumerate() {
                let cap = if l == 0 { params.m * 2 } else { params.m };
                assert!(
                    links.len() <= cap + params.m,
                    "layer {l} degree {} way past cap {cap}",
                    links.len()
                );
            }
        }
    }

    #[test]
    fn memory_accounting_scales_with_n() {
        let (small, _) = generate(&DatasetProfile::GLOVE, 500, 1, 65);
        let (large, _) = generate(&DatasetProfile::GLOVE, 2000, 1, 65);
        let hs = Hnsw::build(&small, HnswParams::default());
        let hl = Hnsw::build(&large, HnswParams::default());
        assert!(hl.memory_bytes() > 3 * hs.memory_bytes());
    }
}
