//! Datasets: flat `f32` storage, synthetic generators, and on-disk readers.
//!
//! The paper evaluates on eight real corpora (Table 4). Those corpora are not
//! redistributable here, so [`DatasetProfile`] captures each corpus'
//! dimensionality and value domain and [`generate`] synthesizes clustered
//! data in that envelope (see DESIGN.md §2 for the substitution rationale).
//! [`read_fvecs`]/[`read_bvecs`] let real TexMex-format corpora be dropped in
//! unchanged.

use crate::metric::Metric;
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use std::io::{self, Read};
use std::path::Path;

/// A dense collection of `ν`-dimensional `f32` points in row-major layout.
///
/// A dataset records the [`Metric`] it is meant to be searched under
/// (default [`Metric::L2`]); index builders read it instead of taking a
/// separate metric parameter, so a corpus and its distance function travel
/// together. Stamping a metric with [`Self::with_metric`] applies the
/// metric's build-time preparation (unit normalization for cosine), and
/// [`Self::push`] keeps that invariant for every later point — a cosine
/// dataset is unit-normalized *by construction*.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    dim: usize,
    data: Vec<f32>,
    metric: Metric,
}

impl Dataset {
    /// Creates an empty dataset of the given dimensionality.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            data: Vec::new(),
            metric: Metric::L2,
        }
    }

    /// Builds a dataset from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert_eq!(data.len() % dim, 0, "buffer not a multiple of dim");
        Self {
            dim,
            data,
            metric: Metric::L2,
        }
    }

    /// Stamps the dataset with the metric it will be searched under and
    /// applies that metric's build-time vector preparation
    /// ([`Metric::normalize_for_index`]: unit normalization for cosine,
    /// no-op otherwise). Under [`Metric::L2`] this is the identity — the
    /// buffer is untouched bit for bit.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        if metric.normalizes_vectors() {
            for row in self.data.chunks_exact_mut(self.dim) {
                metric.normalize_for_index(row);
            }
        }
        self
    }

    /// The metric this dataset is meant to be searched under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow point `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a point, applying the dataset metric's vector preparation
    /// (unit normalization for cosine) so the by-construction invariant of
    /// [`Self::with_metric`] survives later appends.
    ///
    /// # Panics
    /// Panics if the point's length differs from the dataset dimensionality.
    pub fn push(&mut self, point: &[f32]) {
        assert_eq!(point.len(), self.dim, "dimensionality mismatch");
        self.data.extend_from_slice(point);
        if self.metric.normalizes_vectors() {
            let start = self.data.len() - self.dim;
            self.metric.normalize_for_index(&mut self.data[start..]);
        }
    }

    /// The points at `indices`, in order, as a new dataset under the same
    /// metric. Rows are copied bit for bit — they are already prepared for
    /// the metric, and preparing them again (re-normalizing a unit vector)
    /// could move their last bits.
    pub fn subset(&self, indices: impl IntoIterator<Item = usize>) -> Dataset {
        let indices = indices.into_iter();
        let mut data = Vec::with_capacity(indices.size_hint().0 * self.dim);
        for i in indices {
            data.extend_from_slice(self.get(i));
        }
        Dataset {
            dim: self.dim,
            data,
            metric: self.metric,
        }
    }

    /// Reserves space for `n` additional points.
    pub fn reserve(&mut self, n: usize) {
        self.data.reserve(n * self.dim);
    }

    /// Iterates over all points.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// The raw row-major buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Heap bytes held by this dataset.
    pub fn memory_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Removes exact duplicate points, preserving first occurrences
    /// (the paper pre-processes all corpora this way, §5.1).
    pub fn dedup(&mut self) {
        use std::collections::HashSet;
        let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(self.len());
        let dim = self.dim;
        let mut out = Vec::with_capacity(self.data.len());
        for p in self.data.chunks_exact(dim) {
            let key: Vec<u32> = p.iter().map(|f| f.to_bits()).collect();
            if seen.insert(key) {
                out.extend_from_slice(p);
            }
        }
        self.data = out;
    }
}

/// A resettable stream of vectors read in chunks — the corpus interface of
/// the out-of-core build path (DESIGN.md §11).
///
/// A streaming index build must scan the corpus more than once (once for
/// reference distances, once per tree for key encoding would be the naive
/// layout; our pipeline scans it once and replays a temp heap, but
/// compaction replays survivors twice), and the corpus may not fit in RAM.
/// `VectorSource` abstracts over "where the vectors live": an in-memory
/// [`Dataset`] ([`DatasetSource`]) or a flat `f32` file on disk
/// ([`RawF32Source`]). Implementations must yield the same vectors in the
/// same order on every pass.
pub trait VectorSource {
    /// Dimensionality of every vector.
    fn dim(&self) -> usize;
    /// Total number of vectors the source yields per pass.
    fn len(&self) -> usize;
    /// The metric the corpus is meant to be searched under. Vectors are
    /// yielded *already prepared* for this metric (unit-normalized for
    /// cosine), matching the [`Dataset::with_metric`] invariant.
    fn metric(&self) -> Metric;
    /// Rewinds to the first vector.
    fn reset(&mut self) -> io::Result<()>;
    /// Reads up to `max_points` vectors into `buf` (cleared first, row-major)
    /// and returns how many were read; `0` means the pass is complete.
    fn next_chunk(&mut self, max_points: usize, buf: &mut Vec<f32>) -> io::Result<usize>;

    /// `true` when the source is exhausted without a [`reset`](Self::reset).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// [`VectorSource`] view over an in-memory [`Dataset`].
#[derive(Debug)]
pub struct DatasetSource<'a> {
    data: &'a Dataset,
    next: usize,
}

impl<'a> DatasetSource<'a> {
    pub fn new(data: &'a Dataset) -> Self {
        Self { data, next: 0 }
    }
}

impl VectorSource for DatasetSource<'_> {
    fn dim(&self) -> usize {
        self.data.dim()
    }
    fn len(&self) -> usize {
        self.data.len()
    }
    fn metric(&self) -> Metric {
        self.data.metric()
    }
    fn reset(&mut self) -> io::Result<()> {
        self.next = 0;
        Ok(())
    }
    fn next_chunk(&mut self, max_points: usize, buf: &mut Vec<f32>) -> io::Result<usize> {
        buf.clear();
        let dim = self.data.dim();
        let take = max_points.min(self.data.len() - self.next);
        let flat = self.data.as_flat();
        buf.extend_from_slice(&flat[self.next * dim..(self.next + take) * dim]);
        self.next += take;
        Ok(take)
    }
}

/// [`VectorSource`] over a flat little-endian `f32` file (`n × dim` values,
/// no header) — the corpus format `build_bench` writes so a 10M-point build
/// never holds the corpus in RAM. Rows are prepared for `metric` as they
/// are read (unit normalization for cosine), so downstream consumers see
/// the same bytes a [`Dataset::with_metric`] corpus would hand them.
#[derive(Debug)]
pub struct RawF32Source {
    file: std::fs::File,
    dim: usize,
    len: usize,
    next: usize,
    metric: Metric,
}

impl RawF32Source {
    /// Opens `path` as `dim`-dimensional rows; the length is derived from
    /// the file size, which must be a whole number of rows.
    pub fn open(path: impl AsRef<Path>, dim: usize, metric: Metric) -> io::Result<Self> {
        assert!(dim > 0, "dimensionality must be positive");
        let file = std::fs::File::open(path)?;
        let bytes = file.metadata()?.len() as usize;
        let row = dim * std::mem::size_of::<f32>();
        if !bytes.is_multiple_of(row) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file size {bytes} is not a multiple of row size {row}"),
            ));
        }
        Ok(Self {
            file,
            dim,
            len: bytes / row,
            next: 0,
            metric,
        })
    }
}

impl VectorSource for RawF32Source {
    fn dim(&self) -> usize {
        self.dim
    }
    fn len(&self) -> usize {
        self.len
    }
    fn metric(&self) -> Metric {
        self.metric
    }
    fn reset(&mut self) -> io::Result<()> {
        use std::io::Seek;
        self.file.seek(io::SeekFrom::Start(0))?;
        self.next = 0;
        Ok(())
    }
    fn next_chunk(&mut self, max_points: usize, buf: &mut Vec<f32>) -> io::Result<usize> {
        buf.clear();
        let take = max_points.min(self.len - self.next);
        if take == 0 {
            return Ok(0);
        }
        let mut bytes = vec![0u8; take * self.dim * std::mem::size_of::<f32>()];
        self.file.read_exact(&mut bytes)?;
        buf.reserve(take * self.dim);
        for chunk in bytes.chunks_exact(4) {
            buf.push(f32::from_le_bytes(chunk.try_into().unwrap()));
        }
        if self.metric.normalizes_vectors() {
            for row in buf.chunks_exact_mut(self.dim) {
                self.metric.normalize_for_index(row);
            }
        }
        self.next += take;
        Ok(take)
    }
}

/// Static description of one of the paper's corpora (Table 4): name,
/// dimensionality, value domain, and whether features are integral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetProfile {
    pub name: &'static str,
    pub dim: usize,
    pub lo: f32,
    pub hi: f32,
    pub integral: bool,
    /// Recommended Hilbert order ω for this profile (paper Table 3).
    pub hilbert_order: u32,
    /// Recommended number of RDB-trees τ (§5.2.4).
    pub num_trees: usize,
}

impl DatasetProfile {
    /// SIFT descriptors: 128-D integers in \[0,255\], ω=8, τ=8 (Table 3).
    pub const SIFT: Self = Self {
        name: "SIFT",
        dim: 128,
        lo: 0.0,
        hi: 255.0,
        integral: true,
        hilbert_order: 8,
        num_trees: 8,
    };
    /// Marsyas audio features: 192-D floats in [-1,1], ω=32, τ=8.
    pub const AUDIO: Self = Self {
        name: "Audio",
        dim: 192,
        lo: -1.0,
        hi: 1.0,
        integral: false,
        hilbert_order: 32,
        num_trees: 8,
    };
    /// SUN GIST features: 512-D floats in \[0,1\], ω=32, τ=16 (§5.2.4
    /// recommends doubling τ beyond 500 dimensions).
    pub const SUN: Self = Self {
        name: "SUN",
        dim: 512,
        lo: 0.0,
        hi: 1.0,
        integral: false,
        hilbert_order: 32,
        num_trees: 16,
    };
    /// Yorck SURF features: 128-D floats in [-1,1], ω=32, τ=8.
    pub const YORCK: Self = Self {
        name: "Yorck",
        dim: 128,
        lo: -1.0,
        hi: 1.0,
        integral: false,
        hilbert_order: 32,
        num_trees: 8,
    };
    /// Enron bi-gram features: 1369-D integers in \[0,252429\], ω=16, τ=37
    /// (1369 = 37×37, §5.2.4).
    pub const ENRON: Self = Self {
        name: "Enron",
        dim: 1369,
        lo: 0.0,
        hi: 252_429.0,
        integral: true,
        hilbert_order: 16,
        num_trees: 37,
    };
    /// GloVe word vectors: 100-D floats in [-10,10], ω=32, τ=10.
    pub const GLOVE: Self = Self {
        name: "Glove",
        dim: 100,
        lo: -10.0,
        hi: 10.0,
        integral: false,
        hilbert_order: 32,
        num_trees: 10,
    };

    /// All profiles, in the order Table 4 lists the corpora families.
    pub const ALL: [Self; 6] = [
        Self::SIFT,
        Self::AUDIO,
        Self::SUN,
        Self::YORCK,
        Self::ENRON,
        Self::GLOVE,
    ];

    /// Dimensions handled by each Hilbert curve (η = ν/τ).
    pub fn dims_per_curve(&self) -> usize {
        self.dim / self.num_trees
    }
}

/// Deterministically generates a clustered synthetic dataset plus a query set
/// drawn from the same distribution (queries are *not* dataset members,
/// mirroring the provided query files of §5.1).
///
/// 90% of points come from a Gaussian mixture whose component centers are
/// uniform in the profile domain and whose per-axis standard deviation is 5%
/// of the domain span; 10% are uniform background noise. This yields the
/// non-trivial nearest-neighbor structure (dense local neighborhoods plus
/// sparse outliers) that real descriptor corpora exhibit and that
/// space-filling-curve and LSH methods are sensitive to.
pub fn generate(profile: &DatasetProfile, n: usize, n_queries: usize, seed: u64) -> (Dataset, Dataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_clusters = (n / 500).clamp(4, 64);
    let span = profile.hi - profile.lo;
    let sigma = span * 0.05;

    // Component centers.
    let mut centers = Vec::with_capacity(n_clusters);
    for _ in 0..n_clusters {
        let c: Vec<f32> = (0..profile.dim)
            .map(|_| rng.gen_range(profile.lo..=profile.hi))
            .collect();
        centers.push(c);
    }

    let normal = rand::distributions::Uniform::new(-1.0f32, 1.0f32);
    let sample_point = |rng: &mut rand::rngs::StdRng| -> Vec<f32> {
        let mut p = Vec::with_capacity(profile.dim);
        if rng.gen_bool(0.9) {
            let c = &centers[rng.gen_range(0..n_clusters)];
            for &center in c.iter().take(profile.dim) {
                // Sum of three uniforms approximates a Gaussian (Irwin–Hall)
                // cheaply and with bounded tails, which keeps values in-domain
                // after clamping without distorting the bulk.
                let g = normal.sample(rng) + normal.sample(rng) + normal.sample(rng);
                p.push((center + g * sigma).clamp(profile.lo, profile.hi));
            }
        } else {
            for _ in 0..profile.dim {
                p.push(rng.gen_range(profile.lo..=profile.hi));
            }
        }
        if profile.integral {
            for v in &mut p {
                *v = v.round();
            }
        }
        p
    };

    let mut data = Dataset::new(profile.dim);
    data.reserve(n);
    for _ in 0..n {
        data.push(&sample_point(&mut rng));
    }
    let mut queries = Dataset::new(profile.dim);
    queries.reserve(n_queries);
    for _ in 0..n_queries {
        queries.push(&sample_point(&mut rng));
    }
    (data, queries)
}

/// Generates a plain uniform dataset (no cluster structure); useful for
/// worst-case stress tests where every method degrades toward linear scan.
pub fn generate_uniform(dim: usize, lo: f32, hi: f32, n: usize, seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(dim);
    data.reserve(n);
    let mut p = vec![0.0f32; dim];
    for _ in 0..n {
        for v in &mut p {
            *v = rng.gen_range(lo..=hi);
        }
        data.push(&p);
    }
    data
}

fn read_u32_le(r: &mut impl Read) -> io::Result<Option<u32>> {
    let mut buf = [0u8; 4];
    match r.read_exact(&mut buf) {
        Ok(()) => Ok(Some(u32::from_le_bytes(buf))),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

/// Reads a TexMex `.fvecs` file: records of `(d: i32 LE, d × f32 LE)`.
pub fn read_fvecs(path: impl AsRef<Path>) -> io::Result<Dataset> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    let mut ds: Option<Dataset> = None;
    while let Some(d) = read_u32_le(&mut f)? {
        let d = d as usize;
        let mut raw = vec![0u8; d * 4];
        f.read_exact(&mut raw)?;
        let row: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        ds.get_or_insert_with(|| Dataset::new(d)).push(&row);
    }
    Ok(ds.unwrap_or_else(|| Dataset::new(1)))
}

/// Reads a TexMex `.bvecs` file: records of `(d: i32 LE, d × u8)`,
/// widening bytes to `f32`.
pub fn read_bvecs(path: impl AsRef<Path>) -> io::Result<Dataset> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    let mut ds: Option<Dataset> = None;
    while let Some(d) = read_u32_le(&mut f)? {
        let d = d as usize;
        let mut raw = vec![0u8; d];
        f.read_exact(&mut raw)?;
        let row: Vec<f32> = raw.iter().map(|&b| b as f32).collect();
        ds.get_or_insert_with(|| Dataset::new(d)).push(&row);
    }
    Ok(ds.unwrap_or_else(|| Dataset::new(1)))
}

/// Reads a TexMex `.ivecs` file (ground-truth id lists) as `Vec<Vec<ObjectId>>`
/// (ids are stored as `u32` on disk and widened on read).
pub fn read_ivecs(path: impl AsRef<Path>) -> io::Result<Vec<Vec<crate::ObjectId>>> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
    while let Some(d) = read_u32_le(&mut f)? {
        let d = d as usize;
        let mut raw = vec![0u8; d * 4];
        f.read_exact(&mut raw)?;
        out.push(
            raw.chunks_exact(4)
                .map(|c| crate::ObjectId::from(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                .collect(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0, 3.0]);
        ds.push(&[4.0, 5.0, 6.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.get(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn push_wrong_dim_panics() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0]);
    }

    #[test]
    fn generator_is_deterministic() {
        let (a, _) = generate(&DatasetProfile::SIFT, 100, 5, 7);
        let (b, _) = generate(&DatasetProfile::SIFT, 100, 5, 7);
        assert_eq!(a.as_flat(), b.as_flat());
    }

    #[test]
    fn generator_respects_domain_and_dim() {
        let (d, q) = generate(&DatasetProfile::GLOVE, 200, 10, 1);
        assert_eq!(d.dim(), 100);
        assert_eq!(d.len(), 200);
        assert_eq!(q.len(), 10);
        for p in d.iter() {
            for &v in p {
                assert!((-10.0..=10.0).contains(&v), "value {v} out of domain");
            }
        }
    }

    #[test]
    fn integral_profile_yields_integers() {
        let (d, _) = generate(&DatasetProfile::SIFT, 50, 1, 3);
        for p in d.iter() {
            for &v in p {
                assert_eq!(v, v.round());
                assert!((0.0..=255.0).contains(&v));
            }
        }
    }

    #[test]
    fn dedup_removes_exact_duplicates() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0, 2.0]);
        ds.push(&[1.0, 2.0]);
        ds.push(&[3.0, 4.0]);
        ds.dedup();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.get(0), &[1.0, 2.0]);
        assert_eq!(ds.get(1), &[3.0, 4.0]);
    }

    #[test]
    fn fvecs_roundtrip_via_tempfile() {
        let dir = std::env::temp_dir().join("hd_core_fvecs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.fvecs");
        let mut bytes = Vec::new();
        for row in [[1.0f32, 2.0], [3.0, 4.0]] {
            bytes.extend_from_slice(&2i32.to_le_bytes());
            for v in row {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        std::fs::write(&path, bytes).unwrap();
        let ds = read_fvecs(&path).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.get(0), &[1.0, 2.0]);
        assert_eq!(ds.get(1), &[3.0, 4.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn with_metric_cosine_normalizes_rows_and_later_pushes() {
        let mut ds = Dataset::from_flat(2, vec![3.0, 4.0, 0.0, 0.0]).with_metric(Metric::Cosine);
        assert_eq!(ds.metric(), Metric::Cosine);
        assert!((ds.get(0)[0] - 0.6).abs() < 1e-6 && (ds.get(0)[1] - 0.8).abs() < 1e-6);
        assert_eq!(ds.get(1), &[0.0, 0.0], "zero vector stays zero");
        ds.push(&[0.0, 5.0]);
        assert_eq!(ds.get(2), &[0.0, 1.0], "push must keep the unit-norm invariant");
    }

    #[test]
    fn subset_copies_prepared_rows_bit_for_bit() {
        let rows: Vec<f32> = (0..40).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let ds = Dataset::from_flat(4, rows).with_metric(Metric::Cosine);
        let sub = ds.subset([7, 2, 9]);
        assert_eq!(sub.metric(), Metric::Cosine);
        assert_eq!(sub.len(), 3);
        for (row, i) in sub.iter().zip([7, 2, 9]) {
            assert_eq!(row, ds.get(i));
        }
    }

    #[test]
    fn with_metric_l2_is_bitwise_identity() {
        let flat = vec![3.5f32, -4.25, 1e9, 0.125];
        let ds = Dataset::from_flat(2, flat.clone()).with_metric(Metric::L2);
        assert_eq!(ds.as_flat(), flat.as_slice());
        assert_eq!(ds.metric(), Metric::L2);
        let ds = Dataset::from_flat(2, flat.clone()).with_metric(Metric::L1);
        assert_eq!(ds.as_flat(), flat.as_slice(), "L1 does not normalize");
    }

    #[test]
    fn profiles_match_paper_table3() {
        // η = ν/τ values from Table 3: SIFT 16, Audio 24, SUN 32, Enron 37,
        // Glove 10. (SUN uses τ=16 per §5.2.4, so η = 512/16 = 32.)
        assert_eq!(DatasetProfile::SIFT.dims_per_curve(), 16);
        assert_eq!(DatasetProfile::AUDIO.dims_per_curve(), 24);
        assert_eq!(DatasetProfile::SUN.dims_per_curve(), 32);
        assert_eq!(DatasetProfile::ENRON.dims_per_curve(), 37);
        assert_eq!(DatasetProfile::GLOVE.dims_per_curve(), 10);
    }
}
