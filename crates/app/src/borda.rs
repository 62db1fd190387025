//! Borda-count rank aggregation (paper Appendix D, Eq. 7).

use hd_core::topk::Neighbor;

/// Aggregates per-descriptor kANN results into ranked images.
///
/// `owner[d]` maps descriptor id `d` to its image id. For each result list
/// `r(j, q)` and each position `l` (1-based) holding a descriptor of image
/// `i`, image `i` accumulates `k + 1 − l` points (Eq. 7), where `k` is the
/// per-descriptor result length. Returns `(image, score)` pairs sorted by
/// descending score (ties by image id, for determinism).
pub fn borda_count(owner: &[u32], result_sets: &[Vec<Neighbor>]) -> Vec<(u32, u64)> {
    let mut scores: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for r in result_sets {
        let k = r.len();
        for (l0, nb) in r.iter().enumerate() {
            let image = owner[nb.id as usize];
            let points = (k - l0) as u64; // k + 1 − l with l = l0 + 1
            *scores.entry(image).or_insert(0) += points;
        }
    }
    let mut ranked: Vec<(u32, u64)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u64) -> Neighbor {
        Neighbor::new(id, 1.0)
    }

    #[test]
    fn single_result_set_scores_by_position() {
        // Descriptors 0,1,2 belong to images 10,11,12.
        let owner = vec![10, 11, 12];
        let ranked = borda_count(&owner, &[vec![n(0), n(1), n(2)]]);
        // k=3: positions score 3, 2, 1.
        assert_eq!(ranked, vec![(10, 3), (11, 2), (12, 1)]);
    }

    #[test]
    fn scores_accumulate_across_result_sets() {
        let owner = vec![7, 8];
        let ranked = borda_count(&owner, &[vec![n(0), n(1)], vec![n(1), n(0)]]);
        // Both images: 2 + 1 = 3 points; tie broken by image id.
        assert_eq!(ranked, vec![(7, 3), (8, 3)]);
    }

    #[test]
    fn repeated_image_descriptors_stack() {
        // Two descriptors of image 5 in one result list.
        let owner = vec![5, 5, 9];
        let ranked = borda_count(&owner, &[vec![n(0), n(1), n(2)]]);
        assert_eq!(ranked[0], (5, 5)); // 3 + 2
        assert_eq!(ranked[1], (9, 1));
    }

    #[test]
    fn empty_inputs() {
        assert!(borda_count(&[], &[]).is_empty());
        assert!(borda_count(&[1], &[vec![]]).is_empty());
    }

    #[test]
    fn paper_formula_k_plus_one_minus_l() {
        // Explicit check of Eq. 7 weights for k = 4.
        let owner = vec![0, 1, 2, 3];
        let ranked = borda_count(&owner, &[vec![n(0), n(1), n(2), n(3)]]);
        let scores: Vec<u64> = ranked.iter().map(|&(_, s)| s).collect();
        assert_eq!(scores, vec![4, 3, 2, 1]);
    }
}
