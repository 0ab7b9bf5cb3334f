//! Degenerate catalogs must never panic any backend: empty catalog, a
//! single item, fewer items than `k`, and all-duplicate rows all probe to
//! exactly the brute-force answer (tie order included) at exhaustive width
//! for every [`AnnKind`].

use imcat_ann::{AnnConfig, AnnIndex, AnnKind, BruteIndex, ProbeScratch, DEFAULT_BUILD_SEED};
use imcat_tensor::Tensor;

const KINDS: [AnnKind; 3] = [AnnKind::Brute, AnnKind::Ivf, AnnKind::Hnsw];

fn cfg_for(kind: AnnKind) -> AnnConfig {
    AnnConfig::for_kind(kind)
}

/// Probe fingerprint: compact candidate ids, score bits, remapped mask.
fn fingerprint(scratch: &ProbeScratch) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    (
        scratch.candidates().to_vec(),
        scratch.scores().iter().map(|s| s.to_bits()).collect(),
        scratch.mask().to_vec(),
    )
}

/// Builds every backend over `items` and checks that an exhaustive-width
/// probe (`nprobe = ef = n`) reproduces brute force bitwise for each
/// `(query, mask, k)` case.
fn assert_all_kinds_match_brute(items: &Tensor, cases: &[(Vec<f32>, Vec<u32>, usize)]) {
    let brute = BruteIndex::build(items, DEFAULT_BUILD_SEED);
    for kind in KINDS {
        let idx = cfg_for(kind).build_index(items, DEFAULT_BUILD_SEED);
        assert_eq!(idx.kind(), kind);
        assert_eq!(idx.n_items(), items.rows());
        let mut a = ProbeScratch::default();
        let mut b = ProbeScratch::default();
        let width = items.rows().max(1);
        for (query, mask, k) in cases {
            idx.probe(query, items, mask, *k, width, &mut a);
            brute.probe(query, items, mask, *k, width, &mut b);
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "{} diverged from brute (n={}, k={}, mask={:?})",
                kind.name(),
                items.rows(),
                k,
                mask
            );
        }
    }
}

#[test]
fn empty_catalog_probes_to_empty() {
    let items = Tensor::zeros(0, 4);
    let q = vec![0.5, -0.25, 1.0, 0.0];
    assert_all_kinds_match_brute(&items, &[(q.clone(), vec![], 1), (q, vec![], 10)]);
}

#[test]
fn single_item_catalog() {
    let items = Tensor::from_vec(1, 3, vec![0.5, -1.0, 2.0]);
    let q = vec![1.0, 0.0, -1.0];
    assert_all_kinds_match_brute(
        &items,
        &[
            (q.clone(), vec![], 1),
            (q.clone(), vec![], 5),
            // Masking the only item: everything falls out of the list.
            (q, vec![0], 1),
        ],
    );
}

#[test]
fn fewer_items_than_k() {
    let items = Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, -1.0, -1.0]);
    let q = vec![0.7, 0.3];
    assert_all_kinds_match_brute(
        &items,
        &[(q.clone(), vec![], 10), (q.clone(), vec![1], 10), (q, vec![0, 1, 2], 10)],
    );
}

#[test]
fn all_duplicate_rows_keep_tie_order() {
    // Every row bitwise identical: every score ties, so the answer is pure
    // tie-order discipline (ascending item id) — and the HNSW neighbor
    // heuristic must keep zero-distance links instead of pruning the graph
    // into isolated nodes.
    let n = 17usize;
    let row = vec![0.25f32, -0.5, 0.125];
    let mut data = Vec::with_capacity(n * 3);
    for _ in 0..n {
        data.extend_from_slice(&row);
    }
    let items = Tensor::from_vec(n, 3, data);
    let q = vec![1.0, 1.0, 1.0];
    assert_all_kinds_match_brute(
        &items,
        &[(q.clone(), vec![], 5), (q.clone(), vec![0, 4, 16], 20), (q, vec![], n + 4)],
    );
}

/// The same degenerate shapes must also survive *lossy* widths (graph
/// traversal / partial list scans) without panicking — answers may lose
/// recall but every returned score stays exact.
#[test]
fn lossy_widths_never_panic_on_degenerate_catalogs() {
    let shapes: Vec<Tensor> = vec![
        Tensor::zeros(0, 4),
        Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]),
        Tensor::from_vec(2, 4, vec![0.0; 8]),
        Tensor::from_vec(5, 4, [[0.5f32; 4]; 5].concat()),
    ];
    for items in &shapes {
        let q = vec![0.1, 0.2, 0.3, 0.4];
        for kind in KINDS {
            let idx = cfg_for(kind).build_index(items, DEFAULT_BUILD_SEED);
            let mut scratch = ProbeScratch::default();
            for width in [1usize, 2] {
                idx.probe(&q, items, &[], 3, width, &mut scratch);
                for (ci, &id) in scratch.candidates().iter().enumerate() {
                    let exact = imcat_simd::dot(&q, items.row(id as usize));
                    assert_eq!(
                        scratch.scores()[ci].to_bits(),
                        exact.to_bits(),
                        "{}: inexact score on degenerate catalog",
                        kind.name()
                    );
                }
            }
        }
    }
}
