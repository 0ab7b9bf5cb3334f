//! The exact scan, end to end in one process: every answer of
//! `Engine::recommend_batch` — one `matmul_nt_rows` per tick, one top-k
//! selection per row — and of `Engine::recommend`, a tick of one, carries
//! the scores `imcat_simd::dot` gives and the list a materialise-everything
//! selection gives. Tick sizes 1, 2, 3 and 8 split the NT product into a
//! single row, one pair, a pair and an odd row, and four pairs; pool sizes 1
//! and 4 split the same ticks over workers differently again, and at 4 a
//! single row is split over the item axis in whole-block chunks. None of
//! that may show in a single bit.

use imcat::serve::{Artifact, Engine, Recommendation, ServeConfig};
use imcat::tensor::Tensor;

const USERS: usize = 24;
/// Off every boundary of the NT product: its 128-row blocks and the
/// kernels' four-row groups.
const ITEMS: usize = 1031;
const DIM: usize = 64;
/// Items `TWINS..ITEMS` repeat items `0..ITEMS - TWINS`, so every user has
/// tied scores that only the index tie-break can order.
const TWINS: usize = 1000;

/// SplitMix64: a fixed integer hash, so the artifact is the same everywhere.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An exact dyadic value built from integer bits alone — a signed 10-bit
/// significand scaled by `2^-s`, `s < 20` — with no libm and no decimal
/// parsing. Products stay exact, but 64 of them with scales this far apart
/// do not sum exactly in f32, so a score's bits depend on its summation
/// order and a kernel that changed it would show.
fn dyadic(h: u64) -> f32 {
    let significand = (h % 2047) as i32 - 1023;
    let scale = f32::from_bits((127 - ((h >> 11) % 20) as u32) << 23);
    significand as f32 * scale
}

fn artifact() -> Artifact {
    let table = |rows: usize, salt: u64| {
        let cell = |i: usize| dyadic(mix(salt ^ i as u64));
        Tensor::from_vec(rows, DIM, (0..rows * DIM).map(cell).collect())
    };
    let users = table(USERS, 0x05e5);
    let mut items = table(ITEMS, 0x17e3);
    for j in TWINS..ITEMS {
        let twin = items.row(j - TWINS).to_vec();
        items.row_mut(j).copy_from_slice(&twin);
    }
    // Even users mask nothing; odd users mask every 13th item on a shifted
    // grid, twins included.
    let masks = (0..USERS)
        .map(|u| {
            (0..ITEMS as u32)
                .filter(|&j| u % 2 == 1 && (j as usize * 7 + u).is_multiple_of(13))
                .collect()
        })
        .collect();
    Artifact::new("exact-scan", users, items, masks)
}

/// `(item, score bits)` of the top `k`: every unmasked item scored with
/// `imcat_simd::dot`, sorted whole under the canonical order (score
/// descending by `total_cmp`, then index ascending), cut to `k`.
fn materialised(artifact: &Artifact, user: u32, k: usize) -> Vec<(u32, u32)> {
    let query = artifact.user_emb.row(user as usize);
    let mask = &artifact.masks[user as usize];
    let mut all: Vec<(u32, f32)> = (0..ITEMS as u32)
        .filter(|j| mask.binary_search(j).is_err())
        .map(|j| (j, imcat_simd::dot(query, artifact.item_emb.row(j as usize))))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all.into_iter().map(|(j, s)| (j, s.to_bits())).collect()
}

/// `(item, score bits)` of a served list.
fn bits(recs: &[Recommendation]) -> Vec<(u32, u32)> {
    recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
}

#[test]
fn batched_exact_scan_is_dot_and_the_materialising_selection_bit_for_bit() {
    let artifact = artifact();
    let mut checked = 0usize;
    for threads in [1, 4] {
        imcat_par::set_threads(threads);
        for tick in [1usize, 2, 3, 8] {
            // No cache: every request of every tick is scored.
            let cfg = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
            let mut engine = Engine::new(artifact.clone(), cfg).expect("valid artifact");
            let users: Vec<u32> = (0..USERS as u32).collect();
            for (t, group) in users.chunks(tick).enumerate() {
                let k = [10, 1, 37][t % 3];
                let requests: Vec<(u32, usize)> = group.iter().map(|&u| (u, k)).collect();
                for (&(user, k), answer) in requests.iter().zip(engine.recommend_batch(&requests)) {
                    let want = materialised(&artifact, user, k);
                    let what = format!("threads={threads} tick={tick} user={user} k={k}");
                    assert_eq!(bits(&answer.expect("in-range request")), want, "{what}");
                    let single = engine.recommend(user, k).expect("in-range request");
                    assert_eq!(bits(&single), want, "{what}: single request");
                    checked += 1;
                }
            }
        }
    }
    imcat_par::set_threads(imcat_par::default_threads());
    assert_eq!(checked, 2 * 4 * USERS);
}
