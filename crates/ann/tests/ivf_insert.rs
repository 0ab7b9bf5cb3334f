//! Streamed `IvfIndex::insert`: a new item lands in the list the build's own
//! nearest-centroid definition (`assign_nearest` over the Φ-augmented row)
//! picks — also when the row out-norms the build Φ and when centroids tie —
//! and a prefix build plus inserts is still a valid index.

use imcat_ann::{assign_nearest, AnnConfig, IvfIndex, DEFAULT_BUILD_SEED};
use imcat_ckpt::{Checkpoint, Decoder};
use imcat_tensor::{normal, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the index persists, read back through its own sections: `Φ²`, the
/// augmented centroids, and the inverted lists.
struct Decoded {
    phi2: f64,
    centroids: Tensor,
    lists: Vec<Vec<u32>>,
}

fn decode(idx: &IvfIndex) -> Decoded {
    let mut ck = Checkpoint::new();
    idx.add_to_checkpoint(&mut ck);
    let mut meta = Decoder::new(ck.get("ann.meta").unwrap());
    // version, seed, nlist, dim, n_items, quantized — then Φ².
    meta.u32().unwrap();
    for _ in 0..4 {
        meta.u64().unwrap();
    }
    meta.u32().unwrap();
    let phi2 = f64::from_bits(meta.u64().unwrap());
    let centroids = Decoder::new(ck.get("ann.centroids").unwrap()).tensor().unwrap();
    let mut le = Decoder::new(ck.get("ann.lists").unwrap());
    let (offsets, entries) = (le.u32s().unwrap(), le.u32s().unwrap());
    let lists =
        offsets.windows(2).map(|w| entries[w[0] as usize..w[1] as usize].to_vec()).collect();
    Decoded { phi2, centroids, lists }
}

/// `[x, sqrt(max(Φ² − ‖x‖², 0))]`, the row an insert is assigned by.
fn augmented(phi2: f64, x: &[f32]) -> Vec<f32> {
    let n2: f64 = x.iter().map(|&v| v as f64 * v as f64).sum();
    let mut row = x.to_vec();
    row.push((phi2 - n2).max(0.0).sqrt() as f32);
    row
}

/// The loop `IvfIndex::insert` carried before it called `assign_nearest`,
/// kept as the oracle: sequential accumulation, strict `<`, ascending scan.
fn oracle_nearest(row: &[f32], centroids: &Tensor) -> usize {
    let mut best = 0usize;
    let mut best_d2 = f32::INFINITY;
    for c in 0..centroids.rows() {
        let mut d2 = 0f32;
        for (&a, &b) in row.iter().zip(centroids.row(c)) {
            d2 += (a - b) * (a - b);
        }
        if d2 < best_d2 {
            best = c;
            best_d2 = d2;
        }
    }
    best
}

/// Appends `x` to `table` as row `n`, grown from `table` by one row.
fn with_row(table: &Tensor, x: &[f32]) -> Tensor {
    let mut rows = table.as_slice().to_vec();
    rows.extend_from_slice(x);
    Tensor::from_vec(table.rows() + 1, table.cols(), rows)
}

/// Appends `x` to the served `table`, inserts it as the next id and returns
/// the list it landed in, checking it is the one both the oracle loop and
/// `assign_nearest` name.
fn insert_and_locate(idx: &mut IvfIndex, table: &mut Tensor, x: &[f32]) -> usize {
    let before = decode(idx);
    let row = augmented(before.phi2, x);
    let want = oracle_nearest(&row, &before.centroids);
    let shared = assign_nearest(&Tensor::from_vec(1, row.len(), row.clone()), &before.centroids)[0];
    assert_eq!(shared, want, "assign_nearest disagrees with the serial loop");
    let id = idx.n_items() as u32;
    *table = with_row(table, x);
    idx.insert(id, table).unwrap();
    let after = decode(idx);
    let got = after.lists.iter().position(|l| l.contains(&id)).expect("inserted id is listed");
    assert_eq!(got, want, "item {id} landed in list {got}, nearest centroid is {want}");
    assert_eq!(after.lists[got].last(), Some(&id), "a new id is its list's largest");
    got
}

#[test]
fn streamed_insert_lands_in_the_list_assign_nearest_picks() {
    let mut rng = StdRng::seed_from_u64(21);
    let items = normal(300, 8, 1.0, &mut rng);
    let fresh = normal(40, 8, 1.0, &mut rng);
    for quantized in [false, true] {
        let cfg = AnnConfig { nlist: 12, quantized, ..AnnConfig::default() };
        let mut idx = IvfIndex::build(&items, &cfg, DEFAULT_BUILD_SEED);
        let mut table = items.clone();
        let phi2 = decode(&idx).phi2;
        let mut hit = std::collections::BTreeSet::new();
        let mut clamped = 0;
        for i in 0..fresh.rows() {
            // Every fourth row out-norms everything the index was built over,
            // so its completion coordinate clamps to 0.
            let scale = if i % 4 == 0 { 6.0 } else { 1.0 };
            let x: Vec<f32> = fresh.row(i).iter().map(|v| v * scale).collect();
            clamped += (augmented(phi2, &x)[8] == 0.0) as usize;
            hit.insert(insert_and_locate(&mut idx, &mut table, &x));
        }
        assert!(clamped >= 10, "only {clamped} inserts exceeded the build Φ");
        assert!(hit.len() > 3, "inserts all fell into lists {hit:?}: the case is too easy");
        idx.validate().unwrap();
    }
}

/// Two item values of equal norm, eight copies each, four lists: k-means
/// starts from four distinct *rows*, so at least two centroids coincide, the
/// lower one takes every point and the higher stays where it started. An
/// insert ties between the twins exactly and must go to the lower list id.
#[test]
fn insert_tie_between_duplicated_centroids_goes_to_the_lower_list() {
    let a = [1.5f32, -0.25, 0.5, 2.0];
    let b = [2.0f32, 0.5, -0.25, 1.5];
    let rows: Vec<f32> = (0..16).flat_map(|i| if i % 2 == 0 { a } else { b }).collect();
    let items = Tensor::from_vec(16, 4, rows);
    let cfg = AnnConfig { nlist: 4, ..AnnConfig::default() };
    let mut idx = IvfIndex::build(&items, &cfg, DEFAULT_BUILD_SEED);
    let mut table = items.clone();
    let built = decode(&idx);
    let bits = |r: usize| built.centroids.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let on = |t: [f32; 4]| (0..4).filter(|&c| built.centroids.row(c)[..4] == t).collect::<Vec<_>>();
    assert!(on(a).len() > 1 || on(b).len() > 1, "no duplicated centroid: the tie is not exercised");
    for target in [a, b] {
        let twins = on(target);
        let lowest = *twins.first().expect("a centroid sits on each item value");
        // Bit-equal in the completion coordinate too, so their distances tie.
        assert!(twins.iter().all(|&c| bits(c) == bits(lowest)), "centroids {twins:?} differ");
        let near: Vec<f32> = target.iter().map(|v| v + 0.0625).collect();
        let got = insert_and_locate(&mut idx, &mut table, &near);
        assert_eq!(got, lowest, "tie among lists {twins:?} must go to the lowest");
    }
    idx.validate().unwrap();
}

#[test]
fn prefix_build_plus_inserts_is_a_valid_index_with_ascending_lists() {
    let mut rng = StdRng::seed_from_u64(34);
    let items = normal(260, 6, 1.0, &mut rng);
    for quantized in [false, true] {
        let cfg = AnnConfig { nlist: 10, quantized, ..AnnConfig::default() };
        let prefix = Tensor::from_vec(200, 6, items.as_slice()[..200 * 6].to_vec());
        let mut idx = IvfIndex::build(&prefix, &cfg, DEFAULT_BUILD_SEED);
        for id in 200..260 {
            idx.insert(id as u32, &items).unwrap();
            idx.validate().unwrap();
        }
        assert_eq!(idx.n_items(), 260);
        let lists = decode(&idx).lists;
        assert!(lists.iter().all(|l| l.windows(2).all(|p| p[0] < p[1])), "a list is not ascending");
        let mut all: Vec<u32> = lists.concat();
        all.sort_unstable();
        assert_eq!(all, (0..260).collect::<Vec<u32>>(), "lists do not partition the catalogue");
        // What loads is what was saved: decode runs `validate` too.
        let mut ck = Checkpoint::new();
        idx.add_to_checkpoint(&mut ck);
        let back = IvfIndex::from_checkpoint(&ck).unwrap().expect("sections present");
        assert_eq!(back.n_items(), 260);
    }
}
