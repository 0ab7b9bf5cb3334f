//! The correctness gate: what a served list must satisfy, and the
//! brute-force ground truth it is compared with.
//!
//! The reference score of a pair is `imcat_simd::dot(user_row, item_row)`,
//! the one kernel every scoring path of the program promises to be
//! bit-identical to. The ranking and the masking are the benchmark's own.

use imcat_ckpt::Artifact;

/// One served or reference list: item ids with the bits of their scores.
pub type List = Vec<(u32, u32)>;

/// Canonical order of the program: score descending, then id ascending.
fn ranks_before(a: (u32, f32), b: (u32, f32)) -> bool {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)).is_lt()
}

/// The exact top `k` unmasked items of `user`, by scanning the catalogue.
pub fn truth(artifact: &Artifact, user: u32, k: usize) -> List {
    let row = artifact.user_emb.row(user as usize);
    let mask = &artifact.masks[user as usize];
    // `best` stays sorted best-first; a candidate enters only by beating the
    // current last one, so the scan is one comparison per item.
    let mut best: Vec<(u32, f32)> = Vec::with_capacity(k + 1);
    for j in 0..artifact.n_items() {
        let cand = (j as u32, imcat_simd::dot(row, artifact.item_emb.row(j)));
        if best.len() == k && !ranks_before(cand, best[k - 1]) {
            continue;
        }
        if mask.binary_search(&cand.0).is_ok() {
            continue;
        }
        let at = best.partition_point(|&b| ranks_before(b, cand));
        best.insert(at, cand);
        best.truncate(k);
    }
    best.into_iter().map(|(j, s)| (j, s.to_bits())).collect()
}

/// Checks one served list on its own: `k` items (fewer only when the user
/// has fewer unmasked), every score bit-equal to the reference dot product,
/// no masked item, and canonical order (which also rules out duplicates).
pub fn verify(artifact: &Artifact, user: u32, k: usize, list: &[(u32, u32)]) -> Result<(), String> {
    let row = artifact.user_emb.row(user as usize);
    let mask = &artifact.masks[user as usize];
    let expected = k.min(artifact.n_items() - mask.len());
    if list.len() != expected {
        return Err(format!("user {user}: {} items served, {expected} expected", list.len()));
    }
    for &(item, bits) in list {
        if item as usize >= artifact.n_items() {
            return Err(format!("user {user}: item {item} is not in the catalogue"));
        }
        if mask.binary_search(&item).is_ok() {
            return Err(format!("user {user}: masked item {item} served"));
        }
        let want = imcat_simd::dot(row, artifact.item_emb.row(item as usize)).to_bits();
        if bits != want {
            return Err(format!(
                "user {user}: item {item} score bits {bits:#x}, dot gives {want:#x}"
            ));
        }
    }
    let score = |&(item, bits): &(u32, u32)| (item, f32::from_bits(bits));
    if !list.windows(2).all(|w| ranks_before(score(&w[0]), score(&w[1]))) {
        return Err(format!("user {user}: list is not in score-descending, id-ascending order"));
    }
    Ok(())
}

/// How many of `truth`'s items `served` holds.
pub fn overlap(served: &[(u32, u32)], truth: &[(u32, u32)]) -> usize {
    truth.iter().filter(|t| served.iter().any(|s| s.0 == t.0)).count()
}

/// The `items` and `score_bits` arrays of a `/recommend` response body,
/// zipped. `None` when the body does not have that shape.
pub fn parse_response(body: &[u8]) -> Option<List> {
    let text = std::str::from_utf8(body).ok()?;
    let array = |key: &str| -> Option<Vec<u32>> {
        let key_at = text.find(key)?;
        let from = key_at + text[key_at..].find('[')? + 1;
        let inner = &text[from..from + text[from..].find(']')?];
        if inner.trim().is_empty() {
            return Some(Vec::new());
        }
        inner.split(',').map(|n| n.trim().parse().ok()).collect()
    };
    let (items, bits) = (array("\"items\"")?, array("\"score_bits\"")?);
    (items.len() == bits.len()).then(|| items.into_iter().zip(bits).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{artifact, Catalog};

    #[test]
    fn truth_passes_its_own_gate_and_tampering_does_not() {
        let g = artifact(3, Catalog { users: 20, items: 500 });
        let a = &g.artifact;
        let list = truth(a, 4, 10);
        assert_eq!(list.len(), 10);
        verify(a, 4, 10, &list).unwrap();
        assert_eq!(overlap(&list, &list), 10);

        let mut swapped = list.clone();
        swapped.swap(0, 1);
        assert!(verify(a, 4, 10, &swapped).unwrap_err().contains("order"));
        let mut wrong_bits = list.clone();
        wrong_bits[3].1 ^= 1;
        assert!(verify(a, 4, 10, &wrong_bits).unwrap_err().contains("score bits"));
        let masked = a.masks[4][0];
        let mut with_masked = list.clone();
        with_masked[9] = (masked, 0);
        assert!(verify(a, 4, 10, &with_masked).unwrap_err().contains("masked"));
        assert!(verify(a, 4, 10, &list[..9]).unwrap_err().contains("9 items"));
    }

    #[test]
    fn truth_is_the_sorted_unmasked_head() {
        let g = artifact(5, Catalog { users: 8, items: 300 });
        let a = &g.artifact;
        let row = a.user_emb.row(2);
        let mut all: Vec<(u32, f32)> = (0..300u32)
            .filter(|j| a.masks[2].binary_search(j).is_err())
            .map(|j| (j, imcat_simd::dot(row, a.item_emb.row(j as usize))))
            .collect();
        all.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        let want: List = all[..10].iter().map(|&(j, s)| (j, s.to_bits())).collect();
        assert_eq!(truth(a, 2, 10), want);
    }

    #[test]
    fn response_bodies_parse_into_lists() {
        let body = br#"{"user":7,"k":3,"items":[5,9,2],"scores":[1.5,1.25,-0.5],"score_bits":[1069547520,1067450368,3204448256]}"#;
        assert_eq!(
            parse_response(body),
            Some(vec![(5, 1069547520), (9, 1067450368), (2, 3204448256)])
        );
        assert_eq!(parse_response(br#"{"items":[],"score_bits":[]}"#), Some(vec![]));
        assert_eq!(parse_response(br#"{"error":"overloaded"}"#), None);
        assert_eq!(parse_response(br#"{"items":[1,2],"score_bits":[3]}"#), None);
    }
}
