//! The README's "Environment knobs" table is hand-written; this test keeps
//! it honest against the compiled registry (`imcat_core::config::knobs`):
//! same knobs, same order, same defaults, same owning crate. Adding a knob
//! to either side without the other fails here, not in a code review.

use imcat_core::config::knobs::KNOBS;

/// Parses the README env table into `(key, default, crate)` rows. Rows look
/// like `` | `IMCAT_X` | `default` | crate | help | ``; the default cell may
/// be prose ("unset", "#cores") or a backticked literal.
fn readme_rows() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(path).expect("README.md at the workspace root");
    let mut rows = Vec::new();
    for line in readme.lines() {
        let line = line.trim();
        if !line.starts_with("| `IMCAT_") {
            continue;
        }
        let cells: Vec<&str> =
            line.trim_matches('|').split('|').map(|c| c.trim().trim_matches('`')).collect();
        assert!(cells.len() >= 4, "malformed env-table row: {line}");
        rows.push((cells[0].to_string(), cells[1].to_string(), cells[2].to_string()));
    }
    rows
}

#[test]
fn readme_env_table_matches_knob_registry() {
    let readme = readme_rows();
    let registry: Vec<(String, String, String)> = KNOBS
        .iter()
        .map(|k| (k.key.to_string(), k.default.to_string(), k.owner.to_string()))
        .collect();
    assert!(!readme.is_empty(), "README env table not found");
    for (doc, reg) in readme.iter().zip(&registry) {
        assert_eq!(doc, reg, "README row and registry entry disagree");
    }
    assert_eq!(
        readme.len(),
        registry.len(),
        "README documents {} knobs, registry declares {}",
        readme.len(),
        registry.len()
    );
}

#[test]
fn registry_keys_are_unique_and_namespaced() {
    let mut seen = std::collections::HashSet::new();
    for knob in KNOBS {
        assert!(knob.key.starts_with("IMCAT_"), "{} escapes the namespace", knob.key);
        assert!(seen.insert(knob.key), "{} registered twice", knob.key);
        assert!(!knob.help.is_empty(), "{} has no help line", knob.key);
    }
}

#[test]
fn typed_accessors_read_through_the_registry() {
    // Unset knobs fall back to the caller's default.
    std::env::remove_var("IMCAT_INGEST_FOLD_LAMBDA");
    assert_eq!(imcat_core::config::knobs::knob_f32("IMCAT_INGEST_FOLD_LAMBDA", 0.3), 0.3);
    std::env::set_var("IMCAT_INGEST_FOLD_LAMBDA", "0.7");
    assert_eq!(imcat_core::config::knobs::knob_f32("IMCAT_INGEST_FOLD_LAMBDA", 0.3), 0.7);
    std::env::remove_var("IMCAT_INGEST_FOLD_LAMBDA");
    // dump() reports every registered knob, in registry order.
    let dump = imcat_core::config::knobs::dump();
    assert_eq!(dump.len(), KNOBS.len());
    assert!(dump.iter().zip(KNOBS).all(|((k, _), knob)| *k == knob.key));
}
