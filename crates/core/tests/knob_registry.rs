//! The README's "Environment knobs" table is hand-written; this test keeps
//! it honest against the compiled registry (`imcat_core::config::knobs`):
//! same knobs, same order, same defaults, same owning crate. Adding a knob
//! to either side without the other fails here, not in a code review.
//! A second test scans the workspace's Rust sources: the registry's module
//! is the only reader of `IMCAT_*` variables (plus `imcat-simd`, which has
//! no dependencies), every `IMCAT_*` name a source file spells out is a
//! registered knob, and — the converse — every registered knob is named by at
//! least one source file that ships (not a test, an example or the registry).

use std::path::{Path, PathBuf};

use imcat_core::config::knobs::KNOBS;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Parses the README env table into `(key, default, crate)` rows. Rows look
/// like `` | `IMCAT_X` | `default` | crate | help | ``; the default cell may
/// be prose ("unset", "#cores") or a backticked literal.
fn readme_rows() -> Vec<(String, String, String)> {
    let readme = std::fs::read_to_string(Path::new(ROOT).join("README.md"))
        .expect("README.md at the workspace root");
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

/// Every `.rs` file of the workspace: the crates, the root package's `src`,
/// `tests` and `examples`. Build output and the benchmark package (a
/// workspace of its own, which scrubs `IMCAT_*` rather than reading it) are
/// not ours to scan.
fn rust_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs: Vec<PathBuf> =
        ["crates", "src", "tests", "examples"].iter().map(|d| Path::new(ROOT).join(d)).collect();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                if !path.ends_with("target") && !path.ends_with("bin/perf") {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files
}

#[test]
fn sources_read_the_environment_only_through_the_registry() {
    let prefix = concat!("IMCAT", "_");
    let reads = [format!("env::var(\"{prefix}"), format!("var_os(\"{prefix}")];
    let registry = "crates/obs/src/knobs.rs";
    let readers = [registry, "crates/simd/src/lib.rs"];
    let mut scanned = 0;
    // Knobs named by shipped code: a test, an example or the registry itself
    // spelling a name does not make it a setting anything reads.
    let mut read = std::collections::HashSet::new();
    for path in rust_sources() {
        let text = std::fs::read_to_string(&path).expect("source file is UTF-8");
        let shown = path.strip_prefix(ROOT).unwrap_or(&path).display().to_string();
        let ships = !path.ends_with(registry)
            && !path.components().any(|c| c.as_os_str() == "tests" || c.as_os_str() == "examples");
        scanned += 1;
        if !readers.iter().any(|r| path.ends_with(r)) {
            for read in &reads {
                assert!(!text.contains(read.as_str()), "{shown} reads {prefix}* itself");
            }
        }
        // Every quoted `IMCAT_NAME` is a knob; prose that merely starts with
        // one (an error message) and the bare prefix are not names.
        for (at, _) in text.match_indices(&format!("\"{prefix}")) {
            let name: String = text[at + 1..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            let closed = text[at + 1 + name.len()..].starts_with('"');
            if closed && name != prefix {
                assert!(
                    KNOBS.iter().any(|k| k.key == name),
                    "{shown} names {name}, which is not in the knob registry"
                );
                if ships {
                    read.insert(name);
                }
            }
        }
    }
    for knob in KNOBS {
        assert!(
            read.contains(knob.key),
            "{} is registered but no shipped source reads it",
            knob.key
        );
    }
    assert!(scanned > 100, "source scan found only {scanned} files: wrong root?");
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
