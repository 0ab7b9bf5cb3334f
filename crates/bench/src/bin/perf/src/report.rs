//! The names the benchmark reports under — workloads, end-to-end metrics,
//! per-layer metrics — and the result line. `BENCHMARK.json` at the root of
//! the repository declares the same names, with each workload's reason and
//! each metric's direction; a unit test holds the two together.

pub const WORKLOADS: [&str; 4] = ["wire_hot", "wire_cold", "batch_scan", "stream_mixed"];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Bounds come from the runs recorded in README.md. Twice the widest
/// deviation between identical runs is 6 to 10 % on the five timed metrics
/// while the reference machine is quiet; but it is quiet about two thirds of
/// the time, and a set of ten runs that meets one of its slow phases spreads
/// by 13 to 26 %. A bound below that would call the machine's phase a
/// regression, so the timed metrics stand at the most a bound may be. Recall
/// and memory repeat to a fraction of a percent.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "qps", unit: "1/s", bound: 0.25 },
    EndToEnd { name: "p50_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "tail_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", bound: 0.25 },
    EndToEnd { name: "recall_at10", unit: "ratio", bound: 0.005 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", bound: 0.03 },
];

/// Every per-layer metric with its unit, grouped by layer (a layer is a
/// crate). A traced run of any workload prints all of them; one that the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    // net
    ("net.wire_us", "us"),
    ("net.healthz_us", "us"),
    ("net.queue_tick_us", "us"),
    ("net.http.read_request_us", "us"),
    ("net.http.respond_us", "us"),
    ("net.resp_bytes", "B"),
    ("net.batch_mean", "count"),
    ("net.server_share", "ratio"),
    ("net.shard.call_us", "us"),
    ("net.shard.self_us", "us"),
    ("net.self_share", "ratio"),
    ("net.requests", "count"),
    ("net.answered", "count"),
    ("net.shed", "count"),
    ("net.timeouts", "count"),
    ("net.rejected", "count"),
    // serve
    ("serve.recommend_hit_us", "us"),
    ("serve.recommend_miss_us", "us"),
    ("serve.self_us", "us"),
    ("serve.batch_tick_us", "us"),
    ("serve.batch_self_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache.get_ns", "ns"),
    ("serve.cache.put_ns", "ns"),
    ("serve.ann_fallback_ratio", "ratio"),
    ("serve.rejects", "count"),
    ("serve.register_us", "us"),
    ("serve.ingest_batch_us", "us"),
    ("serve.fold_pending_us", "us"),
    ("serve.folded_per_tick", "count"),
    ("serve.engine_new_s", "s"),
    ("serve.rebuild_s", "s"),
    ("serve.commit_ms", "ms"),
    ("serve.ticks_during_rebuild", "count"),
    ("serve.swap_failed_requests", "count"),
    // ann
    ("ann.probe_us", "us"),
    ("ann.candidates_mean", "count"),
    ("ann.scan_share", "ratio"),
    ("ann.build_s", "s"),
    ("ann.rerank_skip_ratio", "ratio"),
    ("ann.hnsw.visited_per_probe", "count"),
    ("ann.hnsw.hops_per_probe", "count"),
    ("ann.hnsw.inserts", "count"),
    ("ann.insert_failures", "count"),
    ("ann.simd.eval.self_share", "ratio"),
    // tensor, simd, eval
    ("tensor.matmul_nt_rows_us", "us"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.matmul_bytes_per_tick", "B"),
    ("simd.dot_ns", "ns"),
    ("simd.dot_i8_ns", "ns"),
    ("eval.topk_us", "us"),
    // ckpt
    ("ckpt.artifact_save_s", "s"),
    ("ckpt.artifact_load_s", "s"),
    ("ckpt.artifact_mb", "MiB"),
    // obs, par
    ("obs.json_render_us", "us"),
    ("obs.trace_overhead_share", "ratio"),
    ("par.threads", "count"),
    // the trace itself
    ("trace.requests", "count"),
    ("trace.spans", "count"),
    ("trace.root_us", "us"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.replay_ratio", "ratio"),
    ("trace.untraced_qps", "1/s"),
];

/// What a run found: the operations it checked and the values it measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the reader.
    pub errors: Vec<String>,
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Counts operations that were checked inline and passed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failure of an operation already counted as attempted, or
    /// of a condition on the run as a whole.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being those of `names` in order.
pub fn result_line(outcome: &Outcome, names: &[(&'static str, &'static str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.get(name).unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcat_obs::Json;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= max
            && chars.all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// The `key` member of every object in the array `section`.
    fn members<'a>(file: &'a Json, section: &str, key: &str) -> Vec<&'a Json> {
        let entries = file.get(section).and_then(Json::as_array).expect(section);
        entries.iter().map(|e| e.get(key).unwrap_or_else(|| panic!("{section}: {key}"))).collect()
    }

    fn strings<'a>(file: &'a Json, section: &str, key: &str) -> Vec<&'a str> {
        members(file, section, key).into_iter().map(|j| j.as_str().expect("a string")).collect()
    }

    #[test]
    fn benchmark_json_declares_these_tables() {
        let file = Json::parse(include_str!("../../../../../../BENCHMARK.json")).expect("JSON");
        assert_eq!(strings(&file, "workloads", "name"), WORKLOADS);
        assert_eq!(
            strings(&file, "end_to_end", "name"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            strings(&file, "end_to_end", "unit"),
            END_TO_END.iter().map(|m| m.unit).collect::<Vec<_>>()
        );
        let bounds: Vec<f64> =
            members(&file, "end_to_end", "bound").iter().map(|b| b.as_f64().unwrap()).collect();
        assert_eq!(bounds, END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>());
        assert_eq!(
            strings(&file, "per_layer", "name"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            strings(&file, "per_layer", "unit"),
            PER_LAYER.iter().map(|m| m.1).collect::<Vec<_>>()
        );
        assert_eq!(file.get("run_seconds").and_then(Json::as_f64), Some(crate::RUN_SECONDS as f64));
        for section in ["end_to_end", "per_layer"] {
            assert!(strings(&file, section, "better")
                .iter()
                .all(|b| ["higher", "lower"].contains(b)));
        }
        assert!(strings(&file, "workloads", "why").iter().all(|w| w.len() <= 200));
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| well_formed(n, 64, "_.-")), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.1));
        assert!(
            units.clone().all(|u| well_formed(u, 16, "_/%.-")),
            "{:?}",
            units.collect::<Vec<_>>()
        );
        // No bound above the contract's quarter, and set-up time has the largest.
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert!(setup.name == "setup_s" && setup.unit == "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.passed(1000);
        o.set("qps", 1234.5678);
        o.set("setup_s", 0.25);
        let line = result_line(&o, &[("qps", "1/s"), ("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.check(Err("boom".into()));
        assert!(result_line(&o, &[])
            .starts_with("{\"correct\": false, \"attempted\": 1001, \"failed\": 1,"));
    }
}
