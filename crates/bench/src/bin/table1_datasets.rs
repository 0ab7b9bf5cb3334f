//! Table I — dataset statistics for the seven (synthetic) presets.
//!
//! Usage: `cargo run --release -p imcat-bench --bin table1_datasets`
//! Environment: `IMCAT_SCALE` scales every preset.

use imcat_bench::{logln, write_json, Env, ExpLog};
use imcat_data::SynthConfig;

struct Row {
    dataset: String,
    users: usize,
    items: usize,
    tags: usize,
    ui: usize,
    ui_density_pct: f64,
    ui_avg_degree: f64,
    it: usize,
    it_density_pct: f64,
    it_avg_degree: f64,
}
imcat_obs::impl_to_json!(Row {
    dataset,
    users,
    items,
    tags,
    ui,
    ui_density_pct,
    ui_avg_degree,
    it,
    it_density_pct,
    it_avg_degree
});

fn main() {
    let env = Env::from_env();
    let mut log = ExpLog::new("table1_datasets");
    logln!(log, "Table I: dataset statistics (synthetic presets, scale {}):\n", env.scale);
    logln!(
        log,
        "{:<14} {:>7} {:>7} {:>6} {:>8} {:>9} {:>8} {:>8} {:>9} {:>8}",
        "dataset",
        "#User",
        "#Item",
        "#Tag",
        "#UI",
        "UI-dens%",
        "UI-deg",
        "#IT",
        "IT-dens%",
        "IT-deg"
    );
    let mut rows = Vec::new();
    for key in SynthConfig::PAPER_KEYS {
        let preset = SynthConfig::by_key(key).unwrap();
        let data = env.dataset(&preset);
        let n_ui = data.train.n_edges()
            + data.val.iter().map(Vec::len).sum::<usize>()
            + data.test.iter().map(Vec::len).sum::<usize>();
        let ui_density = n_ui as f64 / (data.n_users() * data.n_items()) as f64;
        let ui_deg = n_ui as f64 / data.n_users() as f64;
        let row = Row {
            dataset: data.name.clone(),
            users: data.n_users(),
            items: data.n_items(),
            tags: data.n_tags(),
            ui: n_ui,
            ui_density_pct: ui_density * 100.0,
            ui_avg_degree: ui_deg,
            it: data.item_tag.n_edges(),
            it_density_pct: data.item_tag.density() * 100.0,
            it_avg_degree: data.item_tag.avg_row_degree(),
        };
        logln!(
            log,
            "{:<14} {:>7} {:>7} {:>6} {:>8} {:>9.2} {:>8.2} {:>8} {:>9.2} {:>8.2}",
            key,
            row.users,
            row.items,
            row.tags,
            row.ui,
            row.ui_density_pct,
            row.ui_avg_degree,
            row.it,
            row.it_density_pct,
            row.it_avg_degree
        );
        rows.push(row);
    }
    let path = write_json("table1_datasets", &rows);
    logln!(log, "\nwrote {}", path.display());
}
