//! The paper's motivating scenario (Fig. 1): restaurant recommendation where
//! users act on distinct *intents* — taste, service, ambiance — and tags
//! cluster by intent ("yummy", "amazing dessert" ≈ taste; "friendly waiter"
//! ≈ service). IMCAT's self-supervised tag clustering should recover these
//! clusters, and the relatedness matrix `M` should explain which intents
//! drive each restaurant.
//!
//! ```sh
//! cargo run --release --example restaurant_intents
//! ```

use imcat::prelude::*;

/// Named tag vocabulary grouped by ground-truth intent.
const INTENTS: [(&str, &[&str]); 3] = [
    (
        "taste",
        &[
            "delicious",
            "yummy",
            "amazing-dessert",
            "great-coffee",
            "fresh",
            "tasty-soup",
            "crispy",
            "rich-flavor",
        ],
    ),
    (
        "service",
        &[
            "friendly-waiter",
            "feels-like-home",
            "fast-service",
            "attentive",
            "kind-staff",
            "no-wait",
            "helpful",
            "welcoming",
        ],
    ),
    (
        "ambiance",
        &[
            "cozy",
            "romantic",
            "great-view",
            "quiet",
            "live-music",
            "stylish",
            "candle-light",
            "garden-seating",
        ],
    ),
];

fn main() {
    // Generate a dataset with exactly three ground-truth intents so the tag
    // ids map onto the named vocabulary above (24 tags, 8 per intent).
    let cfg = SynthConfig {
        name: "restaurants".into(),
        n_tags: 24,
        k_true: 3,
        tag_noise: 0.05,
        ..SynthConfig::tiny().scaled(3.0)
    };
    let synth = generate(&cfg, 7);
    let truth = &synth.truth;
    let names: Vec<String> = (0..cfg.n_tags)
        .map(|t| {
            let intent = truth.tag_intent[t];
            let (label, words) = INTENTS[intent];
            let nth = truth.tag_intent[..t].iter().filter(|&&i| i == intent).count();
            format!("{}#{}", words[nth % words.len()], label)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(7);
    let split = synth.dataset.split((0.7, 0.1, 0.2), &mut rng);

    // Train B-IMCAT with K = 3 intents (d = 33 is not divisible by 3, so use
    // a dim of 30 via a custom TrainConfig).
    let tcfg = TrainConfig { dim: 30, ..TrainConfig::default() };
    let backbone = Bprmf::new(&split, tcfg, &mut rng);
    let mut model = Imcat::new(
        backbone,
        &split,
        ImcatConfig { k_intents: 3, pretrain_epochs: 25, gamma: 0.5, ..Default::default() },
        &mut rng,
    );
    for _ in 0..150 {
        model.train_epoch(&mut rng);
    }

    // Inspect the learned tag clusters.
    let assignment = model.cluster_assignment().expect("clustering is active");
    println!("learned tag clusters:");
    for k in 0..3 {
        let members: Vec<&str> =
            (0..cfg.n_tags).filter(|&t| assignment[t] == k).map(|t| names[t].as_str()).collect();
        println!("  cluster {k}: {members:?}");
    }

    // Measure cluster purity against the ground-truth intents: for each
    // learned cluster take its majority true intent and count agreements.
    let mut correct = 0usize;
    for k in 0..3 {
        let mut counts = [0usize; 3];
        for t in 0..cfg.n_tags {
            if assignment[t] == k {
                counts[truth.tag_intent[t]] += 1;
            }
        }
        correct += counts.iter().max().unwrap();
    }
    let purity = correct as f64 / cfg.n_tags as f64;
    println!("\ncluster purity vs ground-truth intents: {purity:.2}");

    // Show the intent relatedness of a few restaurants (Eq. 9's M rows).
    let m = model.relatedness().expect("relatedness available");
    println!("\nintent relatedness of the first 5 restaurants (rows of M):");
    for j in 0..5 {
        let row: Vec<String> = m.row(j).iter().map(|v| format!("{v:.2}")).collect();
        let mix: Vec<String> = truth.item_mix[j].iter().map(|v| format!("{v:.2}")).collect();
        println!("  restaurant {j}: M = {row:?}   (true intent mix = {mix:?})");
    }

    // Explain one recommendation: which intent drives it, and which tags
    // ground that intent (the paper's interpretability motivation).
    let user = 0u32;
    let scores = model.score_users(&[user]);
    let top = imcat::eval::top_n_masked(scores.row(0), split.train_items(0), 1);
    if let Some(&item) = top.first() {
        if let Some(e) = model.explain(user, item) {
            println!("\nwhy restaurant {item} for user {user}? (total score {:.3})", e.total);
            for c in &e.contributions {
                let tag_names: Vec<&str> =
                    c.supporting_tags.iter().map(|&t| names[t as usize].as_str()).collect();
                println!(
                    "  intent {} ({}): score {:+.3}, relatedness {:.2}, evidence {:?}",
                    c.intent,
                    INTENTS[c.intent.min(2)].0,
                    c.score,
                    c.item_relatedness,
                    tag_names
                );
            }
        }
    }

    // Final quality check.
    let test = evaluate_model(&model, &split, &EvalSpec::at(20)).aggregate();
    println!("\ntest Recall@20 = {:.4}", test.recall);
}
