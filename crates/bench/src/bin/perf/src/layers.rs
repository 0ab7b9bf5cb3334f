//! Measurements of single layers that every traced run takes the same way,
//! by calling the layer's public functions on the workload's own artifact:
//! the kernels, the cache, the HTTP connection on a loopback socket pair,
//! the JSON renderer and the artifact container. What depends on a
//! workload's traffic is measured in that workload's own `trace`.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use imcat_ckpt::Artifact;
use imcat_eval::{top_n_masked_with, TopKScratch};
use imcat_net::http::{Conn, JSON};
use imcat_obs::Json;
use imcat_serve::{LruCache, Recommendation};

use crate::batch::TICK_USERS;
use crate::gen::Rng;
use crate::report::Outcome;
use crate::stats;
use crate::K;

/// Where a traced run leaves its files.
pub fn trace_dir() -> PathBuf {
    PathBuf::from("target/perf")
}

/// Seconds the program's own telemetry says index builds took so far.
pub fn index_build_seconds(snapshot: &imcat_obs::Snapshot) -> f64 {
    snapshot.hist_sum("ann.build.seconds") + snapshot.hist_sum("ann.hnsw.build.seconds")
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Runs `f` `n` times and returns the median duration in microseconds.
pub fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// Sets `name` unless the workload's own trace already measured it in its
/// own traffic.
fn set_default(out: &mut Outcome, name: &'static str, value: f64) {
    if out.get(name).is_none() {
        out.set(name, value);
    }
}

pub fn measure(artifact: &Artifact, workload: &str, out: &mut Outcome) {
    kernels(artifact, out);
    cache(out);
    http_conn(artifact, out);
    container(artifact, workload, out);
    out.set("par.threads", imcat_par::current_threads() as f64);
}

/// `imcat-simd`, `imcat-tensor` and `imcat-eval` on the shapes serving uses.
fn kernels(artifact: &Artifact, out: &mut Outcome) {
    let (n, d) = artifact.item_emb.shape();
    let user = artifact.user_emb.row(0);

    // One pass scores the whole catalogue for one user, as the exact paths do.
    let pass_us = median_us(9, || {
        for j in 0..n {
            black_box(imcat_simd::dot(user, artifact.item_emb.row(j)));
        }
    });
    set_default(out, "simd.dot_ns", pass_us * 1e3 / n as f64);

    // Int8 codes as the quantized IVF lists hold them: one scale per row.
    let rows = n.min(4096);
    let mut codes = Vec::with_capacity(rows * d);
    let mut scales = Vec::with_capacity(rows);
    for j in 0..rows {
        let row = artifact.item_emb.row(j);
        let scale = row.iter().fold(0f32, |m, x| m.max(x.abs())).max(f32::MIN_POSITIVE) / 127.0;
        codes.extend(row.iter().map(|x| (x / scale).round() as i8));
        scales.push(scale);
    }
    let pass_us = median_us(9, || {
        for (j, &scale) in scales.iter().enumerate() {
            black_box(imcat_simd::dot_i8_scaled(&codes[j * d..(j + 1) * d], user, scale));
        }
    });
    out.set("simd.dot_i8_ns", pass_us * 1e3 / rows as f64);

    // One exact tick: a few user rows against the whole item table.
    let users: Vec<u32> = (0..TICK_USERS as u32).collect();
    let mut scores = None;
    let tick_us = median_us(5, || {
        scores = Some(black_box(artifact.user_emb.matmul_nt_rows(&users, &artifact.item_emb)));
    });
    let m = users.len();
    out.set("tensor.matmul_nt_rows_us", tick_us);
    out.set("tensor.matmul_gflops", 2.0 * (m * n * d) as f64 / (tick_us * 1e3));
    // Computed from the shapes, not measured: both operands read once, the
    // score matrix written once, four bytes each.
    out.set("tensor.matmul_bytes_per_tick", (4 * (n * d + m * d + m * n)) as f64);

    let scores = scores.expect("matmul ran");
    let mut scratch = TopKScratch::default();
    let topk_us = median_us(20, || {
        black_box(top_n_masked_with(scores.row(0), &artifact.masks[0], K, &mut scratch));
    });
    set_default(out, "eval.topk_us", topk_us);
}

/// `imcat_serve::LruCache` at the wire workloads' capacity, full.
fn cache(out: &mut Outcome) {
    const CAPACITY: usize = crate::wire::CACHE_CAPACITY;
    const OPS: usize = 20_000;
    let list: Vec<Recommendation> =
        (0..K as u32).map(|i| Recommendation { item: i, score: i as f32 }).collect();
    let mut cache = LruCache::new(CAPACITY);
    for u in 0..CAPACITY as u32 {
        cache.put((u, K), list.clone());
    }
    let mut rng = Rng::new(0, 40);
    let keys: Vec<u32> = (0..OPS).map(|_| rng.below(CAPACITY) as u32).collect();
    let t0 = Instant::now();
    for &u in &keys {
        black_box(cache.get((u, K)));
    }
    out.set("serve.cache.get_ns", t0.elapsed().as_secs_f64() * 1e9 / OPS as f64);
    // New keys, so every put evicts the least recently used entry.
    let lists: Vec<Vec<Recommendation>> = (0..OPS).map(|_| list.clone()).collect();
    let t0 = Instant::now();
    for (i, list) in lists.into_iter().enumerate() {
        cache.put(((CAPACITY + i) as u32, K), list);
    }
    out.set("serve.cache.put_ns", t0.elapsed().as_secs_f64() * 1e9 / OPS as f64);
}

/// The body `imcat-net` renders for a recommendation, built the same way.
pub fn recommend_body(user: u32, list: &[(u32, u32)]) -> Json {
    let nums =
        |f: &dyn Fn(&(u32, u32)) -> f64| Json::Arr(list.iter().map(|r| Json::Num(f(r))).collect());
    Json::obj(vec![
        ("user", Json::Num(user as f64)),
        ("k", Json::Num(K as f64)),
        ("items", nums(&|r| r.0 as f64)),
        ("scores", nums(&|r| f32::from_bits(r.1) as f64)),
        ("score_bits", nums(&|r| r.1 as f64)),
    ])
}

/// `Conn::read_request` and `Conn::respond` on a loopback socket pair, fed
/// the bytes a real exchange carries, with no queue or engine behind them;
/// and `Json::render` on the body of that exchange.
fn http_conn(artifact: &Artifact, out: &mut Outcome) {
    const EXCHANGES: usize = 2000;
    let list = crate::check::truth(artifact, 0, K);
    let body_json = recommend_body(0, &list);
    out.set("obs.json_render_us", median_us(EXCHANGES, || drop(black_box(body_json.render()))));
    let body = body_json.render();
    let request = format!("GET {} HTTP/1.1\r\nHost: perf\r\n\r\n", crate::wire::target(0));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut peer = TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect");
    peer.set_nodelay(true).expect("nodelay");
    let (accepted, _) = listener.accept().expect("accept");
    let mut conn = Conn::new(accepted);
    // The first exchange tells how long a response is; later ones are read
    // to exactly that length, so the socket buffer never fills.
    let mut response = Vec::new();

    let mut read_us = Vec::with_capacity(EXCHANGES);
    let mut respond_us = Vec::with_capacity(EXCHANGES);
    for _ in 0..EXCHANGES {
        peer.write_all(request.as_bytes()).expect("write request");
        let t0 = Instant::now();
        let parsed = conn.read_request(t0 + Duration::from_secs(2));
        read_us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(matches!(parsed, Ok(Some(_))), "loopback request parses");
        let t0 = Instant::now();
        conn.respond("200 OK", JSON, &body, true).expect("respond");
        respond_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if response.is_empty() {
            let mut chunk = [0u8; 4096];
            while !response.ends_with(body.as_bytes()) {
                let n = peer.read(&mut chunk).expect("read first response");
                assert!(n > 0, "peer closed");
                response.extend_from_slice(&chunk[..n]);
            }
        } else {
            peer.read_exact(&mut response).expect("read response");
        }
    }
    out.set("net.http.read_request_us", stats::median(&read_us));
    out.set("net.http.respond_us", stats::median(&respond_us));
}

/// `Artifact::save` and `Artifact::load` through the crash-safe container.
fn container(artifact: &Artifact, workload: &str, out: &mut Outcome) {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).expect("create target/perf");
    let path = dir.join(format!("{workload}.artifact.imck"));
    let t0 = Instant::now();
    let bytes = artifact.save(&path).expect("save artifact");
    out.set("ckpt.artifact_save_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let loaded = Artifact::load(&path).expect("load artifact");
    out.set("ckpt.artifact_load_s", t0.elapsed().as_secs_f64());
    out.set("ckpt.artifact_mb", bytes as f64 / (1 << 20) as f64);
    out.check(if loaded.item_emb.as_slice() == artifact.item_emb.as_slice() {
        Ok(())
    } else {
        Err("artifact did not survive a save and a load".into())
    });
    remove_container(&path);
}

/// Removes a container file with the `.prev` copy and temporary file its
/// atomic save may have left beside it.
pub fn remove_container(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for suffix in ["prev", "tmp"] {
        let mut beside = path.as_os_str().to_owned();
        beside.push(format!(".{suffix}"));
        let _ = std::fs::remove_file(beside);
    }
}
