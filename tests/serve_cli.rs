//! The front door, end to end: `imcat serve` as a child process over a saved
//! artifact, spoken to over real sockets. Everything behind it has its own
//! suite (`crates/net/tests`, `crates/serve/tests`); this one pins the
//! wiring — flags, artifact loading, the printed address, the environment
//! knobs — that only the binary has.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

use imcat::net::http::read_response;
use imcat::obs::Json;
use imcat::serve::{Artifact, Engine, Interaction, ServeConfig};
use imcat::tensor::Tensor;

const BIN: &str = env!("CARGO_BIN_EXE_imcat");

/// 12 users x 40 items x 4 dims, every other user masking a few items.
fn artifact() -> Artifact {
    let grid = |rows: usize, salt: usize| {
        let cell = |i: usize| ((i * 7 + salt) % 11) as f32 * 0.25 - 1.0;
        Tensor::from_vec(rows, 4, (0..rows * 4).map(cell).collect())
    };
    let masks = (0..12u32).map(|u| if u % 2 == 0 { vec![u, u + 20] } else { vec![] }).collect();
    Artifact::new("serve-cli", grid(12, 1), grid(40, 5), masks)
}

fn saved_artifact(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    artifact().save(&path).expect("save artifact");
    path
}

/// A running `imcat serve`, killed on drop.
struct Served {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Served {
    fn spawn(artifact: &std::path::Path, extra: &[&str]) -> Self {
        Self::spawn_sharded(artifact, extra, "1")
    }

    fn spawn_sharded(artifact: &std::path::Path, extra: &[&str], shards: &str) -> Self {
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(["--artifact", artifact.to_str().expect("utf-8 path")])
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .env("IMCAT_OBS_ADDR", "127.0.0.1:0")
            .env("IMCAT_NET_SHARDS", shards)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn imcat serve");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Self { child, stdout }
    }

    /// The next stdout line's `http://HOST:PORT`, after checking its label.
    fn printed_addr(&mut self, label: &str) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read child stdout");
        let rest = line
            .strip_prefix(label)
            .and_then(|rest| rest.trim().strip_prefix("on http://"))
            .unwrap_or_else(|| panic!("expected `{label} on http://..`, got `{line}`"));
        rest.split('/').next().unwrap_or(rest).to_string()
    }
}

/// One bodiless request on a fresh `Connection: close` socket.
fn send(method: &str, addr: &str, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    )
    .expect("write request");
    read_response(&mut stream, &mut Vec::new()).expect("read response")
}

fn get(addr: &str, target: &str) -> (u16, String) {
    send("GET", addr, target)
}

fn numbers(doc: &Json, key: &str) -> Vec<u32> {
    let values = doc.get(key).and_then(Json::as_array).unwrap_or_else(|| panic!("no `{key}`"));
    values.iter().map(|v| v.as_f64().expect("number") as u32).collect()
}

#[test]
fn serve_answers_like_the_engine_it_wraps() {
    let path = saved_artifact("serve_cli_exact.artifact");
    let mut served = Served::spawn(&path, &[]);
    let addr = served.printed_addr("listening");
    let telemetry = served.printed_addr("telemetry");

    assert_eq!(get(&addr, "/healthz"), (200, "ok\n".to_string()));

    let mut engine = Engine::new(artifact(), ServeConfig::default()).expect("valid artifact");
    for user in [0u32, 5, 11] {
        let (status, body) = get(&addr, &format!("/recommend?user={user}&k=10"));
        assert_eq!(status, 200, "user {user}: {body}");
        let doc = Json::parse(&body).expect("recommend body is JSON");
        let want = engine.recommend(user, 10).expect("in range");
        assert_eq!(numbers(&doc, "items"), want.iter().map(|r| r.item).collect::<Vec<_>>());
        assert_eq!(
            numbers(&doc, "score_bits"),
            want.iter().map(|r| r.score.to_bits()).collect::<Vec<_>>(),
            "user {user}: score bits diverged between the process and the engine"
        );
    }

    let (status, body) = get(&addr, "/stats");
    assert_eq!(status, 200);
    let stats = Json::parse(&body).expect("stats body is JSON");
    assert_eq!(stats.get("n_items").and_then(Json::as_f64), Some(40.0));
    assert_eq!(stats.get("answered").and_then(Json::as_f64), Some(3.0));
    assert_eq!(stats.get("ann").and_then(Json::as_array), Some(&[Json::Null][..]), "{body}");

    // `IMCAT_OBS_ADDR` reached `init_from_env`: the second listener is up
    // and has seen the front-end's requests.
    let (status, metrics) = get(&telemetry, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("imcat_net_requests 3"), "front-end counters missing:\n{metrics}");
}

/// Hit, ingest, hit — through the process, at one shard and at two: a
/// repeated request is answered from the cache by a connection worker
/// (`inline_hits`), an acknowledged ingest is in the very next answer, and
/// that answer is the engine's, bit for bit.
#[test]
fn serve_answers_hits_inline_and_never_stale() {
    let path = saved_artifact("serve_cli_hits.artifact");
    for shards in ["1", "2"] {
        let mut served = Served::spawn_sharded(&path, &[], shards);
        let addr = served.printed_addr("listening");
        let telemetry = served.printed_addr("telemetry");
        let mut engine = Engine::new(artifact(), ServeConfig::default()).expect("valid artifact");
        let (user, target) = (5u32, "/recommend?user=5&k=10");
        let inline_hits = |addr: &str| {
            let stats = Json::parse(&get(addr, "/stats").1).expect("stats body is JSON");
            stats.get("inline_hits").and_then(Json::as_f64)
        };
        let check = |body: &str, engine: &mut Engine| {
            let doc = Json::parse(body).expect("recommend body is JSON");
            let want = engine.recommend(user, 10).expect("in range");
            assert_eq!(numbers(&doc, "items"), want.iter().map(|r| r.item).collect::<Vec<_>>());
            assert_eq!(
                numbers(&doc, "score_bits"),
                want.iter().map(|r| r.score.to_bits()).collect::<Vec<_>>(),
                "shards={shards}: score bits diverged between the process and the engine"
            );
            want[0].item
        };

        let (status, first) = get(&addr, target);
        assert_eq!(status, 200, "shards={shards}: {first}");
        let top = check(&first, &mut engine);
        assert_eq!(inline_hits(&addr), Some(0.0));
        assert_eq!(get(&addr, target), (200, first), "shards={shards}: the hit differs");
        assert_eq!(inline_hits(&addr), Some(1.0));

        let (status, body) = send("POST", &addr, &format!("/ingest?user={user}&item={top}"));
        assert_eq!(status, 200, "shards={shards}: {body}");
        engine.ingest(Interaction { user, item: top }).expect("in range");
        let (status, after) = get(&addr, target);
        assert_eq!(status, 200);
        assert_ne!(
            check(&after, &mut engine),
            top,
            "shards={shards}: {top} served after its ingest"
        );
        assert_eq!(inline_hits(&addr), Some(1.0), "shards={shards}: a stale hit was answered");
        assert_eq!(get(&addr, target), (200, after));
        assert_eq!(inline_hits(&addr), Some(2.0));

        let (status, metrics) = get(&telemetry, "/metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("imcat_net_inline_hits 2"), "shards={shards}:\n{metrics}");
    }
}

#[test]
fn serve_ann_flag_selects_the_backend() {
    let path = saved_artifact("serve_cli_hnsw.artifact");
    let mut served = Served::spawn(&path, &["--ann", "hnsw"]);
    let addr = served.printed_addr("listening");
    let (status, body) = get(&addr, "/stats");
    assert_eq!(status, 200);
    let stats = Json::parse(&body).expect("stats body is JSON");
    let ann = stats.get("ann").and_then(Json::as_array).expect("ann array");
    assert_eq!(ann[0].get("kind").and_then(Json::as_str), Some("hnsw"), "{body}");
}

#[test]
fn serve_rejects_what_it_cannot_run() {
    let path = saved_artifact("serve_cli_flags.artifact");
    let artifact = path.to_str().expect("utf-8 path");
    let cases: [&[&str]; 3] = [
        &["--artifact", artifact, "--addr", "127.0.0.1:0", "--shards", "2"],
        &["--artifact", artifact, "--addr", "127.0.0.1:0", "--ann", "faiss"],
        &["--addr", "127.0.0.1:0"],
    ];
    for args in cases {
        let out = Command::new(BIN).arg("serve").args(args).output().expect("run imcat serve");
        assert!(!out.status.success(), "{args:?} must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:") && stderr.contains("imcat serve"), "{args:?}: {stderr}");
    }
}
