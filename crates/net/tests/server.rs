//! End-to-end tests of the network front-end over real sockets: routing,
//! keep-alive, wire-level bit-identity with an in-process engine, typed
//! rejections, admission-control shedding, and slow-client containment.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use imcat_ckpt::Artifact;
use imcat_data::{generate, SynthConfig};
use imcat_models::{Bprmf, RecModel, TrainConfig};
use imcat_net::http::read_response;
use imcat_net::{NetConfig, Server};
use imcat_obs::Json;
use imcat_serve::{AnnConfig, AnnKind, Engine, Interaction, Recommendation, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Servers spawn worker threads that dispatch on the process-global pool;
/// serialize the socket tests so their load patterns don't interleave.
fn net_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn artifact() -> &'static Artifact {
    static ART: OnceLock<Artifact> = OnceLock::new();
    ART.get_or_init(|| {
        let synth = generate(&SynthConfig::tiny(), 47);
        let mut rng = StdRng::seed_from_u64(47 ^ 0x5eed);
        let data = synth.dataset.split((0.7, 0.1, 0.2), &mut rng);
        let mut rng = StdRng::seed_from_u64(23);
        let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        for _ in 0..3 {
            model.train_epoch(&mut rng);
        }
        model.export_artifact(&data).expect("bprmf exports an artifact")
    })
}

fn start(cfg: NetConfig) -> Server {
    Server::start(artifact(), &ServeConfig::default(), cfg, "127.0.0.1:0")
        .expect("bind ephemeral port")
}

/// One request on a fresh `Connection: close` socket.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let mut buf = Vec::new();
    read_response(&mut stream, &mut buf).expect("read response")
}

/// One POST on a fresh `Connection: close` socket, with a body.
fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut buf = Vec::new();
    read_response(&mut stream, &mut buf).expect("read response")
}

#[test]
fn routes_health_stats_and_errors() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { shards: 2, ..Default::default() });
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    // Query strings and fragments never break routing.
    let (status, _) = get(addr, "/healthz?probe=1&ts=2");
    assert_eq!(status, 200);

    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("stats is JSON");
    assert_eq!(doc.get("shards").and_then(Json::as_f64), Some(2.0));
    assert_eq!(doc.get("n_items").and_then(Json::as_f64), Some(90.0));

    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, body) = get(addr, "/recommend");
    assert_eq!(status, 400, "missing params: {body}");
    let (status, _) = get(addr, "/recommend?user=abc&k=5");
    assert_eq!(status, 400);
    // A stale user id is the engine's typed rejection, not a panic or 500.
    let n = artifact().n_users();
    let (status, body) = get(addr, &format!("/recommend?user={n}&k=5"));
    assert_eq!(status, 400);
    assert!(body.contains("out of range"), "typed error missing: {body}");
    let (status, body) = get(addr, "/recommend?user=0&k=0");
    assert_eq!(status, 400);
    assert!(body.contains("at least 1"), "typed error missing: {body}");

    // Non-GET is refused.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "POST /recommend HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let (status, _) = read_response(&mut stream, &mut buf).unwrap();
    assert_eq!(status, 405);

    let stats = server.stats();
    assert!(stats.rejected >= 4, "rejections must be counted: {stats:?}");
    server.shutdown();
}

/// Wire-level parity: answers served over the socket (at 2 shards, through
/// the full accept/queue/tick path) carry exactly the score bits an
/// in-process unsharded engine computes.
#[test]
fn served_answers_are_bit_identical_to_local_engine() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { shards: 2, ..Default::default() });
    let addr = server.addr();
    let mut reference = Engine::new(artifact().clone(), ServeConfig::default()).unwrap();

    // Keep-alive: every user through ONE connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut buf = Vec::new();
    for user in 0..artifact().n_users() as u32 {
        write!(stream, "GET /recommend?user={user}&k=10 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut stream, &mut buf).expect("keep-alive response");
        assert_eq!(status, 200, "user {user}: {body}");
        let doc = Json::parse(&body).expect("response is JSON");
        let items: Vec<u32> = doc
            .get("items")
            .and_then(Json::as_array)
            .expect("items array")
            .iter()
            .map(|v| v.as_f64().unwrap() as u32)
            .collect();
        let bits: Vec<u32> = doc
            .get("score_bits")
            .and_then(Json::as_array)
            .expect("score_bits array")
            .iter()
            .map(|v| v.as_f64().unwrap() as u32)
            .collect();
        let want = reference.recommend(user, 10).unwrap();
        assert_eq!(items, want.iter().map(|r| r.item).collect::<Vec<_>>(), "user {user}");
        assert_eq!(
            bits,
            want.iter().map(|r| r.score.to_bits()).collect::<Vec<_>>(),
            "user {user}: score bits diverged over the wire"
        );
    }
    drop(stream);
    server.shutdown();
}

/// `(items, score_bits)` of a `/recommend` body.
fn served_list(body: &str) -> (Vec<u32>, Vec<u32>) {
    let doc = Json::parse(body).expect("response is JSON");
    let numbers = |key: &str| -> Vec<u32> {
        let values = doc.get(key).and_then(Json::as_array).expect("array");
        values.iter().map(|v| v.as_f64().unwrap() as u32).collect()
    };
    (numbers("items"), numbers("score_bits"))
}

fn engine_list(recs: &[Recommendation]) -> (Vec<u32>, Vec<u32>) {
    (recs.iter().map(|r| r.item).collect(), recs.iter().map(|r| r.score.to_bits()).collect())
}

/// The hit lane is coherent with writes: a repeated request is answered by
/// the connection worker (no tick, every replica's hit counted), and once a
/// write has been acknowledged no list computed before it comes back — also
/// at 2 shards, where the write invalidates one replica's entry and leaves
/// the other's in place.
#[test]
fn cached_answers_stay_coherent_with_writes_over_the_wire() {
    let _guard = net_lock().lock().unwrap();
    for shards in [1usize, 2] {
        let _obs = imcat_obs::exclusive(true);
        let server = start(NetConfig { shards, ..Default::default() });
        let addr = server.addr();
        let counter = |name: &str| imcat_obs::snapshot().counter(name);
        let (user, target) = (3u32, "/recommend?user=3&k=10");
        let mut reference = Engine::new(artifact().clone(), ServeConfig::default()).unwrap();

        // Miss, then the same request again: a hit, byte for byte, no tick.
        let (status, first) = get(addr, target);
        assert_eq!(status, 200, "shards={shards}: {first}");
        assert_eq!(served_list(&first), engine_list(&reference.recommend(user, 10).unwrap()));
        let (hits, ticks) = (counter("serve.cache.hits"), counter("serve.ticks"));
        assert_eq!(get(addr, target), (200, first.clone()), "shards={shards}: the hit differs");
        assert_eq!(counter("serve.cache.hits") - hits, shards as u64, "one hit per replica");
        assert_eq!(counter("serve.ticks"), ticks, "shards={shards}: a hit took a tick");
        assert_eq!((server.stats().inline_hits, counter("net.inline_hits")), (1, 1));

        // Ingest the user's best item: acknowledged, so it is gone from the
        // very next answer, which is what an engine that ingested the same
        // computes.
        let top = served_list(&first).0[0];
        let (status, body) = post(addr, &format!("/ingest?user={user}&item={top}"), "");
        assert_eq!(status, 200, "shards={shards}: {body}");
        reference.ingest(Interaction { user, item: top }).unwrap();
        reference.fold_pending();
        let (status, after) = get(addr, target);
        assert_eq!(status, 200);
        assert!(!served_list(&after).0.contains(&top), "shards={shards}: {top} in {after}");
        assert_eq!(
            served_list(&after),
            engine_list(&reference.recommend(user, 10).unwrap()),
            "shards={shards}: the answer after the ingest is not the engine's"
        );
        assert_eq!(server.stats().inline_hits, 1, "a stale or partial hit was answered inline");
        assert_eq!(get(addr, target), (200, after.clone()), "shards={shards}");
        assert_eq!(server.stats().inline_hits, 2, "the recomputed list is a hit again");

        // A new item clears the cache that ranked the smaller catalogue: the
        // next request ticks on every replica again.
        let ticks = counter("serve.ticks");
        assert_eq!(post(addr, "/items", "").0, 201);
        reference.register_item();
        reference.fold_pending();
        let (status, grown) = get(addr, target);
        assert_eq!(status, 200);
        assert_eq!(counter("serve.ticks") - ticks, shards as u64, "shards={shards}");
        assert_eq!(served_list(&grown), engine_list(&reference.recommend(user, 10).unwrap()));

        // Invalid requests are never cached: the batcher's typed 400, twice.
        let hits = counter("serve.cache.hits");
        let stale = format!("/recommend?user={}&k=10", artifact().n_users());
        for target in ["/recommend?user=3&k=0", &stale, "/recommend?user=3&k=0", &stale] {
            assert_eq!(get(addr, target).0, 400, "shards={shards}: {target}");
        }
        assert_eq!(counter("serve.cache.hits"), hits, "shards={shards}: a rejection hit");
        assert_eq!(server.stats().inline_hits, 2);
        server.shutdown();
    }
}

/// Full mutable-serving surface over the wire: registration returns dense
/// ids, single and batch ingestion are accepted with per-line typed errors,
/// an all-rejected batch is a `400`, and the cold user is servable right
/// after the mutating tick (the batcher folds before storing counters).
#[test]
fn streaming_mutations_round_trip_over_the_wire() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { shards: 2, ..Default::default() });
    let addr = server.addr();
    let n_users = artifact().n_users() as u32;
    let n_items = artifact().n_items() as u32;

    let (status, body) = post(addr, "/users", "");
    assert_eq!(status, 201, "register user: {body}");
    let cold = Json::parse(&body).unwrap().get("user").and_then(Json::as_f64).unwrap() as u32;
    assert_eq!(cold, n_users, "cold user id must be the next dense id");
    let (status, body) = post(addr, "/items", "");
    assert_eq!(status, 201, "register item: {body}");
    let new_item = Json::parse(&body).unwrap().get("item").and_then(Json::as_f64).unwrap() as u32;
    assert_eq!(new_item, n_items, "cold item id must be the next dense id");

    // Single interaction via query parameters, no body.
    let (status, body) = post(addr, &format!("/ingest?user={cold}&item=3"), "");
    assert_eq!(status, 200, "query ingest: {body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("accepted").and_then(Json::as_f64), Some(1.0), "{body}");
    assert_eq!(doc.get("rejected").and_then(Json::as_f64), Some(0.0), "{body}");

    // Batch via body lines; the middle line names a stale item and is
    // rejected per-line without sinking the rest of the batch.
    let batch = format!("{cold} 5\n0 {}\n{cold} {new_item}\n", n_items + 40);
    let (status, body) = post(addr, "/ingest", &batch);
    assert_eq!(status, 200, "batch ingest: {body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("accepted").and_then(Json::as_f64), Some(2.0), "{body}");
    assert_eq!(doc.get("rejected").and_then(Json::as_f64), Some(1.0), "{body}");
    let errors = doc.get("errors").and_then(Json::as_array).unwrap();
    assert_eq!(errors[0].get("index").and_then(Json::as_f64), Some(1.0), "{body}");
    let msg = errors[0].get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("out of range"), "typed per-line error missing: {body}");

    // Every line stale: the whole request is a 400, still with typed lines.
    let (status, body) = post(addr, "/ingest", &format!("{} 0\n", n_users + 99));
    assert_eq!(status, 400, "all-rejected batch: {body}");
    assert!(body.contains("out of range"), "all-rejected batch keeps typed errors: {body}");
    // Malformed lines and empty payloads are parse-level 400s.
    let (status, _) = post(addr, "/ingest", "1 2 3\n");
    assert_eq!(status, 400);
    let (status, _) = post(addr, "/ingest", "");
    assert_eq!(status, 400);

    // The cold user is servable immediately: the batcher folds pending
    // entities at the end of every mutating tick.
    let (status, body) = get(addr, &format!("/recommend?user={cold}&k=5"));
    assert_eq!(status, 200, "cold user recommend: {body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("items").and_then(Json::as_array).unwrap().len(), 5, "{body}");

    // /stats reflects the mutations and reports the live knob registry.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("ingested").and_then(Json::as_f64), Some(3.0), "{body}");
    assert_eq!(doc.get("n_users").and_then(Json::as_f64), Some((n_users + 1) as f64), "{body}");
    assert_eq!(doc.get("n_items").and_then(Json::as_f64), Some((n_items + 1) as f64), "{body}");
    let knobs = doc.get("knobs").expect("stats exposes the knob registry");
    assert!(knobs.get("IMCAT_INGEST_FOLD_LAMBDA").is_some(), "knob registry missing: {body}");
    assert_eq!(server.stats().ingested, 3);
    server.shutdown();
}

/// The batcher folds after every mutating tick, and a tick refolds only the
/// users it brought evidence: with a cold user present, a warm user's
/// ingest refolds nobody and each of the cold user's refolds them alone.
#[test]
fn a_mutating_tick_refolds_only_users_with_new_evidence() {
    let _guard = net_lock().lock().unwrap();
    let _obs = imcat_obs::exclusive(true);
    let server = start(NetConfig { shards: 1, ..Default::default() });
    let addr = server.addr();
    let folds = || imcat_obs::snapshot().counter("ingest.folds");
    let (status, body) = post(addr, "/users", "");
    assert_eq!(status, 201, "register user: {body}");
    let cold = Json::parse(&body).unwrap().get("user").and_then(Json::as_f64).unwrap() as u32;
    for (user, item, want) in [(cold, 3, 1), (0, 4, 0), (cold, 5, 1), (1, 6, 0)] {
        let before = folds();
        let (status, body) = post(addr, &format!("/ingest?user={user}&item={item}"), "");
        assert_eq!(status, 200, "ingest ({user}, {item}): {body}");
        assert_eq!(folds() - before, want, "ingest ({user}, {item}) moved ingest.folds");
    }
    server.shutdown();
}

/// Admission control: with one worker and a one-deep connection queue, a
/// third concurrent connection is shed with a fast 503 by the acceptor —
/// and the counter records it.
#[test]
fn overload_sheds_with_fast_503() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig {
        shards: 1,
        workers: 1,
        queue: 1,
        deadline: Duration::from_millis(400),
        ..Default::default()
    });
    let addr = server.addr();

    // Two idle connections pin the worker and fill the queue...
    let _idle_a = TcpStream::connect(addr).expect("connect idle a");
    std::thread::sleep(Duration::from_millis(50));
    let _idle_b = TcpStream::connect(addr).expect("connect idle b");
    std::thread::sleep(Duration::from_millis(50));
    // ...so the third is answered 503 by the acceptor itself, fast.
    let t0 = Instant::now();
    let mut shed = TcpStream::connect(addr).expect("connect shed");
    let mut buf = Vec::new();
    let (status, body) = read_response(&mut shed, &mut buf).expect("shed response");
    assert_eq!(status, 503, "expected shed: {body}");
    assert!(body.contains("overloaded"));
    assert!(
        t0.elapsed() < Duration::from_millis(300),
        "shed 503 must be fast, took {:?}",
        t0.elapsed()
    );
    assert!(server.stats().shed >= 1, "shed must be counted: {:?}", server.stats());
    server.shutdown();
}

/// A slowloris client trickling a partial head is cut off by the
/// per-request deadline with 408 (or a drop) and cannot hold its worker
/// past the deadline.
#[test]
fn slow_clients_are_timed_out() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { deadline: Duration::from_millis(300), ..Default::default() });
    let addr = server.addr();

    let mut slow = TcpStream::connect(addr).expect("connect slow");
    slow.write_all(b"GET /hea").expect("partial head");
    slow.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let t0 = Instant::now();
    let mut response = String::new();
    let _ = slow.read_to_string(&mut response);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "slow connection must be cut off by the 300ms deadline"
    );
    assert!(
        response.is_empty() || response.starts_with("HTTP/1.1 408"),
        "expected 408 or drop, got: {response}"
    );
    // The server is still fully alive afterwards.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(server.stats().timeouts >= 1, "timeout must be counted: {:?}", server.stats());
    server.shutdown();
}

/// Waiting is not a slow request: a keep-alive connection that stays idle
/// past the deadline *between* requests is closed without a response, and
/// nothing is billed as a timeout.
#[test]
fn idle_keep_alive_is_closed_quietly() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig { deadline: Duration::from_millis(300), ..Default::default() });

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let (status, _) = read_response(&mut stream, &mut buf).expect("keep-alive response");
    assert_eq!(status, 200);
    assert!(buf.is_empty(), "one response, fully consumed");

    // Blocks until the server hangs up, one 300 ms deadline from now.
    stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("the server hangs up cleanly");
    assert!(rest.is_empty(), "unsolicited bytes: {}", String::from_utf8_lossy(&rest));
    assert_eq!(server.stats().timeouts, 0, "idling was billed: {:?}", server.stats());
    server.shutdown();
}

/// `/stats` names exactly the parameters that apply to each shard's live
/// backend, in a fixed order: operators (and the benchmark) parse this.
#[test]
fn stats_ann_entry_has_exact_keys_per_backend() {
    let _guard = net_lock().lock().unwrap();
    let n_items = artifact().n_items();
    // The raw `"ann":[..]` bytes of the body, so key order is part of the check.
    let ann_entry = |ann: Option<AnnConfig>| -> String {
        let cfg = ServeConfig { ann, ..Default::default() };
        let server = Server::start(artifact(), &cfg, NetConfig::default(), "127.0.0.1:0")
            .expect("bind ephemeral port");
        let (status, body) = get(server.addr(), "/stats");
        assert_eq!(status, 200);
        server.shutdown();
        let from = body.find("\"ann\":[").expect("stats carries an ann array") + 7;
        let to = from + body[from..].find("],\"n_users\"").expect("ann array precedes n_users");
        body[from..to].to_string()
    };
    let of = |kind| Some(AnnConfig::for_kind(kind));

    assert_eq!(ann_entry(None), "null", "no index is a null entry");
    let n = Json::Num(n_items as f64);
    let brute = Json::obj(vec![("kind", Json::Str("brute".into())), ("n_items", n.clone())]);
    assert_eq!(ann_entry(of(AnnKind::Brute)), brute.render());

    let cfg = AnnConfig::default();
    let ivf = Json::obj(vec![
        ("kind", Json::Str("ivf".into())),
        ("n_items", n.clone()),
        ("nlist", Json::Num(cfg.resolved_nlist(n_items) as f64)),
        ("nprobe", Json::Num(cfg.resolved_nprobe(n_items) as f64)),
        ("quantized", Json::Bool(false)),
    ]);
    assert_eq!(ann_entry(of(AnnKind::Ivf)), ivf.render());

    let hnsw = Json::obj(vec![
        ("kind", Json::Str("hnsw".into())),
        ("n_items", n),
        ("m", Json::Num(cfg.resolved_m(n_items) as f64)),
        ("ef_construction", Json::Num(cfg.resolved_ef_construction(n_items) as f64)),
        ("ef_search", Json::Num(cfg.resolved_ef_search(n_items) as f64)),
    ]);
    assert_eq!(ann_entry(of(AnnKind::Hnsw)), hnsw.render());

    // The probe width is a method of the descriptor, never a `/stats` key.
    let ivf_width = cfg.resolved_nprobe(n_items);
    let hnsw_width = cfg.resolved_ef_search(n_items);
    for (kind, width) in
        [(AnnKind::Brute, 0), (AnnKind::Ivf, ivf_width), (AnnKind::Hnsw, hnsw_width)]
    {
        assert_eq!(AnnConfig::for_kind(kind).describe(n_items).probe_width(), width, "{kind:?}");
    }
}

/// Bytes that cannot be framed as a request are answered, not dropped: a
/// head that never ends, an unparsable `Content-Length`, and a body past
/// the limit each get a status, `Connection: close`, and a `rejected` tick.
#[test]
fn unframeable_requests_get_400_or_413_and_close() {
    let _guard = net_lock().lock().unwrap();
    let server = start(NetConfig::default());
    // Writes `bytes`, then reads until the server closes the connection.
    let exchange = |bytes: &[u8]| -> String {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        stream.write_all(bytes).expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("server answers, then closes");
        response
    };
    // Exactly MAX_HEAD bytes and still no terminator.
    let mut endless = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    endless.resize(imcat_net::http::MAX_HEAD, b'a');
    let too_big = imcat_net::http::MAX_BODY + 1;
    let cases: [(&[u8], &str, &str); 3] = [
        (&endless, "HTTP/1.1 400 Bad Request", "head too large"),
        (
            b"POST /ingest HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
            "HTTP/1.1 400",
            "content-length",
        ),
        (
            &format!("POST /ingest HTTP/1.1\r\nContent-Length: {too_big}\r\n\r\n").into_bytes(),
            "HTTP/1.1 413 Payload Too Large",
            "body too large",
        ),
    ];
    for (i, (bytes, status, message)) in cases.into_iter().enumerate() {
        let response = exchange(bytes);
        assert!(response.starts_with(status), "case {i}: {response}");
        assert!(response.contains("Connection: close"), "case {i}: {response}");
        assert!(response.contains(message), "case {i}: {response}");
        assert_eq!(server.stats().rejected, i as u64 + 1, "case {i} was not counted");
    }
    // The workers all survived.
    assert_eq!(get(server.addr(), "/healthz").0, 200);
    server.shutdown();
}
