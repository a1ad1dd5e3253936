//! End-to-end contract tests of the `cuasmrld` optimization service: the
//! serving-path determinism contract (a daemon answer is byte-identical to
//! a direct `SuiteOptimizer` run, and repeat answers are byte-identical to
//! each other — across daemon restarts), protocol-v2 sessions (pipelining,
//! version sniffing, per-`request_id` damage scoping, deadline-rank
//! admission), admission control, deadlines, and the typed rejection
//! paths.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use cuasmrl::Strategy;
use cuasmrld::{
    Client, ClientBuilder, ErrorCode, FaultKind, FaultPlan, InjectedFault, OptimizeRequest,
    OptimizeResponse, RequestBody, ScheduleStore, Server, ServerConfig, StatusRequest,
    TaggedRequest, TaggedResponse,
};
use gpusim::MeasureOptions;

fn temp_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cuasmrld-e2e-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// A fast daemon configuration: greedy strategy, scaled-down shapes,
/// noise-free two-repeat measurements.
fn fast_config(store_dir: &PathBuf) -> ServerConfig {
    let fast_measure = MeasureOptions {
        warmup: 0,
        repeats: 2,
        noise_std: 0.0,
        seed: 0,
    };
    let mut config = ServerConfig::new(store_dir);
    config.scale = 16;
    config.tune_options = fast_measure.clone();
    config.game_config = cuasmrl::GameConfig {
        episode_length: 8,
        measure: fast_measure,
        ..cuasmrl::GameConfig::default()
    };
    config.strategy = Strategy::Greedy { max_moves: 4 };
    config
}

fn expect_ok(response: OptimizeResponse) -> cuasmrld::OptimizeResult {
    match response {
        OptimizeResponse::Ok(result) => result,
        OptimizeResponse::Err(error) => panic!("expected Ok, got {error}"),
        OptimizeResponse::Status(_) => panic!("expected Ok, got a status answer"),
    }
}

fn expect_err(response: OptimizeResponse) -> cuasmrld::ServiceError {
    match response {
        OptimizeResponse::Ok(result) => {
            panic!("expected a typed error, got Ok for {}", result.kernel)
        }
        OptimizeResponse::Err(error) => error,
        OptimizeResponse::Status(_) => panic!("expected a typed error, got a status answer"),
    }
}

#[test]
fn daemon_answers_match_a_direct_suite_optimizer_run_and_repeat_bytes_are_identical() {
    let dir = temp_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let config = fast_config(&dir);
    let server = Server::start(config.clone()).expect("daemon starts");
    let client = Client::new(server.local_addr());

    let request = OptimizeRequest::table2("softmax", "a100");
    let first = expect_ok(client.request(&request).expect("first request"));
    assert!(!first.from_store, "first exposure must compute");
    assert_eq!(first.kernel, "softmax");
    assert!(first.report.verified);

    // The direct run, built through the same exported constructors the
    // daemon uses: byte-identical reports.
    let canonical = request.canonicalize(&config.defaults()).expect("canonical");
    let suite = config.suite_optimizer(canonical.gpu.clone(), canonical.seed);
    let optimizer = suite.optimizer_for(&canonical.spec);
    let (direct, _cubin, _telemetry) = optimizer.optimize_spec_instrumented(
        &canonical.spec,
        &suite.config_space_for(&canonical.spec),
        suite.tune_options(),
    );
    assert_eq!(
        serde_json::to_string(&first.report).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "daemon answer must be byte-identical to the direct run"
    );

    // Repeats are store hits with byte-identical response frames, and the
    // alias spelling of the same canonical request shares the entry.
    let repeat_a = client.request_bytes(&request).expect("repeat a");
    let repeat_b = client.request_bytes(&request).expect("repeat b");
    assert_eq!(repeat_a, repeat_b, "same request + same store state");
    let aliased = expect_ok(
        client
            .request(&OptimizeRequest::table2("SOFTMAX", "Ampere"))
            .expect("aliased request"),
    );
    assert!(aliased.from_store, "aliases canonicalize onto one entry");
    assert_eq!(server.stats().computed, 1);
    assert!(server.stats().store_hits >= 3);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_store_survives_a_daemon_restart_and_recovers_from_corruption() {
    let dir = temp_dir("restart");
    let _ = std::fs::remove_dir_all(&dir);
    let config = fast_config(&dir);
    let request = OptimizeRequest::table2("rmsnorm", "ampere");

    let warm_bytes = {
        let server = Server::start(config.clone()).expect("first daemon");
        let client = Client::new(server.local_addr());
        let first = expect_ok(client.request(&request).expect("compute"));
        assert!(!first.from_store);
        let bytes = client.request_bytes(&request).expect("warm repeat");
        server.shutdown();
        bytes
    };

    // Second daemon, same store: the repeat is served from disk without
    // recomputing, byte-identical to the pre-restart answer.
    {
        let server = Server::start(config.clone()).expect("second daemon");
        let client = Client::new(server.local_addr());
        let bytes = client.request_bytes(&request).expect("post-restart repeat");
        assert_eq!(bytes, warm_bytes, "restart must not change the answer");
        assert_eq!(server.stats().computed, 0);
        assert_eq!(server.stats().store_hits, 1);
        server.shutdown();
    }

    // Corrupt the entry on disk: the next daemon skips it at open,
    // recomputes on demand, overwrites the damage, and the answer bytes
    // still match (determinism makes recovery invisible).
    let canonical = request.canonicalize(&config.defaults()).expect("canonical");
    let key = cuasmrld::RequestKey::of(&canonical);
    let store = ScheduleStore::open(&dir, 8).expect("open store");
    std::fs::write(store.entry_path(&key), "{ damaged").expect("corrupt entry");
    drop(store);
    {
        let server = Server::start(config).expect("third daemon");
        let client = Client::new(server.local_addr());
        let recomputed = expect_ok(client.request(&request).expect("recompute"));
        assert!(!recomputed.from_store, "damage forces a recompute");
        let bytes = client.request_bytes(&request).expect("healed repeat");
        assert_eq!(bytes, warm_bytes, "recovery must reproduce the answer");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An RL-strategy daemon answers one cold request; the answer must be the
/// direct run's, byte for byte, whatever `checkpoint` (if anything) sat at
/// the request's checkpoint path when it was asked.
fn rl_daemon_matches_the_direct_run(label: &str, checkpoint: Option<&[u8]>) {
    let dir = temp_dir(label);
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    config.strategy = Strategy::Rl(rl::PpoConfig {
        total_steps: 96,
        rollout_steps: 24,
        ..rl::PpoConfig::tiny()
    });
    config.workers = 1;
    let request = OptimizeRequest::table2("softmax", "ampere");
    let canonical = request.canonicalize(&config.defaults()).expect("canonical");
    let key = cuasmrld::RequestKey::of(&canonical);
    let checkpoint_path = {
        let store = ScheduleStore::open(&dir, 8).expect("open store");
        store.checkpoint_path(&key)
    };
    if let Some(bytes) = checkpoint {
        std::fs::write(&checkpoint_path, bytes).expect("plant the checkpoint");
    }
    let server = Server::start(config.clone()).expect("daemon starts");
    let client = Client::new(server.local_addr());
    let served = expect_ok(client.request(&request).expect("rl request"));
    assert!(!served.from_store && !served.degraded);

    let suite = config.suite_optimizer(canonical.gpu.clone(), canonical.seed);
    let optimizer = suite.optimizer_for(&canonical.spec);
    let (direct, _cubin, _telemetry) = optimizer.optimize_spec_instrumented(
        &canonical.spec,
        &suite.config_space_for(&canonical.spec),
        suite.tune_options(),
    );
    assert_eq!(
        serde_json::to_string(&served.report).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "the checkpointing session must match the one-shot run"
    );
    // A finished search leaves no checkpoint behind — its own or a bad one.
    assert!(!checkpoint_path.exists());
    let stats = server.shutdown();
    assert_eq!((stats.checksum_failures, stats.worker_panics), (0, 0));
    assert_eq!(stats.computed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rl_requests_run_through_the_checkpointing_session_and_match_the_direct_run() {
    rl_daemon_matches_the_direct_run("rl", None);
}

#[test]
fn a_garbage_checkpoint_is_discarded_and_the_rl_answer_still_matches_the_direct_run() {
    rl_daemon_matches_the_direct_run("rl-garbage", Some(b"not a checkpoint \xff\x00\x13"));
}

#[test]
fn malformed_traffic_gets_typed_rejections_not_hangs_or_panics() {
    let dir = temp_dir("reject");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(fast_config(&dir)).expect("daemon starts");
    let client = Client::new(server.local_addr()).with_timeout(Duration::from_secs(10));

    // Not JSON at all.
    let garbage: OptimizeResponse = {
        let raw = client
            .request_raw(b"definitely not json")
            .expect("exchange");
        serde_json::from_str(std::str::from_utf8(&raw).unwrap()).expect("typed response")
    };
    assert_eq!(expect_err(garbage).code, ErrorCode::BadRequest);

    // An oversized length prefix is refused without reading the payload.
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        use std::io::Write as _;
        stream
            .write_all(&(cuasmrld::MAX_FRAME_LEN + 1).to_be_bytes())
            .expect("header");
        let mut response = stream;
        response
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let frame = cuasmrld::read_frame(&mut response).expect("error frame");
        let decoded: OptimizeResponse =
            serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(expect_err(decoded).code, ErrorCode::BadRequest);
    }

    // Wrong protocol version and unknown names.
    let mut wrong_version = OptimizeRequest::table2("softmax", "ampere");
    wrong_version.protocol_version = 99;
    assert_eq!(
        expect_err(client.request(&wrong_version).expect("exchange")).code,
        ErrorCode::UnsupportedVersion
    );
    let err = expect_err(
        client
            .request(&OptimizeRequest::table2("conv3d", "ampere"))
            .expect("exchange"),
    );
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(err.message.contains("conv3d"));
    assert_eq!(
        expect_err(
            client
                .request(&OptimizeRequest::table2("softmax", "pascal"))
                .expect("exchange")
        )
        .code,
        ErrorCode::BadRequest
    );
    assert_eq!(server.stats().computed, 0);

    // Every rejection above is counted exactly once, whichever frame shape
    // carried it: garbage JSON and non-UTF-8 in a bare first frame count
    // like the same damage in a session frame does. Framing damage (the
    // oversized prefix) is connection-level and is not a rejected request.
    let non_utf8: OptimizeResponse = {
        let raw = client.request_raw(b"\xff\xfe{}").expect("exchange");
        serde_json::from_str(std::str::from_utf8(&raw).unwrap()).expect("typed response")
    };
    assert_eq!(expect_err(non_utf8).code, ErrorCode::BadRequest);
    assert_eq!(
        server.stats().rejected,
        5,
        "garbage, wrong version, two unknown names, non-UTF-8"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_full_queue_answers_busy_and_an_expired_deadline_is_rejected_at_dequeue() {
    // Busy: no workers, a one-slot queue. Once any request occupies the
    // slot, every further store-missing request is rejected at admission.
    let dir = temp_dir("busy");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    config.workers = 0;
    config.queue_capacity = 1;
    let server = Server::start(config).expect("daemon starts");
    let probe = Client::new(server.local_addr()).with_timeout(Duration::from_millis(500));
    let mut saw_busy = false;
    for seed in 0..3u64 {
        let mut request = OptimizeRequest::table2("bmm", "ampere");
        request.seed = Some(seed);
        match probe.request(&request) {
            Ok(response) => {
                assert_eq!(expect_err(response).code, ErrorCode::Busy);
                saw_busy = true;
                break;
            }
            // A timeout means this request took the queue slot; the next
            // distinct request must then be rejected.
            Err(_) => continue,
        }
    }
    assert!(saw_busy, "the one-slot queue must reject the overflow");
    assert!(server.stats().busy >= 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Deadline: a request admitted with `deadline_ms: 0` has, by
    // definition, already expired when a worker picks it up.
    let dir = temp_dir("deadline");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(fast_config(&dir)).expect("daemon starts");
    let client = Client::new(server.local_addr());
    let mut request = OptimizeRequest::table2("fused_ff", "ampere");
    request.deadline_ms = Some(0);
    assert_eq!(
        expect_err(client.request(&request).expect("exchange")).code,
        ErrorCode::DeadlineExceeded
    );
    assert_eq!(server.stats().deadline_expired, 1);
    assert_eq!(server.stats().computed, 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_frame_disconnects_and_stalls_never_wedge_the_daemon() {
    use std::io::Write as _;
    let dir = temp_dir("midframe");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(fast_config(&dir)).expect("daemon starts");

    // A connection that promises a payload, sends half of it, and vanishes.
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&100u32.to_be_bytes()).expect("prefix");
        stream.write_all(b"{\"protocol_ver").expect("half frame");
    }
    // A connection that dies inside the 4-byte length prefix itself.
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&[0u8, 0]).expect("half prefix");
    }
    // A connection that never writes a byte.
    drop(TcpStream::connect(server.local_addr()).expect("connect"));

    // A connection that stalls mid-frame WITHOUT closing: it must tie up
    // only its own reader thread — the request below completes long before
    // the staller's read timeout expires.
    let mut staller = TcpStream::connect(server.local_addr()).expect("connect");
    staller.write_all(&64u32.to_be_bytes()).expect("prefix");
    staller.write_all(b"{").expect("stalled frame");

    let client = Client::new(server.local_addr()).with_timeout(Duration::from_secs(30));
    let healthy = expect_ok(
        client
            .request(&OptimizeRequest::table2("softmax", "ampere"))
            .expect("daemon healthy after mid-frame drops"),
    );
    assert!(!healthy.degraded);
    assert!(healthy.report.verified);
    drop(staller);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v1_client_frame_gets_byte_identical_v1_answers_and_a_single_exchange_close() {
    let dir = temp_dir("v1compat");
    let _ = std::fs::remove_dir_all(&dir);
    let config = fast_config(&dir);
    let server = Server::start(config.clone()).expect("daemon starts");
    let client = Client::new(server.local_addr());

    // First exposure computes and populates the store; the v1 exchange
    // below is then a store hit, whose bytes are fully deterministic.
    let request = OptimizeRequest::table2("softmax", "a100");
    expect_ok(client.request(&request).expect("warm the store"));

    // The exact frame a v1 client binary sends: version 1, every optional
    // field serialized as null, no `priority` field (it predates v2).
    let v1_literal = concat!(
        r#"{"protocol_version":1,"kernel":"softmax","arch":"a100","#,
        r#""shape":null,"scale":null,"seed":null,"deadline_ms":null}"#
    );
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    cuasmrld::write_frame(&mut stream, v1_literal.as_bytes()).expect("send v1 frame");
    let raw = cuasmrld::read_frame(&mut stream).expect("v1 answer");

    // Expected bytes, reconstructed from the shared constructors: the
    // stored (direct-run) report inside an Ok result echoing version 1 —
    // exactly what the v1 server answered.
    let canonical = request.canonicalize(&config.defaults()).expect("canonical");
    let suite = config.suite_optimizer(canonical.gpu.clone(), canonical.seed);
    let optimizer = suite.optimizer_for(&canonical.spec);
    let (direct, _cubin, _telemetry) = optimizer.optimize_spec_instrumented(
        &canonical.spec,
        &suite.config_space_for(&canonical.spec),
        suite.tune_options(),
    );
    let key = cuasmrld::RequestKey::of(&canonical);
    let expected = OptimizeResponse::Ok(cuasmrld::OptimizeResult {
        protocol_version: 1,
        arch: key.arch.clone(),
        kernel: key.kernel.clone(),
        request_key: key.digest.clone(),
        from_store: true,
        degraded: false,
        report: direct,
    });
    assert_eq!(
        raw,
        serde_json::to_string(&expected).unwrap().into_bytes(),
        "a v1 frame must get a byte-identical v1 answer from the v2 server"
    );

    // The v1 contract's second half: one exchange, then the server closes.
    use std::io::Read as _;
    let mut probe = [0u8; 1];
    assert_eq!(
        stream.read(&mut probe).expect("clean close"),
        0,
        "a bare-frame connection must close after its one exchange"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_answers_are_byte_identical_to_sequential_one_shots_and_resolve_in_any_order() {
    let dir = temp_dir("pipeline");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    config.workers = 2;
    let server = Server::start(config).expect("daemon starts");
    let client = Client::new(server.local_addr());

    // Sequential v1 one-shots: cold round computes, then the warm repeat
    // records the reference bytes for each kernel.
    let kernels = ["softmax", "bmm", "rmsnorm", "fused_ff"];
    let mut warm_bytes = Vec::new();
    for kernel in kernels {
        let request = OptimizeRequest::table2(kernel, "ampere");
        expect_ok(client.request(&request).expect("cold compute"));
        warm_bytes.push(client.request_bytes(&request).expect("warm one-shot"));
    }

    // One connection, all four requests in flight before any wait; ids are
    // issued sequentially from 1 (0 is reserved).
    let connection = ClientBuilder::new(server.local_addr())
        .connect()
        .expect("session connects");
    let handles: Vec<cuasmrld::RequestHandle> = kernels
        .iter()
        .map(|kernel| {
            connection
                .submit(&OptimizeRequest::table2(*kernel, "ampere"))
                .expect("pipelined submit")
        })
        .collect();
    assert_eq!(
        handles
            .iter()
            .map(cuasmrld::RequestHandle::id)
            .collect::<Vec<u64>>(),
        vec![1, 2, 3, 4]
    );

    // Wait in REVERSE submission order: completion routing is by id, so
    // waiting on the last submission first must work, and every pipelined
    // answer must be byte-identical to its sequential one-shot.
    let mut indexed: Vec<(usize, cuasmrld::RequestHandle)> =
        handles.into_iter().enumerate().collect();
    indexed.reverse();
    for (index, handle) in indexed {
        let response = handle.wait().expect("pipelined answer");
        assert_eq!(
            serde_json::to_string(&response).unwrap().into_bytes(),
            warm_bytes[index],
            "pipelined answer for {} must match the sequential one-shot",
            kernels[index]
        );
        let result = expect_ok(response);
        assert!(result.from_store, "warm pipelined traffic hits the store");
        assert_eq!(result.kernel, kernels[index]);
    }

    // Status rides the same session as a tagged body and sees the queue
    // gauge the v2 schema added.
    let status = connection.status().expect("status over the session");
    assert_eq!(status.stats.requests, 12, "4 cold + 4 warm + 4 pipelined");
    assert_eq!(status.queue_depth, 0, "nothing left queued");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_session_frame_poisons_only_its_request_id_never_the_connection() {
    let dir = temp_dir("poison");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    config.workers = 1;
    let server = Server::start(config).expect("daemon starts");
    let connection = ClientBuilder::new(server.local_addr())
        .connect()
        .expect("session connects");

    // A real request keeps the session busy while the damage lands.
    let first = connection
        .submit(&OptimizeRequest::table2("softmax", "ampere"))
        .expect("in-flight request");
    // Malformed-but-JSON: the id is salvageable, so exactly request 7 is
    // poisoned with a tagged BadRequest.
    let poisoned = connection.expect(7);
    connection
        .send_raw(br#"{"request_id": 7, "body": {"bogus": true}}"#)
        .expect("send malformed body");
    // Not JSON at all: unattributable, answered under the reserved id 0.
    let unattributed = connection.expect(cuasmrld::UNATTRIBUTED_REQUEST_ID);
    connection
        .send_raw(b"definitely not json")
        .expect("send garbage");

    // Both rejections arrive (out of order with the in-flight compute),
    // tagged with exactly the ids they poison.
    assert_eq!(
        expect_err(poisoned.wait().expect("poisoned answer")).code,
        ErrorCode::BadRequest
    );
    assert_eq!(
        expect_err(unattributed.wait().expect("unattributed answer")).code,
        ErrorCode::BadRequest
    );

    // The connection survived: the in-flight request completes, and fresh
    // submissions on the same session still serve.
    let healthy = expect_ok(first.wait().expect("in-flight answer"));
    assert!(healthy.report.verified);
    let after = expect_ok(
        connection
            .request(&OptimizeRequest::table2("bmm", "ampere"))
            .expect("post-damage request"),
    );
    assert_eq!(after.kernel, "bmm");
    assert_eq!(server.stats().rejected, 2, "exactly the two damaged frames");

    // The same damage as the *first* frame of a connection: the id is
    // salvageable, so it is a session frame — request 7 gets its tagged
    // BadRequest (not an untagged one the reader could never route) and
    // the session it opened keeps serving.
    let damaged_first = ClientBuilder::new(server.local_addr())
        .connect()
        .expect("second session connects");
    let poisoned = damaged_first.expect(7);
    damaged_first
        .send_raw(br#"{"request_id": 7, "body": {"bogus": true}}"#)
        .expect("send malformed body first");
    assert_eq!(
        expect_err(poisoned.wait().expect("poisoned first frame")).code,
        ErrorCode::BadRequest
    );
    let served = expect_ok(
        damaged_first
            .request(&OptimizeRequest::table2("softmax", "ampere"))
            .expect("the session outlives its damaged first frame"),
    );
    assert!(served.from_store);
    assert_eq!(server.stats().rejected, 3);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hostile_nesting_frame_is_a_typed_bad_request_not_a_daemon_abort() {
    // A megabyte of `[`, far under MAX_FRAME_LEN: without the parser's
    // depth bound it overflows the reader thread's stack, and a stack
    // overflow aborts the whole process.
    let dir = temp_dir("nesting");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(fast_config(&dir)).expect("daemon starts");
    let hostile = "[".repeat(1 << 20);

    let bare: OptimizeResponse = serde_json::from_str(&bare_exchange(
        server.local_addr(),
        &framed(hostile.as_bytes()),
    ))
    .expect("typed response");
    let err = expect_err(bare);
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(err.message.contains("nesting"), "{}", err.message);

    // Inside a session it is unattributable damage: answered under the
    // reserved id, and the session keeps serving.
    let connection = ClientBuilder::new(server.local_addr())
        .connect()
        .expect("session connects");
    connection.status().expect("session opens");
    let unattributed = connection.expect(cuasmrld::UNATTRIBUTED_REQUEST_ID);
    connection
        .send_raw(hostile.as_bytes())
        .expect("send hostile frame");
    let err = expect_err(unattributed.wait().expect("unattributed answer"));
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(err.message.contains("nesting"), "{}", err.message);
    assert_eq!(
        connection.status().expect("still serving").stats.rejected,
        2
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn framing_damage_closes_the_session_while_concurrent_sessions_keep_serving() {
    use std::io::{Read as _, Write as _};
    let dir = temp_dir("framing");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(fast_config(&dir)).expect("daemon starts");

    // Session A, spoken raw so the test controls framing exactly. A tagged
    // status probe opens it as a v2 session.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect A");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let probe = |id: u64| {
        serde_json::to_string(&TaggedRequest {
            request_id: id,
            body: RequestBody::Status(StatusRequest::new()),
        })
        .unwrap()
    };
    cuasmrld::write_frame(&mut raw, probe(1).as_bytes()).expect("first frame");
    let frame = cuasmrld::read_frame(&mut raw).expect("tagged answer");
    let tagged: TaggedResponse =
        serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(tagged.request_id, 1);

    // A frame delivered in two writes with a pause in between (longer than
    // the server's idle poll) still parses: only ABANDONED frames are
    // framing damage, slow ones are fine.
    let second = probe(2);
    let payload = second.as_bytes();
    let split = payload.len() / 2;
    raw.write_all(&u32::try_from(payload.len()).unwrap().to_be_bytes())
        .expect("prefix");
    raw.write_all(&payload[..split]).expect("first half");
    std::thread::sleep(Duration::from_millis(250));
    raw.write_all(&payload[split..]).expect("second half");
    let frame = cuasmrld::read_frame(&mut raw).expect("split frame answered");
    let tagged: TaggedResponse =
        serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(tagged.request_id, 2);

    // A concurrent session whose fate must stay independent of A's.
    let survivor = ClientBuilder::new(server.local_addr())
        .connect()
        .expect("connect B");

    // Truncation: promise 64 bytes, deliver 3, half-close. That is framing
    // damage — no request_id boundary left to trust — so session A closes.
    raw.write_all(&64u32.to_be_bytes()).expect("prefix");
    raw.write_all(b"{\"r").expect("torso");
    raw.shutdown(std::net::Shutdown::Write).expect("half close");
    let mut eof = [0u8; 1];
    assert_eq!(
        raw.read(&mut eof).expect("server closed A"),
        0,
        "a truncated frame is connection-fatal for its own session"
    );

    // Session B never noticed.
    let status = survivor.status().expect("session B still serves");
    assert!(status.stats.status_served >= 2);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_serves_by_deadline_rank_and_the_order_survives_arrival_permutation() {
    // One worker, and an injected stall on the gate request (ordinal 0)
    // long enough for the whole batch to pile into the admission queue
    // while it runs — so pop order, not arrival order, decides service
    // order. Telemetry appends in served order, which makes the manifest
    // the order witness. Expected rank order: rmsnorm (60 s) beats bmm
    // (80 s); fused_ff (80 s + priority 5 ⇒ effectively 75 s) slots
    // between them; no deadline serves last.
    let queued: [(&str, Option<u64>, Option<i32>); 4] = [
        ("rmsnorm", Some(60_000), None),
        ("bmm", Some(80_000), None),
        ("fused_ff", Some(80_000), Some(5)),
        ("mmLeakyReLu", None, None),
    ];
    let expected = ["softmax", "rmsnorm", "fused_ff", "bmm", "mmLeakyReLu"];
    for permutation in 0..2 {
        let dir = temp_dir(&format!("priority{permutation}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = fast_config(&dir);
        config.workers = 1;
        config.fault_plan = Some(FaultPlan::new(vec![InjectedFault {
            ordinal: 0,
            kind: FaultKind::SlowWorker { stall_ms: 1_500 },
        }]));
        let server = Server::start(config).expect("daemon starts");
        let connection = ClientBuilder::new(server.local_addr())
            .connect()
            .expect("session connects");
        let gate = connection
            .submit(&OptimizeRequest::table2("softmax", "ampere"))
            .expect("gate submit");
        // Let the single worker pick the gate up before the batch arrives,
        // so every batch request is queued behind the stall.
        std::thread::sleep(Duration::from_millis(400));
        let mut arrival: Vec<usize> = (0..queued.len()).collect();
        if permutation == 1 {
            arrival.reverse();
        }
        let mut handles = Vec::new();
        for &index in &arrival {
            let (kernel, deadline_ms, priority) = queued[index];
            let mut request = OptimizeRequest::table2(kernel, "ampere");
            request.deadline_ms = deadline_ms;
            request.priority = priority;
            handles.push(connection.submit(&request).expect("batch submit"));
        }
        for handle in handles {
            assert!(!expect_ok(handle.wait().expect("batch answer")).degraded);
        }
        expect_ok(gate.wait().expect("gate answer"));
        server.shutdown();

        let gpu = cuasmrl::cli::resolve_arch("ampere").unwrap().name;
        let manifest = cuasmrl::load_run_manifest(&dir, &gpu, cuasmrld::SERVICE_SUITE_LABEL)
            .expect("service manifest persisted");
        // Manifest entries carry the full spec name (kernel + shape); the
        // kernel prefix is the order witness.
        let served: Vec<&str> = manifest.kernels.iter().map(|k| k.kernel.as_str()).collect();
        assert_eq!(served.len(), expected.len());
        for (entry, kernel) in served.iter().zip(expected) {
            assert!(
                entry.starts_with(&format!("{kernel}_")),
                "served order must follow admission rank, independent of \
                 arrival order (permutation {permutation}): got {served:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_load_generator_proves_zero_failures_and_warm_phase_hit_economics() {
    let dir = temp_dir("load");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    config.workers = 4;
    let server = Server::start(config).expect("daemon starts");
    let mut spec = cuasmrld::LoadSpec::smoke("ampere");
    spec.clients = 4;
    spec.repeat_rounds = 3;
    let report = cuasmrld::run_load(server.local_addr(), &spec);
    assert_eq!(
        report.failed(),
        0,
        "burst must not drop requests: {report:?}"
    );
    assert_eq!(report.sent, 6 * 4);
    assert_eq!(report.ok, report.sent);
    assert_eq!(
        report.warm_hit_rate, 1.0,
        "every warm repeat must be a store hit: {report:?}"
    );
    // Telemetry manifest: one entry per answered request, keyed under the
    // service suite label. Store-hit records reach disk at the drain.
    let stats = server.shutdown();
    let gpu = cuasmrl::cli::resolve_arch("ampere").unwrap().name;
    let manifest = cuasmrl::load_run_manifest(&dir, &gpu, cuasmrld::SERVICE_SUITE_LABEL)
        .expect("service manifest persisted");
    assert_eq!(manifest.suite, cuasmrld::SERVICE_SUITE_LABEL);
    assert_eq!(manifest.kernels.len(), report.ok);
    assert_eq!(
        manifest
            .kernels
            .iter()
            .filter(|k| k.from_deploy_cache)
            .count() as u64,
        stats.store_hits
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_hit_publishes_no_telemetry_and_the_drain_keeps_every_record() {
    let dir = temp_dir("hit-telemetry");
    let _ = std::fs::remove_dir_all(&dir);
    let config = fast_config(&dir);
    let gpu = cuasmrl::cli::resolve_arch("ampere").unwrap().name;
    let manifest_path = dir.join(format!("{gpu}_service_telemetry.json"));
    let manifest = || {
        cuasmrl::load_run_manifest(&dir, &gpu, cuasmrld::SERVICE_SUITE_LABEL)
            .expect("service manifest persisted")
    };
    let request = OptimizeRequest::table2("softmax", "ampere");

    // A computed answer's record is on disk by the time its response
    // arrives: computes stay published while the daemon runs.
    let server = Server::start(config.clone()).expect("daemon starts");
    let client = Client::new(server.local_addr());
    assert!(!expect_ok(client.request(&request).expect("compute")).from_store);
    let computed = manifest();
    assert_eq!(computed.kernels.len(), 1);
    assert!(!computed.kernels[0].from_deploy_cache);
    let published = std::fs::read(&manifest_path).expect("manifest bytes");

    // Hits over every connection shape: bare one-shot frames, a session,
    // and a pipelined burst on one session.
    let decode = |bytes: Vec<u8>| -> OptimizeResponse {
        serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap()
    };
    let mut hits = 0;
    for _ in 0..2 {
        let bytes = client.request_bytes(&request).expect("one-shot hit");
        assert!(expect_ok(decode(bytes)).from_store);
        hits += 1;
    }
    let connection = ClientBuilder::new(server.local_addr())
        .connect()
        .expect("session connects");
    for _ in 0..2 {
        assert!(expect_ok(connection.request(&request).expect("session hit")).from_store);
        hits += 1;
    }
    let pipelined: Vec<cuasmrld::RequestHandle> = (0..3)
        .map(|_| connection.submit(&request).expect("pipelined submit"))
        .collect();
    for handle in pipelined {
        assert!(expect_ok(handle.wait().expect("pipelined hit")).from_store);
        hits += 1;
    }
    assert!(
        std::fs::read(&manifest_path).expect("manifest bytes") == published,
        "a store hit must not republish the telemetry manifest"
    );

    // The drain publishes every hit record, after the computed one.
    let stats = server.shutdown();
    assert_eq!(stats.store_hits, hits);
    let drained = manifest();
    assert_eq!(drained.kernels.len(), 1 + hits as usize);
    assert_eq!(drained.kernels[0], computed.kernels[0]);
    assert!(drained.kernels[1..].iter().all(|k| k.from_deploy_cache));

    // A restarted daemon seeds from the drained manifest and appends.
    let server = Server::start(config).expect("daemon restarts");
    let client = Client::new(server.local_addr());
    assert!(expect_ok(client.request(&request).expect("restart hit")).from_store);
    server.shutdown();
    let restarted = manifest();
    assert_eq!(restarted.kernels.len(), 2 + hits as usize);
    assert_eq!(
        restarted.kernels[..drained.kernels.len()],
        drained.kernels[..]
    );
    assert!(restarted.kernels.last().unwrap().from_deploy_cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw exchange on a fresh connection: `wire` is written as-is (so the
/// caller controls the framing), the answer frame is returned, and the
/// server must then close — a bare first frame is a one-request session.
fn bare_exchange(addr: std::net::SocketAddr, wire: &[u8]) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(wire).expect("send");
    let frame = cuasmrld::read_frame(&mut stream).expect("answer frame");
    let mut probe = [0u8; 1];
    assert_eq!(
        stream.read(&mut probe).expect("clean close"),
        0,
        "a bare-frame connection must close after its one exchange"
    );
    String::from_utf8(frame).expect("answers are UTF-8 JSON")
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    cuasmrld::write_frame(&mut wire, payload).unwrap();
    wire
}

#[test]
fn every_bare_first_frame_outcome_is_pinned_by_literal_bytes_and_closes_after_one_exchange() {
    // Response bytes captured at the commit before the v1 path was folded
    // into the session path (PR 23); the fold must leave every one of them
    // byte-identical. The `Ok` store-hit outcome is pinned by
    // `a_v1_client_frame_gets_byte_identical_v1_answers_…` above.
    let dir = temp_dir("golden");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(fast_config(&dir)).expect("daemon starts");
    let addr = server.local_addr();
    let oversized = (cuasmrld::MAX_FRAME_LEN + 1).to_be_bytes();
    let goldens: [(&str, Vec<u8>, &str); 7] = [
        (
            "status probe on a fresh daemon",
            framed(br#"{"protocol_version":1,"query":"status"}"#),
            concat!(
                r#"{"Status":{"protocol_version":1,"stats":{"requests":0,"store_hits":0,"#,
                r#""computed":0,"busy":0,"rejected":0,"deadline_expired":0,"preempted":0,"#,
                r#""degraded":0,"worker_panics":0,"status_served":1,"injected_faults":0,"#,
                r#""checksum_failures":0},"store":{"hits":0,"misses":0,"disk_hits":0,"#,
                r#""entries_in_memory":0,"skipped_at_open":0,"tmp_swept":0,"lru_bytes":0,"#,
                r#""checksum_failures":0,"journal_replayed":0,"journal_torn":0,"generation":1},"#,
                r#""workers":2,"queue_capacity":32,"queue_depth":0,"draining":false}}"#
            ),
        ),
        (
            "not JSON",
            framed(b"definitely not json"),
            concat!(
                r#"{"Err":{"code":"BadRequest","message":"invalid request JSON: "#,
                r#"unexpected Some('d') at offset 0","queue_depth":null}}"#
            ),
        ),
        (
            "not UTF-8",
            framed(b"\xff\xfe{}"),
            concat!(
                r#"{"Err":{"code":"BadRequest","message":"invalid request JSON: "#,
                r#"invalid utf-8 sequence of 1 bytes from index 0","queue_depth":null}}"#
            ),
        ),
        (
            "wrong protocol_version",
            framed(br#"{"protocol_version":99,"kernel":"softmax","arch":"ampere"}"#),
            concat!(
                r#"{"Err":{"code":"UnsupportedVersion","message":"protocol version 99 is not "#,
                r#"supported (this server speaks 2, and still accepts 1)","queue_depth":null}}"#
            ),
        ),
        (
            "unknown kernel",
            framed(br#"{"protocol_version":2,"kernel":"conv3d","arch":"ampere"}"#),
            concat!(
                r#"{"Err":{"code":"BadRequest","message":"unknown kernel `conv3d` (expected one "#,
                r#"of: bmm, fused_ff, flash-attention, mmLeakyReLu, softmax, rmsnorm)","#,
                r#""queue_depth":null}}"#
            ),
        ),
        (
            "deadline_ms = 0",
            framed(
                br#"{"protocol_version":2,"kernel":"fused_ff","arch":"ampere","deadline_ms":0}"#,
            ),
            concat!(
                r#"{"Err":{"code":"DeadlineExceeded","message":"deadline of 0 ms expired while "#,
                r#"queued","queue_depth":null}}"#
            ),
        ),
        (
            "oversized length prefix",
            oversized.to_vec(),
            concat!(
                r#"{"Err":{"code":"BadRequest","message":"malformed frame: frame length 16777217 "#,
                r#"exceeds MAX_FRAME_LEN (16777216)","queue_depth":null}}"#
            ),
        ),
    ];
    for (outcome, wire, golden) in &goldens {
        assert_eq!(bare_exchange(addr, wire), *golden, "{outcome}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // `Busy`: no workers and a one-slot queue, the slot taken by a parked
    // bare request that is never answered.
    let mut config = fast_config(&dir);
    config.workers = 0;
    config.queue_capacity = 1;
    let server = Server::start(config).expect("daemon starts");
    let addr = server.local_addr();
    let mut parked = TcpStream::connect(addr).expect("connect");
    let occupant = br#"{"protocol_version":2,"kernel":"bmm","arch":"ampere","seed":0}"#;
    cuasmrld::write_frame(&mut parked, occupant).expect("park a request");
    while server.queue_depth() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        bare_exchange(
            addr,
            &framed(br#"{"protocol_version":2,"kernel":"bmm","arch":"ampere","seed":1}"#)
        ),
        concat!(
            r#"{"Err":{"code":"Busy","message":"admission queue is full (1 pending); "#,
            r#"retry later","queue_depth":1}}"#
        ),
        "Busy from a full queue"
    );
    drop(parked);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
