//! The deterministic chaos harness: every fault a [`cuasmrld::FaultPlan`]
//! can inject — worker panics, slow workers racing deadlines — and every
//! drain must resolve to a typed response or a healed retry, never a hang
//! or a changed answer. Faults are keyed on request ordinals and requests
//! are sent sequentially from one client, so every run exercises exactly
//! the same failure at exactly the same request. Store damage is not
//! planned: it is injected as damaged entry bytes on disk (here, under a
//! live daemon, and in `tests/service.rs`, across restarts), and the
//! durability suite kills the store at every I/O operation.

use std::path::PathBuf;
use std::time::Duration;

use cuasmrl::Strategy;
use cuasmrld::{
    Client, ClientBuilder, ErrorCode, FaultKind, FaultPlan, InjectedFault, OptimizeRequest,
    OptimizeResponse, RetryPolicy, ScheduleStore, Server, ServerConfig, PROTOCOL_VERSION,
};
use gpusim::MeasureOptions;

fn temp_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cuasmrld-chaos-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

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

fn report_bytes(result: &cuasmrld::OptimizeResult) -> String {
    serde_json::to_string(&result.report).expect("report encodes")
}

#[test]
fn injected_store_faults_heal_by_recompute_without_changing_the_answer() {
    let dir = temp_dir("storefault");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    // One entry in memory: serving `other` evicts `request`'s entry, so its
    // next lookup reads the bytes on disk that the test damaged meanwhile.
    config.store_capacity = 1;
    let request = OptimizeRequest::table2("softmax", "ampere");
    let other = OptimizeRequest::table2("rmsnorm", "ampere");
    let canonical = request.canonicalize(&config.defaults()).expect("canonical");
    let path = {
        let store = ScheduleStore::open(&dir, 1).expect("open store");
        store.entry_path(&cuasmrld::RequestKey::of(&canonical))
    };
    let server = Server::start(config).expect("daemon starts");
    let client = Client::new(server.local_addr());

    let first = expect_ok(client.request(&request).expect("compute"));
    assert!(!first.from_store && !first.degraded);
    let sealed = std::fs::read(&path).expect("the entry is on disk");
    // Damaged bytes of the entry, injected while the daemon runs: a torn
    // write, then valid JSON whose report was edited after sealing.
    let mut edited = cuasmrld::decode_entry_bytes(&path, &sealed).expect("sealed entry decodes");
    edited.report.speedup += 1.0;
    let damages = [
        ("torn", sealed[..sealed.len() / 2].to_vec()),
        (
            "checksum mismatch",
            serde_json::to_string_pretty(&edited)
                .expect("entry encodes")
                .into_bytes(),
        ),
    ];
    for (label, damaged) in damages {
        expect_ok(client.request(&other).expect("evicting request"));
        std::fs::write(&path, damaged).expect("damage the entry");
        let healed = expect_ok(client.request(&request).expect("damaged lookup"));
        assert!(
            !healed.from_store,
            "{label}: a damaged lookup heals by recompute"
        );
        assert!(!healed.degraded, "{label}");
        assert_eq!(
            report_bytes(&healed),
            report_bytes(&first),
            "{label}: healing must not change the answer"
        );
        assert_eq!(
            std::fs::read(&path).expect("the healed entry is on disk"),
            sealed,
            "{label}: the recompute overwrites the damage with the sealed bytes"
        );
    }
    // With the damage healed the store answers again.
    let calm = expect_ok(client.request(&request).expect("healed repeat"));
    assert!(calm.from_store);
    assert_eq!(report_bytes(&calm), report_bytes(&first));

    let status = client.status().expect("status probe");
    assert_eq!(status.protocol_version, PROTOCOL_VERSION);
    assert_eq!(
        status.stats.injected_faults, 0,
        "store damage is not planned"
    );
    assert!(
        status.store.checksum_failures > 0,
        "the mismatch was counted"
    );
    assert_eq!(status.stats.requests, 6);
    assert_eq!(status.stats.computed, 4, "two heals recomputed");
    assert_eq!(status.stats.worker_panics, 0);
    assert!(!status.draining);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_injected_worker_panic_is_isolated_and_the_retry_heals() {
    let dir = temp_dir("panic");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    // One worker: if the panic killed the thread, the pool would be dead
    // and the retry below would hang instead of healing.
    config.workers = 1;
    config.fault_plan = Some(FaultPlan::new(vec![InjectedFault {
        ordinal: 0,
        kind: FaultKind::WorkerPanic,
    }]));
    let server = Server::start(config).expect("daemon starts");
    let client = Client::new(server.local_addr());
    let request = OptimizeRequest::table2("rmsnorm", "ampere");

    let error = expect_err(client.request(&request).expect("a typed reply, not a drop"));
    assert_eq!(error.code, ErrorCode::Internal);
    assert!(
        error.message.contains("recovered"),
        "the panic reply is sanitized: {}",
        error.message
    );

    // The same pool — the same single worker thread — serves the retry.
    let healed = expect_ok(
        client
            .request_with_retry(&request, &RetryPolicy::quick())
            .expect("retry heals"),
    );
    assert!(!healed.degraded);
    assert!(healed.report.verified);

    let status = client.status().expect("status probe");
    assert_eq!(status.stats.worker_panics, 1);
    assert_eq!(status.stats.computed, 1);
    assert_eq!(status.workers, 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_planned_fault_is_counted_once_when_its_worker_takes_the_job() {
    let dir = temp_dir("count");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    config.workers = 1;
    // Ordinal 0 panics in the worker; ordinal 1 computes the entry; the
    // stall planned at ordinal 2 never happens, because admission answers
    // that request from the store before any worker sees it.
    config.fault_plan = Some(FaultPlan::new(vec![
        InjectedFault {
            ordinal: 0,
            kind: FaultKind::WorkerPanic,
        },
        InjectedFault {
            ordinal: 2,
            kind: FaultKind::SlowWorker { stall_ms: 30_000 },
        },
    ]));
    let server = Server::start(config).expect("daemon starts");
    let client = Client::new(server.local_addr());
    let request = OptimizeRequest::table2("softmax", "ampere");

    let error = expect_err(client.request(&request).expect("ordinal 0"));
    assert_eq!(error.code, ErrorCode::Internal);
    assert_eq!(client.status().expect("status").stats.injected_faults, 1);

    let computed = expect_ok(client.request(&request).expect("ordinal 1"));
    assert!(!computed.from_store);
    let stored = expect_ok(client.request(&request).expect("ordinal 2"));
    assert!(stored.from_store && !stored.degraded);
    assert_eq!(report_bytes(&stored), report_bytes(&computed));

    let status = client.status().expect("status");
    assert_eq!(status.protocol_version, PROTOCOL_VERSION);
    assert_eq!(status.stats.requests, 3);
    assert_eq!(status.stats.worker_panics, 1);
    assert_eq!(
        status.stats.injected_faults, 1,
        "a fault planned for a store hit is not injected"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deadline_preempts_a_stalled_search_and_the_resume_reaches_the_full_answer() {
    let dir = temp_dir("preempt");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    config.strategy = Strategy::Rl(rl::PpoConfig {
        total_steps: 96,
        rollout_steps: 24,
        ..rl::PpoConfig::tiny()
    });
    config.workers = 1;
    // The stall dwarfs the deadline: the request's token fires mid-stall
    // and the search is preempted before finishing.
    config.fault_plan = Some(FaultPlan::new(vec![InjectedFault {
        ordinal: 0,
        kind: FaultKind::SlowWorker { stall_ms: 30_000 },
    }]));
    let server = Server::start(config.clone()).expect("daemon starts");
    let client = Client::new(server.local_addr());
    let mut deadlined = OptimizeRequest::table2("softmax", "ampere");
    deadlined.deadline_ms = Some(400);

    let partial = expect_ok(client.request(&deadlined).expect("degraded answer"));
    assert!(partial.degraded, "a preempted search answers best-so-far");
    assert!(!partial.from_store);

    // The degraded answer was never persisted, but the checkpoint was.
    let canonical = deadlined
        .canonicalize(&config.defaults())
        .expect("canonical");
    let key = cuasmrld::RequestKey::of(&canonical);
    {
        let store = ScheduleStore::open(&dir, 8).expect("open store");
        assert!(
            store.checkpoint_path(&key).exists(),
            "preemption persists the training checkpoint"
        );
        assert!(
            store.get(&key).expect("store readable").is_none(),
            "degraded answers never enter the store"
        );
    }
    let status = client.status().expect("status probe");
    assert_eq!(status.stats.preempted, 1);
    assert_eq!(status.stats.degraded, 1);

    // Re-asked without the deadline (and past the fault plan), the search
    // resumes from the checkpoint and converges to the byte-identical
    // answer of an uninterrupted direct run.
    let request = OptimizeRequest::table2("softmax", "ampere");
    let resumed = expect_ok(client.request(&request).expect("resumed answer"));
    assert!(!resumed.degraded && !resumed.from_store);
    let suite = config.suite_optimizer(canonical.gpu.clone(), canonical.seed);
    let optimizer = suite.optimizer_for(&canonical.spec);
    let (direct, _cubin, _telemetry) = optimizer.optimize_spec_instrumented(
        &canonical.spec,
        &suite.config_space_for(&canonical.spec),
        suite.tune_options(),
    );
    assert_eq!(
        serde_json::to_string(&resumed.report).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "checkpoint resume must converge to the uninterrupted answer"
    );
    {
        let store = ScheduleStore::open(&dir, 8).expect("open store");
        assert!(
            !store.checkpoint_path(&key).exists(),
            "a finished session cleans its checkpoint up"
        );
    }
    let warm = expect_ok(client.request(&request).expect("warm repeat"));
    assert!(warm.from_store);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_mid_burst_then_restart_completes_the_workload_byte_identically() {
    let kernels = ["softmax", "rmsnorm", "bmm", "fused_ff"];

    // Control: the same workload against an undisturbed daemon.
    let control_dir = temp_dir("drain-control");
    let _ = std::fs::remove_dir_all(&control_dir);
    let control: Vec<String> = {
        let server = Server::start(fast_config(&control_dir)).expect("control daemon");
        let client = Client::new(server.local_addr());
        let reports = kernels
            .iter()
            .map(|kernel| {
                report_bytes(&expect_ok(
                    client
                        .request(&OptimizeRequest::table2(*kernel, "ampere"))
                        .expect("control request"),
                ))
            })
            .collect();
        server.shutdown();
        reports
    };

    // Chaos: fire the burst concurrently and drain the daemon mid-flight.
    let dir = temp_dir("drain");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    config.workers = 2;
    let server = Server::start(config.clone()).expect("daemon starts");
    let addr = server.local_addr();
    let senders: Vec<_> = kernels
        .iter()
        .map(|kernel| {
            let request = OptimizeRequest::table2(*kernel, "ampere");
            std::thread::spawn(move || {
                Client::new(addr)
                    .with_timeout(Duration::from_secs(30))
                    .request(&request)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    for sender in senders {
        // Every burst request resolves — to a full answer, a degraded
        // preempted answer, a typed Busy, or a visible connection error a
        // retrying client would handle. Never a hang.
        match sender.join().expect("sender thread finishes") {
            Ok(OptimizeResponse::Ok(_)) => {}
            Ok(OptimizeResponse::Err(error)) => assert_eq!(error.code, ErrorCode::Busy),
            Ok(OptimizeResponse::Status(_)) => panic!("burst requests never answer status"),
            Err(_io_error_retried_below) => {}
        }
    }

    // Restart on the same store: the full workload completes with answers
    // byte-identical to the undisturbed control.
    let server = Server::start(config).expect("restarted daemon");
    let client = Client::new(server.local_addr());
    for (kernel, control_report) in kernels.iter().zip(&control) {
        let result = expect_ok(
            client
                .request_with_retry(
                    &OptimizeRequest::table2(*kernel, "ampere"),
                    &RetryPolicy::quick(),
                )
                .expect("post-restart request"),
        );
        assert!(!result.degraded);
        assert_eq!(
            report_bytes(&result),
            *control_report,
            "{kernel}: the restarted daemon must reproduce the control answer"
        );
    }
    assert!(!client.status().expect("status").draining);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

#[test]
fn a_slow_worker_stall_on_one_pipelined_request_never_delays_another() {
    let dir = temp_dir("pipestall");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    // Two workers and a long stall injected at the first request: if the
    // session serialized its pipeline behind the stalled worker — or the
    // response demux blocked on in-order completion — B's answer could not
    // arrive while A is still stalled.
    config.workers = 2;
    config.fault_plan = Some(FaultPlan::new(vec![InjectedFault {
        ordinal: 0,
        kind: FaultKind::SlowWorker { stall_ms: 2_500 },
    }]));
    let server = Server::start(config).expect("daemon starts");
    let connection = ClientBuilder::new(server.local_addr())
        .connect()
        .expect("session connects");

    let slow = connection
        .submit(&OptimizeRequest::table2("softmax", "ampere"))
        .expect("submit A");
    // Give the pool a beat to pick A up, then pipeline B behind it on the
    // same connection.
    std::thread::sleep(Duration::from_millis(150));
    let fast = connection
        .submit(&OptimizeRequest::table2("bmm", "ampere"))
        .expect("submit B");

    // B completes while A is still mid-stall: out-of-order delivery on one
    // session is what keeps one bad request from convoying the rest.
    let quick = expect_ok(
        fast.wait_timeout(Duration::from_millis(1_500))
            .expect("B answers while A stalls"),
    );
    assert_eq!(quick.kernel, "bmm");
    assert!(!quick.degraded);

    // A eventually finishes too — stalled, not lost.
    let stalled = expect_ok(
        slow.wait_timeout(Duration::from_secs(30))
            .expect("A answers"),
    );
    assert_eq!(stalled.kernel, "softmax");
    assert!(!stalled.degraded, "no deadline was set, so no preemption");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_seeded_fault_storm_resolves_every_request_with_a_retrying_client() {
    let dir = temp_dir("storm");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = fast_config(&dir);
    // Seeded, bounded chaos over the first 12 ordinals: same seed, same
    // storm, every run.
    config.fault_plan = Some(FaultPlan::seeded(0xC6A0, 6, 12));
    config.workers = 2;
    let server = Server::start(config).expect("daemon starts");
    let client = Client::new(server.local_addr()).with_timeout(Duration::from_secs(30));
    let policy = RetryPolicy::quick();

    let mut baseline: Vec<(u64, String)> = Vec::new();
    for round in 0..3u64 {
        for (i, kernel) in ["softmax", "rmsnorm", "bmm", "fused_ff"].iter().enumerate() {
            let mut request = OptimizeRequest::table2(*kernel, "ampere");
            request.seed = Some(i as u64);
            let result = expect_ok(
                client
                    .request_with_retry(&request, &policy)
                    .expect("the storm resolves every request"),
            );
            assert!(!result.degraded, "no deadlines set, so no preemption");
            if round == 0 {
                baseline.push((i as u64, report_bytes(&result)));
            } else {
                let (_, expected) = &baseline[i];
                assert_eq!(
                    report_bytes(&result),
                    *expected,
                    "{kernel}: answers stay identical through the storm"
                );
            }
        }
    }
    let status = client.status().expect("status probe");
    // The seed plans stalls at ordinals 1, 2, 3 (computed in round 0) and
    // 8 (a store hit in round 2, which no worker takes).
    assert_eq!(status.stats.injected_faults, 3, "the storm actually fired");
    assert_eq!(status.stats.requests, 12 + status.stats.worker_panics);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
