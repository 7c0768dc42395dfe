//! The benchmark's own rules: the quantile rule, due-time accounting,
//! seeded traffic, the `compare` verdicts, and `BENCHMARK.json` agreeing
//! with the metric table.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use frappe_benchmark::client::open_loop;
use frappe_benchmark::compare::{judge, Verdict};
use frappe_benchmark::metrics::{self, Bound, END_TO_END, PER_LAYER};
use frappe_benchmark::schedule::{
    classify_schedule, ingest_due, sample, window_steps, Planned, Step, Zipf,
};
use frappe_benchmark::stats::{reportable_rank, Histogram, Sliced};
use frappe_benchmark::workloads::{Workload, DEFAULT_SECONDS};
use frappe_serve::Verdict as ServeVerdict;
use osn_types::ids::AppId;

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    // p99 of 999 samples is rank 990, with 9 beyond it
    assert_eq!(reportable_rank(999, 0.99), None);
    assert_eq!(reportable_rank(1000, 0.99), Some(990));
    // p50 of 19 samples is rank 10, with 9 beyond it
    assert_eq!(reportable_rank(19, 0.5), None);
    assert_eq!(reportable_rank(20, 0.5), Some(10));
    assert_eq!(reportable_rank(0, 0.5), None);

    let mut h = Histogram::default();
    for v in 1..=999u64 {
        h.record(v * 1_000);
    }
    assert_eq!(h.quantile_us(0.99), None, "the histogram applies the rule");
    h.record(1_000_000);
    let p99 = h.quantile_us(0.99).expect("1000 samples support p99");
    assert!((p99 - 990.0).abs() < 990.0 * 0.008, "{p99}");

    // a slice too small for a p99 does not count towards the median
    let mut sliced = Sliced::default();
    sliced.add(&h);
    let mut small = Histogram::default();
    small.record(50_000_000);
    sliced.add(&small);
    assert_eq!(sliced.p99_us(), Some(p99));
}

/// A server that stalls `stall` after accepting, then answers every
/// request at once with a 200 verdict.
fn stalled_server(
    stall: Duration,
    requests: usize,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        std::thread::sleep(stall);
        let verdict = serde_json::to_string(&ServeVerdict {
            app: AppId(7),
            malicious: false,
            decision_value: -0.5,
            generation: 1,
            model_version: 1,
        })
        .expect("verdicts serialize");
        let response = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{verdict}",
            verdict.len()
        );
        let (mut seen, mut answered) = (Vec::new(), 0);
        let mut chunk = [0u8; 4096];
        while answered < requests {
            let n = conn.read(&mut chunk).expect("read");
            if n == 0 {
                break;
            }
            seen.extend_from_slice(&chunk[..n]);
            let complete = seen.windows(4).filter(|w| w == b"\r\n\r\n").count();
            for _ in answered..complete {
                conn.write_all(response.as_bytes()).expect("write");
            }
            answered = complete;
        }
    });
    (addr, handle)
}

#[test]
fn a_stall_is_charged_to_every_request_it_delays() {
    let stall = Duration::from_millis(150);
    let requests = 20;
    let (addr, server) = stalled_server(stall, requests);
    let gap = 10_000_000u64; // one request due every 10 ms
    let plan: Vec<Planned> = (0..requests as u64)
        .map(|k| Planned {
            due_ns: k * gap,
            app: 7,
            step: 0,
        })
        .collect();
    let steps = [Step {
        rate: 100.0,
        start_ns: 0,
        end_ns: requests as u64 * gap,
    }];
    let t0 = Instant::now();
    let report = open_loop(addr, &plan, &steps, t0).expect("open loop");
    server.join().expect("server");

    let stall_ns = stall.as_nanos() as u64;
    for (planned, outcome) in plan.iter().zip(&report.outcomes) {
        assert_eq!(outcome.status, 200);
        let sent = outcome.sent_ns.expect("sent");
        let done = outcome.done_ns.expect("answered");
        // the generator kept to its schedule: the server's stall did not
        // delay the sends, which the socket buffers absorbed
        assert!(
            sent - planned.due_ns < 20_000_000,
            "sent {}ms late",
            (sent - planned.due_ns) / 1_000_000
        );
        if planned.due_ns < stall_ns {
            // timed from the due time, each request pays what is left of
            // the stall when it was due; timed from the send it would not
            let latency = done - planned.due_ns;
            assert!(
                latency >= stall_ns - planned.due_ns,
                "request due at {}ms charged only {}ms",
                planned.due_ns / 1_000_000,
                latency / 1_000_000
            );
        }
    }
    assert_eq!(report.enqueued, requests);
    assert_eq!(report.stopped_at, None, "a base step never stops early");
}

#[test]
fn traffic_is_deterministic_per_seed() {
    let population: Vec<u64> = (1_000..3_000).collect();
    let steps = window_steps(DEFAULT_SECONDS);
    let a = classify_schedule(7, &population, &steps);
    assert_eq!(
        a,
        classify_schedule(7, &population, &steps),
        "same seed, same schedule"
    );
    assert_ne!(
        a,
        classify_schedule(8, &population, &steps),
        "another seed, another schedule"
    );

    // Poisson arrivals at each step's rate, in due order within the window
    for (index, step) in steps.iter().enumerate() {
        let n = a.iter().filter(|p| p.step == index).count() as f64;
        let expected = step.rate * (step.end_ns - step.start_ns) as f64 / 1e9;
        assert!(
            (n - expected).abs() < expected * 0.05,
            "step {index}: {n} vs {expected}"
        );
    }
    assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));

    // Zipf(1): the most popular app draws about 1 / H_n of the picks
    let mut counts = std::collections::HashMap::new();
    for p in &a {
        *counts.entry(p.app).or_insert(0usize) += 1;
    }
    let top = *counts.values().max().expect("picks") as f64 / a.len() as f64;
    let harmonic: f64 = (1..=population.len()).map(|k| 1.0 / k as f64).sum();
    assert!(
        (top - 1.0 / harmonic).abs() < 0.2 / harmonic,
        "top share {top}"
    );
    let zipf = Zipf::new(3, 1.0);
    assert_eq!((zipf.rank(0.0), zipf.rank(0.999_999)), (0, 2));

    assert_eq!(ingest_due(4, 100), vec![0, 25, 50, 75]);
    assert_eq!(sample(5, &population, 10), sample(5, &population, 10));
    assert_ne!(sample(5, &population, 10), sample(6, &population, 10));
}

#[test]
fn compare_verdicts_follow_the_rules() {
    let p50 = metrics::end_to_end("classify_p50_us").expect("metric"); // lower, 20%
    let verdict = |m, base: &[f64], new: &[f64]| judge(m, base, new).expect("values").3;
    let steady = [100.0, 101.0, 99.0, 100.5, 99.5];

    assert_eq!(verdict(p50, &steady, &steady), Verdict::NoWorse);
    let slower: Vec<f64> = steady.iter().map(|v| v * 1.3).collect();
    assert_eq!(verdict(p50, &steady, &slower), Verdict::Worse);
    let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
    assert_eq!(verdict(p50, &steady, &faster), Verdict::Better);
    // within the bound and inside the base's own spread: no claim either way
    let nudged: Vec<f64> = steady.iter().map(|v| v + 0.5).collect();
    assert_eq!(verdict(p50, &steady, &nudged), Verdict::NoWorse);
    // spread wider than the bound, runs overlapping: unresolved
    let noisy = [60.0, 140.0, 80.0, 120.0, 100.0];
    assert_eq!(verdict(p50, &steady, &noisy), Verdict::Unresolved);
    // ... unless every new run is worse than every base run
    let noisy_worse = [200.0, 300.0, 250.0, 400.0, 220.0];
    assert_eq!(verdict(p50, &steady, &noisy_worse), Verdict::Worse);

    // an absolute bound: fail_ratio may rise by at most 0.001
    let fail = metrics::end_to_end("fail_ratio").expect("metric");
    assert_eq!(verdict(fail, &[0.0; 3], &[0.0005; 3]), Verdict::NoWorse);
    assert_eq!(verdict(fail, &[0.0; 3], &[0.002; 3]), Verdict::Worse);

    // higher-is-better with a one-ladder-step bound
    let rps = metrics::end_to_end("max_rps_under_slo").expect("metric");
    assert_eq!(verdict(rps, &[2000.0; 5], &[1000.0; 5]), Verdict::NoWorse);
    assert_eq!(verdict(rps, &[2000.0; 5], &[500.0; 5]), Verdict::Worse);
    assert_eq!(verdict(rps, &[2000.0; 5], &[4000.0; 5]), Verdict::Better);
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let field = |v: &serde_json::Value, key: &str| {
        v.get_field(key).cloned().unwrap_or(serde_json::Value::Null)
    };
    let list = |key: &str| match field(&json, key) {
        serde_json::Value::Array(items) => items,
        other => panic!("{key} is not a list: {other:?}"),
    };
    let text_of = |v: &serde_json::Value, key: &str| field(v, key).as_str().expect(key).to_string();

    assert_eq!(field(&json, "run_seconds").as_u64(), Some(DEFAULT_SECONDS));
    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    let e2e = list("end_to_end");
    let gated: Vec<_> = END_TO_END.iter().filter(|m| m.gated).collect();
    assert_eq!(e2e.len(), gated.len());
    for (entry, metric) in e2e.iter().zip(gated) {
        assert_eq!(text_of(entry, "name"), metric.name);
        assert_eq!(text_of(entry, "unit"), metric.unit);
        assert_eq!(text_of(entry, "better"), metric.better.as_str());
        let Bound::Relative(bound) = metric.bound else {
            panic!("{} needs a relative bound", metric.name)
        };
        assert_eq!(
            field(entry, "bound").as_f64(),
            Some(bound),
            "{}",
            metric.name
        );
    }

    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, metric) in layers.iter().zip(PER_LAYER) {
        assert_eq!(text_of(entry, "name"), metric.name);
        assert_eq!(text_of(entry, "unit"), metric.unit);
        assert_eq!(text_of(entry, "better"), metric.better.as_str());
    }
}
