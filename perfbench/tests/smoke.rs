//! Tiny-scale runs of every workload with all output checks on, on the
//! default seed and on a held-out seed, untraced and traced.

use coserve_perfbench::harness::{Config, Outcome};
use coserve_perfbench::{spec, workloads};

/// The default benchmark seed.
const SEED: u64 = 1;
/// A seed never used while the benchmark was tuned.
const HELD_OUT: u64 = 20_261_017;

/// Input sizes small enough for a test yet large enough for the checks
/// to mean what they say: at a few dozen requests per paper task the
/// cold-load floor hides CoServe's switch savings, and the engine's
/// in-system count needs several hundred simulated seconds to reach its
/// stationary level before the backlog guard can compare two halves.
fn scale(workload: &str) -> f64 {
    match workload {
        "paper_sweep" | "engine_stream" => 0.25,
        "cluster_failover" => 0.1,
        _ => 0.05,
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = Config {
        seed,
        seconds: 0.0,
        trace,
        scale: scale(workload),
        setups: 1,
    };
    workloads::run(workload, &cfg).expect("known workload")
}

fn assert_correct(o: &Outcome) {
    let failed: Vec<String> = o
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect();
    assert!(
        o.correct(),
        "{} failed {} of {}: {failed:?}",
        o.workload,
        o.failed,
        o.attempted
    );
    assert!(o.attempted >= 1);
}

fn untraced_checks_pass(workload: &str) {
    let a = run(workload, SEED, false);
    assert_correct(&a);
    for m in spec::END_TO_END {
        let v = a.metrics[m.name];
        assert!(v.is_finite() && v > 0.0, "{workload} {} = {v}", m.name);
    }
    // Same seed, separate run: the simulated outputs repeat exactly.
    let b = run(workload, SEED, false);
    assert_eq!(a.digest, b.digest, "{workload} digest moved between runs");
    let held = run(workload, HELD_OUT, false);
    assert_correct(&held);
}

fn traced_run_reports_every_layer(workload: &str) {
    let o = run(workload, SEED, true);
    assert_correct(&o);
    assert!(o
        .checks
        .iter()
        .any(|c| c.name == "digest identical untraced vs traced" && c.ok));
    for m in spec::PER_LAYER {
        let v = o.metrics[m.name];
        assert!(v.is_finite(), "{workload} {} = {v}", m.name);
    }
    assert_eq!(o.metrics["server.protocol_errors"], 0.0);
    // The wire decomposition adds up: mean service time per frame plus
    // codec time per frame plus the socket/hand-off share is the frame
    // round trip.
    let m = &o.metrics;
    let service = (m["service.submit_us"] + m["service.pump_us"] + m["service.poll_us"]) / 3.0;
    let codec = (m["protocol.encode_ns"] + m["protocol.decode_ns"]) / 1e3;
    let sum = service + codec + m["server.overhead_us"];
    assert!(
        (sum - m["server.frame_rtt_us"]).abs() < 1e-6,
        "{sum} vs {}",
        m["server.frame_rtt_us"]
    );
}

#[test]
fn engine_stream_checks_pass() {
    untraced_checks_pass("engine_stream");
}

#[test]
fn paper_sweep_checks_pass() {
    untraced_checks_pass("paper_sweep");
}

#[test]
fn cluster_failover_checks_pass() {
    untraced_checks_pass("cluster_failover");
}

#[test]
fn wire_closed_checks_pass() {
    untraced_checks_pass("wire_closed");
}

#[test]
fn engine_stream_traced() {
    traced_run_reports_every_layer("engine_stream");
}

#[test]
fn paper_sweep_traced() {
    traced_run_reports_every_layer("paper_sweep");
}

#[test]
fn cluster_failover_traced() {
    traced_run_reports_every_layer("cluster_failover");
}

#[test]
fn wire_closed_traced() {
    traced_run_reports_every_layer("wire_closed");
}

#[test]
fn seeds_change_the_inputs() {
    assert_ne!(
        run("engine_stream", SEED, false).digest,
        run("engine_stream", HELD_OUT, false).digest
    );
}

#[test]
fn unknown_workload_is_refused() {
    assert!(workloads::run(
        "nope",
        &Config {
            seed: 1,
            seconds: 0.0,
            trace: false,
            scale: 0.01,
            setups: 1,
        }
    )
    .is_none());
}
