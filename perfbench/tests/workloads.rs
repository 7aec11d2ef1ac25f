//! Every workload on the tiny shape through the benchmark's own code
//! path, and proof that the hit-set check fails operations.

use perfbench::inputs::{self, Inputs};
use perfbench::program::Program;
use perfbench::{Outcome, RunConfig, Shape, Workload};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().expect("package has a parent").to_path_buf()
}

/// Builds `offtarget` once; serializes the tests, which share the trace
/// session and the machine's cores.
fn program() -> (MutexGuard<'static, ()>, Program) {
    static LOCK: Mutex<()> = Mutex::new(());
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let program = PROGRAM
        .get_or_init(|| {
            Program::build(&root(), PathBuf::from(env!("CARGO_BIN_EXE_perfbench")))
                .expect("offtarget builds")
        })
        .clone();
    (guard, program)
}

fn config(test: &str, workload: Workload, trace: bool) -> RunConfig {
    let root = root();
    RunConfig {
        work: root.join(".perfbench").join(format!("test-{test}")),
        root,
        workload,
        shape: Shape::tiny(workload),
        seed: 5,
        seconds: Duration::from_millis(300),
        trace,
    }
}

/// Metric names listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|chunk| chunk.split('"').nth(1).map(str::to_string))
        .collect()
}

fn assert_reports(outcome: &Outcome, section: &str) {
    let mut got: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let mut want = declared(section);
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "reported metrics differ from BENCHMARK.json {section}");
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        if section == "end_to_end" {
            assert!(m.value > 0.0, "{} = {}", m.name, m.value);
        }
    }
}

#[test]
fn every_workload_runs_untraced_and_traced() {
    let (_guard, program) = program();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = config("shapes", workload, trace);
            let outcome = perfbench::run(&cfg, &program).expect("run completes");
            assert!(outcome.correct(), "{} trace={trace}: {outcome:?}", workload.name());
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            assert_reports(&outcome, if trace { "per_layer" } else { "end_to_end" });
            let line = outcome.result_json();
            for key in ["\"correct\": true", "\"attempted\": ", "\"failed\": 0", "\"metrics\": {"] {
                assert!(line.contains(key), "{line}");
            }
            if trace {
                assert!(outcome.report.contains("share of"), "{}", outcome.report);
            }
            let labels: Vec<&str> = outcome.labels.iter().map(|(k, _)| k.as_str()).collect();
            assert!(labels.contains(&"engine") && labels.contains(&"simd_backend"), "{labels:?}");
        }
    }
}

/// Removes the `n`-th hit line from the expected output.
fn drop_hit(inputs: &mut Inputs, n: usize) {
    let text = String::from_utf8(inputs.reference_tsv.clone()).expect("utf-8");
    let kept: Vec<&str> =
        text.lines().enumerate().filter(|(i, _)| *i != n + 1).map(|(_, l)| l).collect();
    inputs.reference_tsv = format!("{}\n", kept.join("\n")).into_bytes();
    inputs.reference.remove(n);
}

#[test]
fn a_dropped_hit_fails_every_batch_operation() {
    let (_guard, program) = program();
    let cfg = config("drop", Workload::BatchFasta, false);
    let mut inputs = inputs::prepare(&cfg).expect("inputs");
    drop_hit(&mut inputs, 0);
    let outcome = perfbench::run_inputs(&cfg, &program, &inputs).expect("run completes");
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, outcome.attempted, "{outcome:?}");
    assert!(!outcome.correct());
}

#[test]
fn an_added_hit_fails_every_batch_operation() {
    let (_guard, program) = program();
    let cfg = config("add", Workload::BatchIndexDense, false);
    let mut inputs = inputs::prepare(&cfg).expect("inputs");
    let mut extra = *inputs.reference.last().expect("reference has hits");
    extra.pos += 1;
    inputs.reference.push(extra);
    let ids: Vec<&str> = inputs.guides.iter().map(|g| g.id()).collect();
    inputs.reference_tsv = inputs::render_tsv(&inputs.reference, &ids, &inputs.contig_names);
    let outcome = perfbench::run_inputs(&cfg, &program, &inputs).expect("run completes");
    // The index build of the set-up checks no hits; every search fails.
    let searches = outcome.attempted - cfg.shape.setup_reps as u64;
    assert!(searches > 0);
    assert_eq!(outcome.failed, searches, "{outcome:?}");
    assert!(!outcome.correct());
}

#[test]
fn a_dropped_hit_fails_the_requests_that_carry_its_guide() {
    let (_guard, program) = program();
    let cfg = config("serve-drop", Workload::ServeMixed, false);
    let mut inputs = inputs::prepare(&cfg).expect("inputs");
    let first = inputs.requests[0].clone();
    // Drop a hit the first request must return.
    let n = inputs
        .reference
        .iter()
        .position(|h| {
            first.guides.contains(&(h.guide as usize)) && h.mismatches as usize <= first.k
        })
        .expect("the first request has a hit");
    inputs.reference.remove(n);
    let outcome = perfbench::run_inputs(&cfg, &program, &inputs).expect("run completes");
    assert!(outcome.failed >= 1, "{outcome:?}");
    assert!(outcome.failed < outcome.attempted, "requests without that guide still pass");
}

#[test]
fn inputs_are_deterministic_per_seed() {
    let shape = Shape::tiny(Workload::ServeMixed);
    let cfg = config("determinism", Workload::ServeMixed, false);
    let a = inputs::prepare(&cfg).expect("inputs");
    let pool = a.guides.clone();
    let b = inputs::request_plan(&pool, &shape, cfg.seed);
    assert_eq!(a.requests.len(), b.len());
    assert!(a.requests.iter().zip(&b).all(|(x, y)| x.body == y.body && x.k == y.k));
    let other = inputs::request_plan(&pool, &shape, cfg.seed + 1);
    assert!(a.requests.iter().zip(&other).any(|(x, y)| x.body != y.body));
    let repeats = b.iter().take(1000).filter(|r| r.repeat).count();
    assert!((400..600).contains(&repeats), "about half repeat: {repeats}");
}
