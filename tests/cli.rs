//! End-to-end tests of the `offtarget` binary, covering the JSON writer
//! regression: guide ids and contig names are arbitrary whitespace-free
//! tokens, so they must be escaped when interpolated into JSON output.

use crispr_offtarget::model::json::{self, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offtarget-cli-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const SPACER: &str = "GATTACAGATTACAGATTAC";

/// Writes a genome containing one exact site for [`SPACER`] (NGG PAM) on
/// a contig whose name needs JSON escaping, and a guide list whose id
/// needs JSON escaping.
fn write_workload(dir: &Path) -> (PathBuf, PathBuf) {
    let genome_path = dir.join("genome.fa");
    let guides_path = dir.join("guides.txt");
    fs::write(&genome_path, format!(">chr\"1\\weird\nTTTT{SPACER}TGGAAAACCCCGGGGTTTTACGT\n"))
        .expect("write genome");
    fs::write(&guides_path, format!("g\"1\\weird {SPACER} NGG\n")).expect("write guides");
    (genome_path, guides_path)
}

/// Runs `offtarget <cmd> <args>`; returns the exit code and stderr.
fn run_cli(cmd: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_offtarget"))
        .arg(cmd)
        .args(args)
        .output()
        .expect("run offtarget");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

/// Synthesizes a workload big enough to split into several chunks;
/// returns the genome and guide file paths.
fn write_chunked_workload(dir: &Path) -> (PathBuf, PathBuf) {
    let genome = dir.join("genome.fa");
    let guides = dir.join("guides.txt");
    let (code, stderr) = run_cli(
        "synth",
        &["--len", "30000", "--seed", "5", "--contigs", "2", "-o", genome.to_str().unwrap()],
    );
    assert_eq!(code, Some(0), "synth: {stderr}");
    let (code, stderr) = run_cli(
        "guides",
        &[
            "--count",
            "4",
            "--from-genome",
            genome.to_str().unwrap(),
            "--seed",
            "9",
            "-o",
            guides.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(0), "guides: {stderr}");
    (genome, guides)
}

/// The "N hits recovered" count an incomplete run names on stderr.
fn recovered_count(stderr: &str) -> usize {
    stderr
        .lines()
        .find_map(|l| l.split_once(" hits recovered")?.0.rsplit(['(', ' ']).next())
        .expect("stderr names the recovered hit count")
        .parse()
        .expect("recovered count parses")
}

fn run_search(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_offtarget"))
        .arg("search")
        .args(args)
        .output()
        .expect("run offtarget")
}

#[test]
fn json_output_escapes_ids_and_includes_metrics() {
    let dir = scratch("json");
    let (genome, guides) = write_workload(&dir);
    let hits_path = dir.join("hits.json");
    let output = run_search(&[
        "--genome",
        genome.to_str().unwrap(),
        "--guides",
        guides.to_str().unwrap(),
        "-k",
        "1",
        "--format",
        "json",
        "-o",
        hits_path.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let text = fs::read_to_string(&hits_path).expect("read hits");
    let value = json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON ({e}): {text}"));

    let hits = value.get("hits").and_then(Value::as_array).expect("hits array");
    assert!(!hits.is_empty(), "planted site not found");
    assert_eq!(
        hits[0].get("guide").and_then(Value::as_str),
        Some("g\"1\\weird"),
        "guide id must round-trip through escaping"
    );
    assert_eq!(hits[0].get("contig").and_then(Value::as_str), Some("chr\"1\\weird"));

    let metrics = value.get("metrics").expect("metrics block");
    let phases = metrics.get("phases").expect("phases");
    assert!(
        phases.get("kernel_scan_s").and_then(Value::as_f64).expect("kernel span") > 0.0,
        "kernel span must be populated"
    );
    let counters = metrics.get("counters").expect("counters");
    assert!(counters.get("windows_scanned").and_then(Value::as_f64).unwrap_or(0.0) > 0.0);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_get_a_did_you_mean_hint() {
    let output = run_search(&["--genom", "x.fa"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown flag --genom") && stderr.contains("did you mean --genome?"),
        "stderr: {stderr}"
    );

    // Far-off garbage gets no hint, just the rejection.
    let output = run_search(&["--zzzzzzzz", "1"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag --zzzzzzzz"), "stderr: {stderr}");
    assert!(!stderr.contains("did you mean"), "stderr: {stderr}");
}

#[test]
fn injected_capped_faults_heal_to_the_clean_hit_set() {
    let dir = scratch("inject-heal");
    let (genome, guides) = write_workload(&dir);
    let clean_path = dir.join("clean.tsv");
    let faulted_path = dir.join("faulted.tsv");
    let metrics_path = dir.join("metrics.json");
    let base = |out: &Path| {
        vec![
            "--genome".to_string(),
            genome.to_str().unwrap().to_string(),
            "--guides".to_string(),
            guides.to_str().unwrap().to_string(),
            "-k".to_string(),
            "1".to_string(),
            "--threads".to_string(),
            "2".to_string(),
            "-o".to_string(),
            out.to_str().unwrap().to_string(),
        ]
    };
    let clean_args = base(&clean_path);
    let output = run_search(&clean_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let mut faulted_args = base(&faulted_path);
    faulted_args.extend(
        ["--inject", "parallel.chunk=panic:1.0,7,2", "--metrics", metrics_path.to_str().unwrap()]
            .map(String::from),
    );
    let output = run_search(&faulted_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    // Healing is invisible in the output: identical hit files.
    let clean = fs::read_to_string(&clean_path).expect("clean hits");
    let faulted = fs::read_to_string(&faulted_path).expect("faulted hits");
    assert_eq!(clean, faulted, "faulted run must heal to the clean hit set");
    assert!(clean.lines().count() > 1, "workload must produce hits");

    // ... but visible in the metrics.
    let metrics = json::parse(&fs::read_to_string(&metrics_path).expect("metrics"))
        .expect("metrics JSON parses");
    let counters = metrics.get("counters").expect("counters");
    let counter = |name: &str| counters.get(name).and_then(Value::as_f64).expect(name);
    assert_eq!(counter("faults_injected"), 2.0);
    assert_eq!(counter("chunks_retried"), 2.0);
    assert_eq!(counter("chunks_failed"), 0.0);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_faults_exit_with_the_partial_code() {
    let dir = scratch("inject-partial");
    let (genome, guides) = write_workload(&dir);
    let output = run_search(&[
        "--genome",
        genome.to_str().unwrap(),
        "--guides",
        guides.to_str().unwrap(),
        "-k",
        "1",
        "--threads",
        "2",
        "--retries",
        "0",
        "--inject",
        "parallel.chunk=panic",
        "-o",
        dir.join("hits.tsv").to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(3), "partial results get exit code 3");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("partial result"), "stderr: {stderr}");
    assert!(stderr.contains("failed chunk"), "stderr: {stderr}");

    fs::remove_dir_all(&dir).ok();
}

/// `--threads 1` runs the same fenced, retrying scan as the fan-out, so
/// a persistent chunk fault is a partial result there too: exit 3 with
/// the (empty) recovered hits and every sidecar on disk.
#[test]
fn single_thread_persistent_faults_exit_3_with_outputs() {
    let dir = scratch("inject-partial-1t");
    let (genome, guides) = write_workload(&dir);
    let hits_path = dir.join("hits.tsv");
    let metrics_path = dir.join("metrics.json");
    let prom_path = dir.join("metrics.prom");
    let output = run_search(&[
        "--genome",
        genome.to_str().unwrap(),
        "--guides",
        guides.to_str().unwrap(),
        "--threads",
        "1",
        "--retries",
        "0",
        "--inject",
        "parallel.chunk=panic",
        "-o",
        hits_path.to_str().unwrap(),
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--prom",
        prom_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(3), "stderr: {stderr}");
    assert!(stderr.contains("failed chunk"), "stderr: {stderr}");
    let tsv = fs::read_to_string(&hits_path).expect("hits written");
    assert_eq!(tsv, "#guide\tcontig\tpos\tstrand\tmismatches\n", "the only chunk failed");
    let metrics = json::parse(&fs::read_to_string(&metrics_path).expect("metrics written"))
        .expect("metrics JSON parses");
    let counters = metrics.get("counters").expect("counters");
    let counter = |name: &str| counters.get(name).and_then(Value::as_f64).expect(name);
    assert_eq!(counter("chunks_failed"), 1.0);
    assert_eq!(counter("faults_injected"), 1.0);
    let prom = fs::read_to_string(&prom_path).expect("prom written");
    assert!(prom.contains("offtarget_chunks_failed_total 1"), "prom: {prom}");

    fs::remove_dir_all(&dir).ok();
}

/// The partial-results contract, end to end: an injected fault that
/// survives every retry must still leave the recovered hit TSV, the
/// `--metrics` JSON, and the `--prom` text on disk — all mutually
/// consistent — alongside exit code 3.
#[test]
fn partial_runs_still_write_hits_metrics_and_prom() {
    let dir = scratch("partial-outputs");
    let (genome, guides) = write_chunked_workload(&dir);

    let hits_path = dir.join("hits.tsv");
    let metrics_path = dir.join("metrics.json");
    let prom_path = dir.join("metrics.prom");
    // Exactly one chunk fails (one guaranteed fire, no retries).
    let (code, stderr) = run_cli(
        "search",
        &[
            "--genome",
            genome.to_str().unwrap(),
            "--guides",
            guides.to_str().unwrap(),
            "-k",
            "3",
            "--threads",
            "4",
            "--retries",
            "0",
            "--inject",
            "parallel.chunk=error:1.0,7,1",
            "-o",
            hits_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--prom",
            prom_path.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(3), "stderr: {stderr}");
    assert!(stderr.contains("partial result"), "stderr: {stderr}");
    assert!(stderr.contains("failed chunk"), "stderr: {stderr}");

    // stderr names the recovered count; the TSV must hold exactly that
    // many data rows.
    let recovered = recovered_count(&stderr);
    let tsv = fs::read_to_string(&hits_path).expect("partial run still writes the hit TSV");
    assert!(tsv.starts_with("#guide\tcontig\tpos\tstrand\tmismatches"), "tsv: {tsv}");
    let rows = tsv.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count();
    assert_eq!(rows, recovered, "TSV rows must match the reported recovery\n{tsv}");

    let metrics = json::parse(&fs::read_to_string(&metrics_path).expect("metrics written"))
        .expect("metrics JSON parses");
    let counters = metrics.get("counters").expect("counters");
    let counter = |name: &str| counters.get(name).and_then(Value::as_f64).expect(name);
    assert_eq!(counter("chunks_failed"), 1.0, "exactly the injected chunk failed");
    assert_eq!(counter("faults_injected"), 1.0);
    assert!(counter("chunks_retried") == 0.0, "retries were disabled");

    let prom = fs::read_to_string(&prom_path).expect("prom written");
    assert!(prom.contains("offtarget_chunks_failed_total 1"), "prom: {prom}");
    assert!(prom.contains("offtarget_faults_injected_total 1"), "prom: {prom}");

    fs::remove_dir_all(&dir).ok();
}

/// The `--timeout` contract, end to end: a run whose deadline trips
/// mid-scan exits 4 and still writes the recovered hits and every
/// requested sidecar, just as an exit-3 partial run does. Every chunk
/// stalls 100 ms on one thread against a 50 ms budget, so the trip is
/// deterministic with most chunks never started.
#[test]
fn timed_out_runs_exit_4_with_hits_and_every_sidecar() {
    let dir = scratch("timeout-outputs");
    let (genome, guides) = write_chunked_workload(&dir);
    let timed_out = |extra: &[&str]| {
        let mut args = vec![
            "--genome",
            genome.to_str().unwrap(),
            "--guides",
            guides.to_str().unwrap(),
            "-k",
            "3",
            "--threads",
            "1",
            "--shard",
            "2000",
            "--inject",
            "parallel.chunk=delay100",
            "--timeout",
            "0.05",
        ];
        args.extend_from_slice(extra);
        let (code, stderr) = run_cli("search", &args);
        assert_eq!(code, Some(4), "stderr: {stderr}");
        assert!(stderr.contains("deadline exceeded"), "stderr: {stderr}");
        stderr
    };

    let hits_path = dir.join("hits.tsv");
    let metrics_path = dir.join("metrics.json");
    let prom_path = dir.join("metrics.prom");
    let stderr = timed_out(&[
        "-o",
        hits_path.to_str().unwrap(),
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--prom",
        prom_path.to_str().unwrap(),
    ]);
    let recovered = recovered_count(&stderr);
    let tsv = fs::read_to_string(&hits_path).expect("a timed-out run still writes the hit TSV");
    assert!(tsv.starts_with("#guide\tcontig\tpos\tstrand\tmismatches\n"), "tsv: {tsv}");
    let rows = tsv.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(rows, recovered, "TSV rows must match the reported recovery\n{tsv}");

    // The two sidecars describe the same run: every counter of the
    // metrics JSON is the matching Prometheus counter.
    let metrics = json::parse(&fs::read_to_string(&metrics_path).expect("metrics written"))
        .expect("metrics JSON parses");
    let prom = fs::read_to_string(&prom_path).expect("prom written");
    let Some(Value::Object(counters)) = metrics.get("counters") else {
        panic!("metrics carry a counters object: {metrics:?}")
    };
    assert!(counters.get("windows_scanned").and_then(Value::as_f64) > Some(0.0));
    for (name, value) in counters {
        let value = value.as_f64().expect("numeric counter");
        let line = format!("offtarget_{name}_total {value}\n");
        assert!(prom.contains(&line), "prom lacks {line:?}:\n{prom}");
    }

    let json_path = dir.join("hits.json");
    timed_out(&["--format", "json", "-o", json_path.to_str().unwrap()]);
    let doc = json::parse(&fs::read_to_string(&json_path).expect("JSON written"))
        .expect("hits JSON parses");
    assert_eq!(doc.get("deadline_exceeded"), Some(&Value::Bool(true)));
    let number = |key: &str| doc.get(key).and_then(Value::as_f64).expect(key);
    assert!(number("chunks_scanned") < number("chunks_total"), "{doc:?}");
    assert!(doc.get("metrics").and_then(|m| m.get("counters")).is_some(), "{doc:?}");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_injection_specs_are_usage_errors() {
    // Bad --inject spec: rejected before any work happens.
    let output = run_search(&["--inject", "nonsense"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--inject"));

    // Bad OFFTARGET_INJECT: usage error (exit 2) for any subcommand.
    let output = Command::new(env!("CARGO_BIN_EXE_offtarget"))
        .arg("help")
        .env("OFFTARGET_INJECT", "bogus-spec")
        .output()
        .expect("run offtarget");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("OFFTARGET_INJECT"));
}

#[test]
fn a_bad_format_fails_before_the_scan_and_leaves_the_output_alone() {
    let dir = scratch("format");
    let (genome, guides) = write_workload(&dir);
    let out = dir.join("fmt.out");
    fs::write(&out, "previous answer\n").expect("seed output");
    let (code, stderr) = run_cli(
        "search",
        &[
            "--genome",
            genome.to_str().unwrap(),
            "--guides",
            guides.to_str().unwrap(),
            "--format",
            "xml",
            "-o",
            out.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("unknown format \"xml\""), "stderr: {stderr}");
    assert_eq!(fs::read_to_string(&out).expect("read output"), "previous answer\n");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_threads_and_zero_shard_are_rejected_like_other_bad_values() {
    let dir = scratch("zero");
    let (genome, guides) = write_workload(&dir);
    for (flag, message) in [("--threads", "--threads 0: "), ("--shard", "--shard 0: ")] {
        let (code, stderr) = run_cli(
            "search",
            &[
                "--genome",
                genome.to_str().unwrap(),
                "--guides",
                guides.to_str().unwrap(),
                flag,
                "0",
                "-o",
                dir.join("hits.tsv").to_str().unwrap(),
            ],
        );
        assert_eq!(code, Some(1), "{flag} 0 exits 1, not a panic: {stderr}");
        assert!(stderr.contains(message), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_writes_standalone_json() {
    let dir = scratch("metrics");
    let (genome, guides) = write_workload(&dir);
    let metrics_path = dir.join("metrics.json");
    let output = run_search(&[
        "--genome",
        genome.to_str().unwrap(),
        "--guides",
        guides.to_str().unwrap(),
        "-k",
        "1",
        "--platform",
        "cpu-cas-offinder",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "-o",
        dir.join("hits.tsv").to_str().unwrap(),
    ]);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let text = fs::read_to_string(&metrics_path).expect("read metrics");
    let value = json::parse(&text).expect("metrics JSON parses");
    assert_eq!(value.get("engine").and_then(Value::as_str), Some("cas-offinder-cpu"));
    let counters = value.get("counters").expect("counters");
    assert!(counters.get("pam_anchors_tested").and_then(Value::as_f64).is_some());

    fs::remove_dir_all(&dir).ok();
}
