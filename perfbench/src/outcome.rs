//! The result of one benchmark run and its JSON renderings.

use crate::stats::{json_num, json_str};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: program invocations and served requests.
    pub attempted: u64,
    /// Operations that exited non-zero, answered non-2xx, or produced a
    /// hit set different from the reference.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Labels describing what ran: engine, SIMD backend, nproc, …
    pub labels: Vec<(String, String)>,
    /// Generated-input properties (filled in by [`crate::run`]).
    pub inputs: Vec<(String, String)>,
    /// Free-form notes for the human-readable report.
    pub report: String,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome::default()
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn label(&mut self, key: &str, value: impl Into<String>) {
        self.labels.push((key.to_string(), value.into()));
    }

    /// Counts one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record: labels, input properties and the result.
    pub fn record_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let pairs = |list: &[(String, String)]| {
            list.iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_value(v)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"labels\": {{{}}}, \
             \"inputs\": {{{}}}, \"result\": {}}}",
            json_str(workload),
            pairs(&self.labels),
            pairs(&self.inputs),
            self.result_json()
        )
    }
}

/// Numbers stay numbers; everything else is quoted.
fn json_value(v: &str) -> String {
    if v.parse::<f64>().is_ok_and(f64::is_finite) {
        v.to_string()
    } else {
        json_str(v)
    }
}
