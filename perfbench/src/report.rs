//! Collects a run's metrics, sample counts and output checks, and renders
//! the final result line.

use crate::stats;

/// One run's findings.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Sample count behind every percentile, keyed by metric name.
    samples: Vec<(String, usize)>,
    /// Extra provenance fields (worker count, seed, sizes), as JSON values.
    context: Vec<(String, String)>,
    /// Output checks that failed, with what was seen.
    failures: Vec<String>,
    /// Operations attempted and failed, as each workload defines them.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records percentile `p` of `samples` (scaled by `scale`) with its
    /// sample count; too few samples for the rank rule is a failed check.
    pub fn put_percentile(
        &mut self,
        name: &str,
        samples: &[f64],
        p: f64,
        scale: f64,
        unit: &'static str,
    ) {
        self.samples.push((name.to_string(), samples.len()));
        match stats::percentile(samples, p) {
            Some(v) => self.put(name, v * scale, unit),
            None => self.fail(format!(
                "{name}: {} samples, the rank rule needs {}",
                samples.len(),
                stats::min_samples(p)
            )),
        }
    }

    /// Records the mean over `blocks` of each block's percentile `p`
    /// (scaled by `scale`), weighted by the blocks' sample counts. A block
    /// with too few samples for the rank rule is left out; a run where
    /// every block is left out fails the check.
    pub fn put_block_percentile(
        &mut self,
        name: &str,
        blocks: &[Vec<f64>],
        p: f64,
        scale: f64,
        unit: &'static str,
    ) {
        let kept: Vec<(usize, f64)> = blocks
            .iter()
            .filter_map(|b| stats::percentile(b, p).map(|v| (b.len(), v)))
            .collect();
        let n: usize = kept.iter().map(|&(n, _)| n).sum();
        self.samples.push((name.to_string(), n));
        if kept.is_empty() {
            let most = blocks.iter().map(Vec::len).max().unwrap_or(0);
            self.fail(format!(
                "{name}: no block has enough samples ({most} at most, the rank rule needs {})",
                stats::min_samples(p)
            ));
            return;
        }
        let sum: f64 = kept.iter().map(|&(n, v)| n as f64 * v).sum();
        self.put(name, sum / n as f64 * scale, unit);
    }

    /// Records the traced run's reconciliation: Σ stage self-times over
    /// the traced end-to-end time must lie within ±10 %.
    pub fn put_stage_sum_ratio(&mut self, ratio: f64) {
        self.put("trace.stage_sum_ratio", ratio, "ratio");
        self.check((0.9..=1.1).contains(&ratio), || {
            format!("traced stage self-times sum to {ratio:.3} of the traced end-to-end time (want 0.9..1.1)")
        });
    }

    /// Records a provenance field (a JSON value).
    pub fn context(&mut self, key: &str, json_value: String) {
        self.context.push((key.to_string(), json_value));
    }

    /// Records a failed output check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Checks `ok`, recording `what` on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Keeps only metrics whose names `keep` accepts (the end-to-end set
    /// for an untraced run, the per-layer set for a traced one).
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.metrics.retain(|(n, _, _)| keep(n));
    }

    /// Looks up a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Takes in a probe's findings: metrics this report lacks, the probe's
    /// failed checks, and its context under a `probe.` prefix.
    pub fn absorb_probe(&mut self, probe: Report) {
        for m in probe.metrics {
            if self.get(&m.0).is_none() {
                self.metrics.push(m);
            }
        }
        self.failures
            .extend(probe.failures.into_iter().map(|f| format!("probe: {f}")));
        self.samples.extend(
            probe
                .samples
                .into_iter()
                .map(|(n, c)| (format!("probe.{n}"), c)),
        );
        self.context.extend(
            probe
                .context
                .into_iter()
                .map(|(k, v)| (format!("probe.{k}"), v)),
        );
    }

    /// Human-readable lines: every metric with its unit, then the sample
    /// counts behind percentiles.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (n, v, u) in &self.metrics {
            out.push_str(&format!("{n:<44} {v:>16.4} {u}\n"));
        }
        for (n, c) in &self.samples {
            out.push_str(&format!("samples[{n}] = {c}\n"));
        }
        out
    }

    /// The provenance line: host record, run context and sample counts.
    pub fn render_provenance(&self, host: &[(&'static str, String)]) -> String {
        let mut fields: Vec<String> = host
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        fields.extend(
            self.context
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_string(k))),
        );
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(n, c)| format!("{}: {c}", json_string(n)))
            .collect();
        fields.push(format!(
            "\"percentile_samples\": {{{}}}",
            samples.join(", ")
        ));
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }

    /// The result line the benchmark ends with.
    pub fn render_result(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_string(n),
                    json_string(u)
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
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
