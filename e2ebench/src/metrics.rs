//! Metric names, units, and the result line.
//!
//! Every workload reports every metric, so that each one can be
//! compared workload by workload. Where a layer does no work on a
//! workload its per-layer metrics read 0.

use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured only with the benchmark's spans off.
pub const END_TO_END: [MetricDef; 7] = [
    m("setup_s", "s"),
    m("sweep_s", "s"),
    m("p50_us", "us"),
    m("p99_us", "us"),
    m("ops_per_s", "1/s"),
    m("peak_rss_mb", "MiB"),
    m("ok_ratio", "ratio"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [MetricDef; 41] = [
    m("experiments.cells", "count"),
    m("experiments.guest_runs", "count"),
    m("experiments.worker_busy", "ratio"),
    m("experiments.figures_s", "s"),
    m("suite.workload_s", "s"),
    m("dbt.run_s", "s"),
    m("dbt.noopt_s", "s"),
    m("dbt.base_s", "s"),
    m("dbt.ladder_s", "s"),
    m("dbt.guest_mips", "Minstr/s"),
    m("dbt.instructions", "count"),
    m("dbt.blocks_translated", "count"),
    m("dbt.regions_formed", "count"),
    m("dbt.profiling_ops", "count"),
    m("dbt.region_entries", "count"),
    m("dbt.side_exits", "count"),
    m("dbt.completion_ratio", "ratio"),
    m("optimizer.enqueued", "count"),
    m("optimizer.install_ratio", "ratio"),
    m("optimizer.queue_peak", "count"),
    m("trace.events", "count"),
    m("trace.retained", "count"),
    m("trace.export_s", "s"),
    m("trace.overhead", "ratio"),
    m("profile.analyze_s", "s"),
    m("profile.normalize_s", "s"),
    m("store.write_s", "s"),
    m("store.bytes_written", "bytes"),
    m("serve.memory_share", "ratio"),
    m("serve.disk_share", "ratio"),
    m("serve.computed_share", "ratio"),
    m("serve.coalesced_share", "ratio"),
    m("serve.memory_us_p50", "us"),
    m("serve.disk_us_p50", "us"),
    m("serve.computed_ms_p50", "ms"),
    m("serve.refused", "count"),
    m("serve.guest_runs", "count"),
    m("serve.gen_late_us_p99", "us"),
    m("bench.replay_s", "s"),
    m("bench.replay_ratio", "ratio"),
    m("bench.self_share_sum", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells or queries attempted.
    pub attempted: u64,
    /// Cells or queries that failed or produced a wrong output.
    pub failed: u64,
    /// Correctness failures beyond per-cell ones (figure tables that
    /// differ between repetitions), one line each.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of metric `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Sets the metrics every run ends with: `peak_rss_mb` and
    /// `ok_ratio`.
    ///
    /// # Errors
    ///
    /// When peak memory cannot be read.
    pub fn finish(&mut self) -> Result<(), String> {
        self.set("peak_rss_mb", crate::util::peak_rss_mb()?);
        self.set("ok_ratio", 1.0 - self.fail_ratio());
        Ok(())
    }

    /// Failed over attempted.
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable metric block: one `name = value unit` line
    /// per metric of `defs`.
    #[must_use]
    pub fn render(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let v = self.get(d.name).unwrap_or(0.0);
            let _ = writeln!(out, "  {:<26} = {v:.6} {}", d.name, d.unit);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of `defs` with its unit. Unset metrics read 0.
    #[must_use]
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
