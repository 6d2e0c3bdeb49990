//! The result line, the run record and the process facts they carry.

use std::fmt::Write as _;

/// Named metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Add one metric. A non-finite value is a harness bug.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one workload pass produced: the correctness verdict, counts and
/// the metrics to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

/// The last stdout line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.json()
    )
}

/// Ordered string facts about one run (plan, ISA, parameters, ...).
#[derive(Default)]
pub struct Record(Vec<(String, String)>);

impl Record {
    pub fn put(&mut self, key: &str, value: impl ToString) {
        self.0.push((key.to_string(), value.to_string()));
    }

    /// One JSON object line, `{"record": {...}}`.
    pub fn line(&self) -> String {
        let mut out = String::from("{\"record\": {");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push_str("}}");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding the working directory, from
/// `/proc/mounts` (longest matching mount point).
pub fn cwd_fs_type() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            cwd.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The git revision of the working directory, read from `.git` without
/// running git; "unknown" outside a git checkout.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Every per-layer figure of the traced run. A layer that does not run
/// in a workload reports 0 (the run record lists which).
#[derive(Default)]
pub struct LayerFigures {
    pub guard_us: f64,
    pub features_us: f64,
    pub process_us: f64,
    pub b1_us: f64,
    pub b64_row_us: f64,
    pub macs: f64,
    pub weight_bytes: f64,
    pub classify_us: f64,
    pub ncm_rows: f64,
    pub featurize_ms: f64,
    pub train_ms: f64,
    pub commit_ratio: f64,
    pub save_us: f64,
    pub load_us: f64,
    pub decode_us: f64,
    pub delta_bytes: f64,
    pub submit_us: f64,
    pub page_out_us: f64,
    pub mean_batch: f64,
    pub mean_batch_open: f64,
    pub hit_ratio: f64,
    pub rejected: f64,
    pub lag_p99_us: f64,
    pub eligible_ratio: f64,
    pub drift_alerts: f64,
    pub auto_recals: f64,
    pub recal_rollbacks: f64,
    pub stale_in_batch: f64,
    pub pretrain_s: f64,
    pub deploy_s: f64,
    pub register_s: f64,
    /// End-to-end p50 and p99 of the untraced pass, and p50 of the
    /// traced pass.
    pub e2e_p50_us: f64,
    pub e2e_p90_us: f64,
    pub e2e_p99_us: f64,
    /// Median update of the untraced pass, ms.
    pub e2e_update_ms: f64,
    pub traced_p50_us: f64,
    pub failed_ratio: f64,
}

impl LayerFigures {
    /// Emit every per-layer metric, in `BENCHMARK.json` order.
    pub fn put(&self, m: &mut Metrics) {
        let gmac_s = |us: f64| if us > 0.0 { self.macs / us / 1e3 } else { 0.0 };
        m.put("dsp.guard_us", self.guard_us, "us");
        m.put("dsp.features_us", self.features_us, "us");
        m.put("dsp.process_us", self.process_us, "us");
        m.put("embed.b1_us", self.b1_us, "us");
        m.put("embed.b1_gmac_s", gmac_s(self.b1_us), "GMAC/s");
        m.put("embed.b64_row_us", self.b64_row_us, "us");
        m.put("embed.b64_gmac_s", gmac_s(self.b64_row_us), "GMAC/s");
        m.put("embed.macs_per_window", self.macs, "count");
        m.put("embed.weight_bytes", self.weight_bytes, "B");
        m.put("ncm.classify_us", self.classify_us, "us");
        m.put("ncm.rows", self.ncm_rows, "count");
        m.put("update.featurize_ms", self.featurize_ms, "ms");
        m.put("update.train_ms", self.train_ms, "ms");
        m.put("update.commit_ratio", self.commit_ratio, "ratio");
        m.put("spool.save_us", self.save_us, "us");
        m.put("spool.load_us", self.load_us, "us");
        m.put("delta.decode_us", self.decode_us, "us");
        m.put("delta.bytes", self.delta_bytes, "B");
        m.put("fleet.submit_us", self.submit_us, "us");
        m.put("fleet.page_out_us", self.page_out_us, "us");
        m.put("fleet.mean_batch", self.mean_batch, "count");
        m.put("fleet.mean_batch_open", self.mean_batch_open, "count");
        m.put("fleet.hit_ratio", self.hit_ratio, "ratio");
        m.put("fleet.rejected", self.rejected, "count");
        m.put(
            "fleet.residual_us",
            self.e2e_p50_us - (self.process_us + self.b1_us + self.classify_us),
            "us",
        );
        m.put("gen.lag_p99_us", self.lag_p99_us, "us");
        m.put("heal.eligible_ratio", self.eligible_ratio, "ratio");
        m.put("heal.drift_alerts", self.drift_alerts, "count");
        m.put("heal.auto_recals", self.auto_recals, "count");
        m.put("heal.recal_rollbacks", self.recal_rollbacks, "count");
        m.put("heal.stale_in_batch", self.stale_in_batch, "count");
        m.put("setup.pretrain_s", self.pretrain_s, "s");
        m.put("setup.deploy_s", self.deploy_s, "s");
        m.put("setup.register_s", self.register_s, "s");
        m.put(
            "trace.overhead_ratio",
            if self.e2e_p50_us > 0.0 {
                self.traced_p50_us / self.e2e_p50_us
            } else {
                0.0
            },
            "ratio",
        );
        m.put("e2e.latency_p90_us", self.e2e_p90_us, "us");
        m.put("e2e.update_p50_ms", self.e2e_update_ms, "ms");
        m.put("e2e.latency_p99_us", self.e2e_p99_us, "us");
        m.put("failed_ratio", self.failed_ratio, "ratio");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.put("latency_p50_us", 12.5, "us");
        let line = result_line(&Outcome {
            attempted: 3,
            failed: 0,
            violations: Vec::new(),
            metrics,
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn record_escapes_quotes() {
        let mut r = Record::default();
        r.put("plan", "a \"b\"");
        assert_eq!(r.line(), "{\"record\": {\"plan\": \"a \\\"b\\\"\"}}");
    }
}
