//! What a run prints: named metrics with units, the output checks, and
//! the provenance line. Rendering is by hand so every number keeps all
//! of its digits (`f64`'s `Display` is the shortest exact round trip).

use std::fmt::Write as _;

/// One named value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were recorded.
#[derive(Default)]
pub struct Metrics {
    pub items: Vec<Metric>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.items.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Output checks of one run. A failed check fails the command; its
/// metrics are never printed.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Requests (or solves) tried, and why each failure failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub rejected_queue_full: u64,
    pub rejected_tenant_queue_full: u64,
    pub rejected_bad_request: u64,
    pub rejected_shutdown: u64,
    pub not_converged: u64,
    pub anomaly: u64,
    pub timed_out: u64,
    pub dispatcher_lost: u64,
}

impl Tally {
    pub fn reasons(&self) -> [(&'static str, u64); 8] {
        [
            ("rejected_queue_full", self.rejected_queue_full),
            (
                "rejected_tenant_queue_full",
                self.rejected_tenant_queue_full,
            ),
            ("rejected_bad_request", self.rejected_bad_request),
            ("rejected_shutdown", self.rejected_shutdown),
            ("not_converged", self.not_converged),
            ("anomaly", self.anomaly),
            ("timed_out", self.timed_out),
            ("dispatcher_lost", self.dispatcher_lost),
        ]
    }

    pub fn failed(&self) -> u64 {
        self.reasons().iter().map(|(_, n)| n).sum()
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Adds another tally's counts to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_tenant_queue_full += other.rejected_tenant_queue_full;
        self.rejected_bad_request += other.rejected_bad_request;
        self.rejected_shutdown += other.rejected_shutdown;
        self.not_converged += other.not_converged;
        self.anomaly += other.anomaly;
        self.timed_out += other.timed_out;
        self.dispatcher_lost += other.dispatcher_lost;
    }

    pub fn reject(&mut self, reason: fun3d_serve::RejectReason) {
        use fun3d_serve::RejectReason::*;
        match reason {
            QueueFull => self.rejected_queue_full += 1,
            TenantQueueFull => self.rejected_tenant_queue_full += 1,
            BadRequest => self.rejected_bad_request += 1,
            Shutdown => self.rejected_shutdown += 1,
        }
    }

    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"attempted\":{},\"failed\":{},\"failed_frac\":{}",
            self.attempted,
            self.failed(),
            num(self.failed_frac())
        );
        for (k, v) in self.reasons() {
            let _ = write!(s, ",\"{k}\":{v}");
        }
        s.push('}');
        s
    }
}

/// A JSON number; non-finite values have no JSON form and become `null`
/// (the result line never carries one: see [`result_line`]).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and, only when every check passed, the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    if correct {
        for (i, m) in metrics.items.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            );
        }
    }
    s.push_str("}}");
    s
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_stay_json() {
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }

    #[test]
    fn failed_result_carries_no_metrics() {
        let mut m = Metrics::default();
        m.put("solve_s", 1.5, "s");
        assert_eq!(
            result_line(true, 2, 0, &m),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            result_line(false, 2, 1, &m),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
