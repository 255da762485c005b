//! Prometheus text exposition (version 0.0.4) for the daemon's live
//! telemetry.
//!
//! [`Prom`] renders metric families as `# HELP` / `# TYPE` header pairs
//! followed by their samples, with label values escaped per the spec (`\\`,
//! `\"`, `\n`) and non-finite values spelled `NaN`, `+Inf`, `-Inf`. It is
//! hand-rolled and std-only, like [`json`](crate::json).
//!
//! The daemon exports cumulative counters and instantaneous levels only;
//! a reader derives rates over its own interval (Prometheus with `rate()`,
//! `pobp-client top` from two consecutive reads), so no reader's view
//! depends on how often another one reads. Everything here is wall-clock
//! telemetry: it never feeds logical traces, job results, or durable bytes.
//! Unlike the `obs` counters and the trace recorder, it is in every build:
//! it renders on request, per scrape, never on a hot path.

/// The `Content-Type` a scrape endpoint should serve for [`Prom`] output.
pub const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escapes a label *value* per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value: integers render without a fractional part,
/// non-finite values use the spec spellings (`NaN`, `+Inf`, `-Inf`).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf".to_string() } else { "-Inf".to_string() }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Builder for a Prometheus text exposition body.
///
/// Call [`header`](Prom::header) once per metric family, then
/// [`sample`](Prom::sample) for each (possibly labelled) series of that
/// family; [`finish`](Prom::finish) yields the body.
#[derive(Debug, Default)]
pub struct Prom {
    out: String,
}

impl Prom {
    /// An empty exposition.
    pub fn new() -> Self {
        Prom::default()
    }

    /// Emits the `# HELP` / `# TYPE` pair for a metric family. `kind` is
    /// `"counter"` or `"gauge"`.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) -> &mut Self {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        // HELP text escapes only backslash and newline.
        for c in help.chars() {
            match c {
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c => self.out.push(c),
            }
        }
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
        self
    }

    /// Emits one sample line, with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                self.out.push_str(&escape_label(v));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&fmt_value(value));
        self.out.push('\n');
        self
    }

    /// The exposition body accumulated so far.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_exposition_shape_and_label_escaping() {
        let mut p = Prom::new();
        p.header("pobp_serve_jobs_done_total", "counter", "Jobs finished.")
            .sample("pobp_serve_jobs_done_total", &[("alg", "reduction")], 3.0)
            .sample("pobp_serve_jobs_done_total", &[("alg", "a\"b\\c\nd")], 1.0);
        p.header("pobp_serve_queue_depth", "gauge", "Queued jobs.")
            .sample("pobp_serve_queue_depth", &[], 2.5);
        let body = p.finish();
        assert_eq!(
            body,
            "# HELP pobp_serve_jobs_done_total Jobs finished.\n\
             # TYPE pobp_serve_jobs_done_total counter\n\
             pobp_serve_jobs_done_total{alg=\"reduction\"} 3\n\
             pobp_serve_jobs_done_total{alg=\"a\\\"b\\\\c\\nd\"} 1\n\
             # HELP pobp_serve_queue_depth Queued jobs.\n\
             # TYPE pobp_serve_queue_depth gauge\n\
             pobp_serve_queue_depth 2.5\n"
        );
    }

    #[test]
    fn value_formatting_covers_integers_floats_and_non_finite() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(-7.0), "-7");
        assert_eq!(fmt_value(0.125), "0.125");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
    }
}
