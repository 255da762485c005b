//! Small table/report infrastructure: build a table once, render it as
//! aligned text, Markdown, or CSV. Used by the `sweep` binary to emit
//! machine-readable data series for the figures in `EXPERIMENTS.md`.

/// A rectangular table of strings with a header row.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the row width differs from the header width.
    pub fn push<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (RFC-4180-ish: quotes fields containing commas,
    /// quotes, or newlines).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells.iter().map(|c| field(c)).collect();
            format!("{}\n", joined.join(","))
        };
        out.push_str(&line(&self.headers));
        for r in &self.rows {
            out.push_str(&line(r));
        }
        out
    }

    /// Renders as a GitHub-flavored Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("| {} |\n", self.headers.join(" | "));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }

    /// Renders as aligned plain text (right-aligned columns).
    pub fn to_text(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = width[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:>w$}", w = width[i]));
            }
            line.push('\n');
            line
        };
        let mut out = fmt_row(&self.headers);
        out.push_str(&format!("{}\n", "-".repeat(out.len().saturating_sub(1))));
        for r in &self.rows {
            out.push_str(&fmt_row(r));
        }
        out
    }
}

/// Renders an observability [`Snapshot`](pobp_core::obs::Snapshot) as three
/// aligned-text tables (counters, timers, events), in name order. Empty
/// sections are omitted; an entirely empty snapshot renders a hint that the
/// `instrument` feature is off.
pub fn obs_tables(snap: &pobp_core::obs::Snapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() {
        let mut t = Table::new(["counter", "value"]);
        for (name, v) in &snap.counters {
            t.push([name.to_string(), v.to_string()]);
        }
        out.push_str(&t.to_text());
    }
    if !snap.timers.is_empty() {
        let mut t = Table::new(["timer", "total_ms", "spans"]);
        for (name, s) in &snap.timers {
            t.push([
                name.to_string(),
                format!("{:.3}", s.total.as_secs_f64() * 1e3),
                s.spans.to_string(),
            ]);
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&t.to_text());
    }
    if !snap.events.is_empty() {
        let mut t = Table::new(["event", "count", "sum", "min", "max", "p50", "p90", "p99"]);
        for (name, e) in &snap.events {
            t.push([
                name.to_string(),
                e.count.to_string(),
                e.sum.to_string(),
                e.min.to_string(),
                e.max.to_string(),
                format!("{:.1}", e.quantile(0.50)),
                format!("{:.1}", e.quantile(0.90)),
                format!("{:.1}", e.quantile(0.99)),
            ]);
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&t.to_text());
    }
    if out.is_empty() {
        out.push_str(if pobp_core::obs::enabled() {
            "(no obs data recorded)\n"
        } else {
            "(obs disabled; rebuild with --features instrument)\n"
        });
    }
    out
}

/// Formats an `f64` compactly (trailing-zero-free, 4 significant decimals).
pub fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        let s = format!("{x:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["k", "price"]);
        t.push(["1", "2.5"]);
        t.push(["2", "1.7"]);
        t
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        assert_eq!(csv, "k,price\n1,2.5\n2,1.7\n");
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(["a", "b"]);
        t.push(["x,y", "he said \"hi\""]);
        assert_eq!(t.to_csv(), "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| k | price |\n|---|---|\n"));
        assert!(md.contains("| 1 | 2.5 |"));
    }

    #[test]
    fn text_alignment() {
        let mut t = Table::new(["name", "v"]);
        t.push(["long-name", "1"]);
        t.push(["x", "22"]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Columns align right.
        assert!(lines[2].starts_with("long-name"));
        assert!(lines[3].trim_start().starts_with("x"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push(["only-one"]);
    }

    #[test]
    fn num_formatting() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(2.5), "2.5");
        assert_eq!(num(1.0 / 3.0), "0.3333");
        assert_eq!(num(-4.0), "-4");
    }

    #[test]
    fn empty_table() {
        let t = Table::new(["a"]);
        assert!(t.is_empty());
        assert_eq!(t.to_csv(), "a\n");
    }

    #[test]
    fn obs_tables_rendering() {
        let mut snap = pobp_core::obs::Snapshot::default();
        snap.counters.insert("sched.edf.runs", 3);
        snap.events.insert(
            "sched.lsa_cs.class_size",
            pobp_core::obs::EventSnapshot {
                count: 2,
                sum: 7,
                min: 3,
                max: 4,
                ..Default::default()
            },
        );
        let text = obs_tables(&snap);
        assert!(text.contains("sched.edf.runs"));
        assert!(text.contains("sched.lsa_cs.class_size"));
        assert!(text.contains("p99"));

        let empty = obs_tables(&pobp_core::obs::Snapshot::default());
        assert!(empty.contains("obs"));
    }
}
