//! Measurement helpers: in-memory spans, percentiles, and process
//! counters read from `/proc/self`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are microseconds since the run started.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
    /// True for a span whose bounds are computed from its siblings rather
    /// than timed (the `result` share of a query).
    derived: bool,
}

/// Spans kept in memory during the traced run and written out at its end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a timed span and returns its id (for children).
    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.push(name, op, parent, start_us, end_us, false)
    }

    /// Records a span whose bounds were computed, not timed.
    pub fn derived(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        self.push(name, op, parent, start_us, end_us, true)
    }

    fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_us: f64,
        end_us: f64,
        derived: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us,
            derived,
        });
        self.spans.len() - 1
    }

    /// Moves the end of a recorded span, for a parent recorded before
    /// its children.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_us = self.us(end);
    }

    /// Start of a recorded span, in microseconds since the run started.
    pub fn start_us(&self, id: usize) -> f64 {
        self.spans[id].start_us
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.1}, \"end_us\": {:.1}, \"derived\": {}}}",
                s.name, s.op, s.start_us, s.end_us, s.derived
            );
        }
        std::fs::write(path, out)
    }
}

/// Milliseconds elapsed between two instants.
pub fn ms(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e3
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Harrell–Davis estimate of the `p` quantile: a Beta-weighted average
/// of all order statistics, centred on rank `p(n+1)`. A single order
/// statistic of a few dozen samples jumps with the noise of whichever
/// sample lands on its rank; averaging the neighbouring ranks keeps a
/// run-to-run spread near that of the machine itself.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = inc_beta((i + 1) as f64 / n, a, b);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// `quantile` at the highest level not above `nominal` that leaves at
/// least ten samples beyond it; returns the estimate and that level.
pub fn percentile(v: &[f64], nominal: f64) -> (f64, f64) {
    let n = v.len() as f64;
    let level = if n > 10.0 {
        nominal.min((n - 10.0) / n)
    } else {
        nominal
    };
    (quantile(v, level), level)
}

/// Regularized incomplete beta function `I_x(a, b)` (continued fraction,
/// as in Numerical Recipes' `betai`).
fn inc_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(x, a, b) / a
    } else {
        1.0 - front * beta_cf(1.0 - x, b, a) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        h *= d * c;
        if (d * c - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection keeps the series in its accurate range.
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

fn proc_field(file: &str, key: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{file}: no {key} field"))
}

/// Bytes this process has read and written through system calls
/// (`rchar`, `wchar`), page-cache hits included.
pub fn io_bytes() -> Result<(u64, u64), String> {
    Ok((
        proc_field("/proc/self/io", "rchar:")?,
        proc_field("/proc/self/io", "wchar:")?,
    ))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(proc_field("/proc/self/status", "VmHWM:")? as f64 / 1024.0)
}

/// Total size of the regular files under a directory.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_uniform_ranks() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 50.0).abs() < 1e-6);
        let p90 = quantile(&v, 0.9);
        assert!((p90 - 90.0).abs() < 0.5, "{p90}");
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        let (_, level) = percentile(&v, 0.99);
        assert!((level - 0.8).abs() < 1e-12);
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x and I_x(2, 1) = x².
        assert!((inc_beta(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((inc_beta(0.3, 2.0, 1.0) - 0.09).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
    }
}
