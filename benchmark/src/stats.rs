//! Order statistics and digests: pure functions over plain numbers and text.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a missing sample can never pass for a value.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a report may quote, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that still has at least ten samples beyond
/// it among `n` — a tail estimate resting on fewer is one or two outliers,
/// not a percentile. `None` below twenty samples (not even the median
/// qualifies).
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|p| (1.0 - p / 100.0) * n as f64 >= 10.0 - 1e-9)
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of an ordered text (the canonical recognition output): line count
/// and FNV-1a of the bytes.
pub fn text_digest(text: &str) -> String {
    format!("{}:{:016x}", text.lines().count(), fnv1a(text.as_bytes()))
}

/// Order-independent digest of a set of lines — equal to the digest of the
/// sorted lines for the purpose of "nothing lost, nothing altered", without
/// the sort: line count plus the wrapping sum of per-line hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineSet {
    pub lines: u64,
    sum: u64,
}

impl LineSet {
    pub fn of(bytes: &[u8]) -> LineSet {
        let mut set = LineSet::default();
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            set.lines += 1;
            set.sum = set.sum.wrapping_add(fnv1a(line));
        }
        set
    }

    pub fn merge(self, other: LineSet) -> LineSet {
        LineSet { lines: self.lines + other.lines, sum: self.sum.wrapping_add(other.sum) }
    }

    pub fn digest(&self) -> String {
        format!("{}:{:016x}", self.lines, self.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_pick_by_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
    }

    #[test]
    fn text_digest_pins_content_and_order() {
        let a = text_digest("{\"q\":1}\n{\"q\":2}\n");
        assert_eq!(a, text_digest("{\"q\":1}\n{\"q\":2}\n"));
        assert!(a.starts_with("2:"));
        assert_ne!(a, text_digest("{\"q\":2}\n{\"q\":1}\n"));
        assert_ne!(a, text_digest("{\"q\":1}\n{\"q\":3}\n"));
    }

    #[test]
    fn line_set_ignores_order_but_not_loss_or_change() {
        let a = LineSet::of(b"x\ny\nz\nx\ny\nz\n");
        assert_eq!(a, LineSet::of(b"z\nx\ny\n").merge(LineSet::of(b"y\nz\nx")));
        assert_eq!(a.lines, 6);
        assert_ne!(a, LineSet::of(b"x\ny\nx\ny\n"));
        assert_ne!(a, LineSet::of(b"x\ny\nw\nx\ny\nw\n"));
    }
}
