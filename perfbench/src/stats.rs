//! Summary statistics shared by every workload: percentiles under the
//! "ten samples beyond" rule, guarded ratios, and span self times.

/// The percentile ladder a timing may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] that leaves at least ten samples
/// beyond it out of `n`, or `None` when even the median does not.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` (0–100) of `values`, or `None` when the
/// sample is too small for `p` to have ten samples beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if highest_percentile(values.len()).is_none_or(|top| p > top) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[(sorted.len() - 1) / 2])
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One closed span: kind, parent index, and interval in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was recorded at.
    pub kind: u8,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in nanoseconds since the trace origin.
    pub start: u64,
    /// Duration in nanoseconds.
    pub dur: u32,
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Self time of every span: its duration minus the durations of its
/// direct children. Children always close inside their parent, so the
/// result is never negative for a well-formed trace; a negative value
/// (clamped to 0 and counted) flags overlapping or mis-parented spans.
pub fn self_times(spans: &[Span]) -> (Vec<u64>, usize) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur as u64;
        }
    }
    let mut malformed = 0;
    let selfs = spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| {
            if c > s.dur as u64 {
                malformed += 1;
            }
            (s.dur as u64).saturating_sub(c)
        })
        .collect();
    (selfs, malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(9), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 99.9), None);
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_guards_zero_denominators() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |kind, parent, start, dur| Span {
            kind,
            parent,
            start,
            dur,
        };
        // cycle [0,100) ⊃ turn [10,60) ⊃ respond [20,50); oneway [70,80).
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 50),
            span(2, 1, 20, 30),
            span(3, 0, 70, 10),
        ];
        let (selfs, malformed) = self_times(&spans);
        assert_eq!(selfs, vec![40, 20, 30, 10]);
        assert_eq!(malformed, 0);
        assert_eq!(selfs.iter().sum::<u64>(), 100, "self times tile the root");

        let bad = [span(0, NO_PARENT, 0, 10), span(1, 0, 0, 20)];
        assert_eq!(self_times(&bad), (vec![0, 20], 1));
    }
}
