//! Sample summaries: medians, supported tails and failure shares.

/// Samples needed beyond a tail percentile for it to count as supported.
pub const TAIL_SUPPORT: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile with at least [`TAIL_SUPPORT`] samples beyond it:
/// the `(TAIL_SUPPORT + 1)`-th largest sample. Returns
/// `(percentile, value)`, the percentile being the share of samples at or
/// below the value; `None` when fewer than `TAIL_SUPPORT + 1` samples exist.
pub fn supported_tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_SUPPORT {
        return None;
    }
    let v = sorted(xs);
    let idx = n - 1 - TAIL_SUPPORT;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matched the reference.
    Correct,
    /// Answered, but the answer differed from the reference.
    Wrong,
    /// The program returned an error.
    Errored,
    /// Admission control turned the request away.
    Refused,
}

/// Tally of operation outcomes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Answers that differed from the reference.
    pub wrong: u64,
    /// Operations that returned an error.
    pub errored: u64,
    /// Operations refused by admission control.
    pub refused: u64,
}

impl Tally {
    /// Count one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Correct => {}
            Outcome::Wrong => self.wrong += 1,
            Outcome::Errored => self.errored += 1,
            Outcome::Refused => self.refused += 1,
        }
    }

    /// Operations that failed in any way: wrong, errored or refused.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errored + self.refused
    }

    /// Failed operations over attempted ones (0 when none were attempted).
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(supported_tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = supported_tail(&eleven).unwrap();
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_above() {
        // 200 shuffled samples 1..=200: the tail is the 190th value, the
        // 95th percentile, with 190..=200 minus itself = 10 beyond it.
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 200 + 1) as f64).collect();
        let (p, v) = supported_tail(&xs).unwrap();
        assert_eq!(v, 190.0);
        assert_eq!(p, 95.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_SUPPORT);
    }

    #[test]
    fn refused_ops_count_as_failures() {
        let mut t = Tally::default();
        for o in [
            Outcome::Correct,
            Outcome::Correct,
            Outcome::Refused,
            Outcome::Correct,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed(), 1);
        assert_eq!(t.fail_share(), 0.25);
    }

    #[test]
    fn every_failure_kind_counts_once() {
        let mut t = Tally::default();
        for o in [
            Outcome::Wrong,
            Outcome::Errored,
            Outcome::Refused,
            Outcome::Correct,
            Outcome::Correct,
        ] {
            t.record(o);
        }
        assert_eq!((t.wrong, t.errored, t.refused), (1, 1, 1));
        assert_eq!(t.fail_share(), 0.6);
        assert_eq!(Tally::default().fail_share(), 0.0);
    }
}
