//! Order statistics over raw samples.
//!
//! A tail is never the maximum of a handful of samples: [`tail`] reports the
//! highest percentile (up to a requested one) that still leaves at least
//! [`TAIL_BEYOND`] samples beyond it, and refuses when no percentile above
//! the median does.

/// Samples a reported tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// A tail percentile and how it was chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Nearest-rank percentile of `value`, in percent.
    pub pct: f64,
    /// Samples ranked beyond `value`.
    pub beyond: usize,
}

/// The highest nearest-rank percentile `≤ max_pct` that leaves at least
/// [`TAIL_BEYOND`] samples beyond it. `None` when that percentile would not
/// lie above the median — too few samples for any tail.
pub fn tail(xs: &[f64], max_pct: f64) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let want = ((max_pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let i = want.min(n - 1 - TAIL_BEYOND);
    let pct = (100.0 * (i + 1) as f64 / n as f64).min(max_pct);
    if pct <= 50.0 {
        return None;
    }
    Some(Tail {
        value: sorted(xs)[i],
        pct,
        beyond: n - 1 - i,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_always_leaves_ten_samples_beyond() {
        for n in 0..2000 {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % 1013) as f64).collect();
            for max_pct in [75.0, 90.0, 99.0, 99.9] {
                match tail(&xs, max_pct) {
                    Some(t) => {
                        assert!(t.beyond >= TAIL_BEYOND, "n={n} p{max_pct}: {t:?}");
                        assert!(t.pct > 50.0 && t.pct <= max_pct + 1e-9, "n={n}: {t:?}");
                        let above = xs.iter().filter(|&&x| x > t.value).count();
                        assert!(above <= t.beyond);
                    }
                    None => assert!(n <= 2 * TAIL_BEYOND + 1, "n={n} p{max_pct} has a tail"),
                }
            }
        }
    }

    #[test]
    fn tail_rule_matches_the_documented_ranks() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // 40 deltas: p75 is the highest percentile with ten samples beyond.
        let t = tail(&xs, 99.0).unwrap();
        assert_eq!((t.value, t.pct, t.beyond), (30.0, 75.0, 10));
        // Few samples: no tail at all, never the maximum.
        assert_eq!(tail(&xs[..12], 99.0), None);
        // Many samples: the requested percentile itself.
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&xs, 99.0).unwrap();
        assert_eq!((t.value, t.pct, t.beyond), (4950.0, 99.0, 50));
    }
}
