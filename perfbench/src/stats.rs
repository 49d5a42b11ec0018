//! Order statistics and the simulated-statistics digest.

use g80_sim::{KernelStats, StallReason};

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// A nearest-rank percentile together with the sample count it rests on.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the selected rank.
    pub beyond: usize,
}

/// The `p`-th percentile (0 < p ≤ 100) of `v` by the nearest-rank rule:
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(v: &[f64], p: f64) -> Pct {
    assert!(!v.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, s.len()) - 1;
    Pct {
        value: s[idx],
        samples: s.len(),
        beyond: s.len() - 1 - idx,
    }
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, if any.
pub fn highest_supported(v: &[f64]) -> Option<(f64, Pct)> {
    if v.is_empty() {
        return None;
    }
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .map(|p| (p, percentile(v, p)))
        .find(|(_, pct)| pct.beyond >= 10)
}

/// A bounded, evenly spaced subsample of a long sequence: every sample is
/// kept until `cap` are held, then every other one is dropped and only
/// every second later sample is kept, and so on. Memory stays fixed however
/// long the run, and the kept samples stay spread over the whole run.
pub struct Samples {
    kept: Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Samples {
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "a subsample needs room for two samples");
        Samples {
            kept: Vec::with_capacity(cap),
            cap,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
                if !self.seen.is_multiple_of(self.stride) {
                    self.seen += 1;
                    return;
                }
            }
            self.kept.push(v);
        }
        self.seen += 1;
    }

    pub fn values(&self) -> &[f64] {
        &self.kept
    }
}

impl Default for Samples {
    fn default() -> Self {
        Samples::new(1 << 17)
    }
}

/// FNV-1a over 64-bit words: a stable digest of simulated statistics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in the cycle, instruction, stall and transaction counts of one
    /// launch (or one application's aggregate).
    pub fn stats(&mut self, s: &KernelStats) {
        for w in [
            s.cycles,
            s.warp_instructions,
            s.thread_instructions,
            s.flops,
            s.global_ld_transactions,
            s.global_st_transactions,
            s.global_bytes,
            s.coalesced_half_warps,
            s.uncoalesced_half_warps,
            s.smem_conflict_extra_cycles,
            s.divergent_branches,
            s.tex_hits,
            s.tex_misses,
            s.const_hits,
            s.const_misses,
            s.atomic_transactions,
            s.blocks_executed,
        ] {
            self.word(w);
        }
        for r in STALLS {
            self.word(stall(s, r));
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Every stall reason, in reporting order.
pub const STALLS: [StallReason; 5] = [
    StallReason::Memory,
    StallReason::AluDependency,
    StallReason::Barrier,
    StallReason::IssueBusy,
    StallReason::Drain,
];

pub fn stall(s: &KernelStats, r: StallReason) -> u64 {
    s.stall_cycles.get(&r).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles_report_their_sample_count() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&v, 50.0);
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&v, 90.0);
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        let p99 = percentile(&v, 99.0);
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&v, 100.0).value, 100.0);
        // Small samples: the rank rounds up, never past the end.
        assert_eq!(percentile(&[5.0], 90.0).value, 5.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0).value, 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 90.0).value, 3.0);
    }

    #[test]
    fn subsample_stays_bounded_and_evenly_spaced() {
        let mut s = Samples::new(8);
        for i in 0..5 {
            s.push(i as f64);
        }
        assert_eq!(s.values(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut s = Samples::new(8);
        for i in 0..100 {
            s.push(i as f64);
        }
        // Stride 16 after four halvings: 0, 16, 32, ..., 96.
        assert_eq!(s.values(), &[0.0, 16.0, 32.0, 48.0, 64.0, 80.0, 96.0]);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, pct) = highest_supported(&v).unwrap();
        assert_eq!((p, pct.value), (90.0, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported(&v).unwrap().0, 99.0);
        assert!(highest_supported(&[1.0; 15]).is_none());
    }
}
