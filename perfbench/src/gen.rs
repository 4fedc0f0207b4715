//! `gen`: the benchmark's seeded open-loop load generator inputs.
//!
//! Everything a run offers — which node sends each message, which
//! messages are `Safe`, and every payload byte — is a pure function of
//! the workload and the `--seed`, so the same seed offers the same inputs
//! and the checker can regenerate any payload to verify it.

use raincore::types::DeliveryMode;

/// SplitMix64: tiny, fast and good enough for input generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One offered multicast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Offer {
    /// Index in the offered sequence (also stamped into the payload).
    pub idx: u64,
    /// Sending node.
    pub origin: usize,
    /// Delivery mode.
    pub mode: DeliveryMode,
    /// Scheduled send time, nanoseconds after the phase start.
    pub due_ns: u64,
}

/// An open-loop schedule: evenly spaced arrivals at `rate` per second in
/// total, origins drawn as a seeded permutation of `origins` per block
/// (so each origin offers exactly `rate / origins` per second), and one
/// `Safe` message at a seeded position in every block of `safe_every`.
pub fn schedule(seed: u64, origins: usize, rate: f64, secs: f64, safe_every: u64) -> Vec<Offer> {
    let n = (rate * secs).round() as u64;
    let gap_ns = 1e9 / rate;
    let mut rng = Rng::new(seed ^ 0x005E_ED0F_0FFE);
    let mut perm: Vec<usize> = (0..origins).collect();
    let mut safe_at = 0;
    (0..n)
        .map(|idx| {
            let slot = (idx % origins as u64) as usize;
            if slot == 0 {
                // Fisher–Yates over the origins of this block.
                for i in (1..origins).rev() {
                    perm.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            if safe_every > 0 && idx % safe_every == 0 {
                safe_at = idx + rng.below(safe_every);
            }
            Offer {
                idx,
                origin: perm[slot],
                mode: if safe_every > 0 && idx == safe_at {
                    DeliveryMode::Safe
                } else {
                    DeliveryMode::Agreed
                },
                due_ns: (idx as f64 * gap_ns) as u64,
            }
        })
        .collect()
}

/// The `len`-byte payload of message `idx`: the index (LE) in the first
/// 8 bytes, seeded bytes after (`len` must be at least 8).
pub fn payload(seed: u64, idx: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&idx.to_le_bytes());
    let mut rng = Rng::new(seed.rotate_left(17) ^ idx.wrapping_mul(0xA24B_AED4_963E_E407));
    while out.len() < len {
        let w = rng.next_u64().to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&w[..take]);
    }
    out.truncate(len);
    out
}

/// The message index stamped into `p`, if it is long enough to hold one.
pub fn stamped_idx(p: &[u8]) -> Option<u64> {
    p.get(..8)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(7, 3, 3000.0, 1.0, 4);
        assert_eq!(a, schedule(7, 3, 3000.0, 1.0, 4));
        assert_ne!(a, schedule(8, 3, 3000.0, 1.0, 4));
        assert_eq!(a.len(), 3000);
        // Every origin offers exactly a third; exactly a quarter is Safe.
        for o in 0..3 {
            assert_eq!(a.iter().filter(|m| m.origin == o).count(), 1000);
        }
        let safe = a.iter().filter(|m| m.mode == DeliveryMode::Safe).count();
        assert_eq!(safe, 750);
        // Evenly spaced arrivals.
        assert_eq!(a[3].due_ns, 1_000_000);
    }

    #[test]
    fn payload_round_trips_its_index() {
        let p = payload(3, 42, 1024);
        assert_eq!(p.len(), 1024);
        assert_eq!(stamped_idx(&p), Some(42));
        assert_eq!(p, payload(3, 42, 1024));
        assert_ne!(p, payload(4, 42, 1024));
    }
}
