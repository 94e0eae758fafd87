//! Order-independent deterministic sampling.
//!
//! The simulation must produce identical traffic whether sites are
//! crawled serially or across a crossbeam worker pool. Sequential RNG
//! streams break under reordering, so all per-entity randomness is
//! derived by *hashing* the entity's identity with the run seed:
//! SplitMix64 over the seed and the entity's bytes. The result is a
//! high-quality 64-bit value that is stable across runs, threads and
//! call order.

/// SplitMix64 finaliser: a fast, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash a byte string with a seed into a uniform u64.
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    // FNV-1a accumulate, SplitMix64 finalise per 8-byte lane.
    let mut h = splitmix64(seed ^ 0x51ab_c0de_51ab_c0de);
    for chunk in bytes.chunks(8) {
        let mut lane = [0u8; 8];
        lane[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(lane));
    }
    splitmix64(h ^ bytes.len() as u64)
}

/// Hash a string label with a seed.
pub fn hash_str(seed: u64, s: &str) -> u64 {
    hash_bytes(seed, s.as_bytes())
}

/// A streaming lane hasher: bytes written in any number of pieces are
/// cut into 8-byte little-endian lanes exactly as one contiguous
/// buffer would be, the last lane zero-padded. Callers hash a label
/// made of several parts (`"tcp:"`, an address, `":"`, a port)
/// without first formatting it into a `String`: [`LaneHasher::new`]
/// followed by [`LaneHasher::finish`] returns what [`hash_bytes`]
/// returns over the concatenation, and `write!` streams any
/// `Display` value in (the [`fmt::Write`](std::fmt::Write) impl).
///
/// The lane step is a parameter, so other lane-wise hashes (the
/// browser's per-visit label hash) share the buffering.
#[derive(Debug, Clone, Copy)]
pub struct LaneHasher {
    state: u64,
    step: fn(u64, u64) -> u64,
    lane: [u8; 8],
    fill: usize,
    len: u64,
}

impl LaneHasher {
    /// The [`hash_bytes`] lane hasher for `seed`.
    pub fn new(seed: u64) -> LaneHasher {
        LaneHasher::with_step(splitmix64(seed ^ 0x51ab_c0de_51ab_c0de), |h, lane| {
            splitmix64(h ^ lane)
        })
    }

    /// A lane hasher starting from `state` that folds each lane in
    /// with `step(state, lane)`.
    pub fn with_step(state: u64, step: fn(u64, u64) -> u64) -> LaneHasher {
        LaneHasher {
            state,
            step,
            lane: [0; 8],
            fill: 0,
            len: 0,
        }
    }

    /// Append bytes.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.fill > 0 {
            let take = bytes.len().min(8 - self.fill);
            self.lane[self.fill..self.fill + take].copy_from_slice(&bytes[..take]);
            self.fill += take;
            bytes = &bytes[take..];
            if self.fill < 8 {
                return;
            }
            self.state = (self.step)(self.state, u64::from_le_bytes(self.lane));
            self.fill = 0;
        }
        let mut lanes = bytes.chunks_exact(8);
        for lane in &mut lanes {
            let lane = u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
            self.state = (self.step)(self.state, lane);
        }
        let tail = lanes.remainder();
        self.lane[..tail.len()].copy_from_slice(tail);
        self.fill = tail.len();
    }

    /// The lane state after folding in the zero-padded partial lane,
    /// if any — the whole hash for lane-only hashes.
    pub fn finish_lanes(mut self) -> u64 {
        if self.fill > 0 {
            self.lane[self.fill..].fill(0);
            self.state = (self.step)(self.state, u64::from_le_bytes(self.lane));
        }
        self.state
    }

    /// The [`hash_bytes`] result: lanes, then the total length.
    pub fn finish(self) -> u64 {
        let len = self.len;
        splitmix64(self.finish_lanes() ^ len)
    }
}

impl std::fmt::Write for LaneHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// [`hash_str`] of the label `args` formats to, streamed through a
/// [`LaneHasher`]: `hash_fmt(seed, format_args!("dns:{name}"))` equals
/// `hash_str(seed, &format!("dns:{name}"))` without building the
/// `String`.
pub fn hash_fmt(seed: u64, args: std::fmt::Arguments<'_>) -> u64 {
    let mut h = LaneHasher::new(seed);
    std::fmt::Write::write_fmt(&mut h, args).expect("hashing never fails");
    h.finish()
}

/// A uniform sample in `[0, 1)` from an already-computed hash.
pub fn unit_of(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform sample in `[lo, hi)` from an already-computed hash.
pub fn range_of(hash: u64, lo: f64, hi: f64) -> f64 {
    lo + unit_of(hash) * (hi - lo)
}

/// A uniform sample in `[0, 1)` derived from a seed and a label.
pub fn unit(seed: u64, label: &str) -> f64 {
    unit_of(hash_str(seed, label))
}

/// A uniform sample in `[lo, hi)` derived from a seed and a label.
pub fn range(seed: u64, label: &str, lo: f64, hi: f64) -> f64 {
    range_of(hash_str(seed, label), lo, hi)
}

/// A Bernoulli trial with probability `p`, derived from seed + label.
pub fn coin(seed: u64, label: &str, p: f64) -> bool {
    unit(seed, label) < p
}

/// Pick an index in `0..n` (n > 0), derived from seed + label.
pub fn pick(seed: u64, label: &str, n: usize) -> usize {
    debug_assert!(n > 0);
    (hash_str(seed, label) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_str(42, "ebay.com"), hash_str(42, "ebay.com"));
        assert_eq!(unit(7, "x"), unit(7, "x"));
    }

    #[test]
    fn sensitive_to_seed_and_label() {
        assert_ne!(hash_str(1, "a"), hash_str(2, "a"));
        assert_ne!(hash_str(1, "a"), hash_str(1, "b"));
        // Length extension must matter.
        assert_ne!(hash_bytes(1, b"ab"), hash_bytes(1, b"ab\0"));
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        for i in 0..1000 {
            let u = unit(99, &format!("label-{i}"));
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn unit_is_roughly_uniform() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| unit(3, &format!("k{i}"))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let below_quarter =
            (0..n).filter(|i| unit(3, &format!("k{i}")) < 0.25).count() as f64 / n as f64;
        assert!((below_quarter - 0.25).abs() < 0.02, "{below_quarter}");
    }

    #[test]
    fn coin_respects_probability() {
        let n = 10_000;
        let hits = (0..n).filter(|i| coin(11, &format!("c{i}"), 0.1)).count() as f64 / n as f64;
        assert!((hits - 0.1).abs() < 0.02, "{hits}");
        assert!((0..100).all(|i| !coin(11, &format!("z{i}"), 0.0)));
        assert!((0..100).all(|i| coin(11, &format!("z{i}"), 1.0)));
    }

    #[test]
    fn pick_covers_domain() {
        let mut seen = [false; 7];
        for i in 0..500 {
            seen[pick(5, &format!("p{i}"), 7)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn range_bounds() {
        for i in 0..200 {
            let v = range(8, &format!("r{i}"), 20.0, 200.0);
            assert!((20.0..200.0).contains(&v));
        }
    }
}
