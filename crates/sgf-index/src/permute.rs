//! Seedable pseudorandom permutations with O(1) random access.
//!
//! The early-termination knob `max_check_plausible` of the privacy test
//! (Section 5) examines a *random subset* of the seed dataset so the cap does
//! not bias which records get counted.  The naive implementation shuffles an
//! index vector per candidate — an O(n) allocation on the hottest path of the
//! generator.  This module replaces it with a [Feistel-network] permutation
//! over `[0, n)`: both the *position* of an index inside the permutation and
//! the index *at* a given position are computable in O(1), so
//!
//! * a linear scan can enumerate the first `cap` positions lazily,
//! * an indexed store can test membership of a posting-list survivor in the
//!   examined subset without ever materialising the permutation, and
//! * a store that names the exact plausible set counts how many of its
//!   members fall in the subset in blocks of `u32` lanes
//!   ([`RandomSubset::count_members`]): the first Feistel pass, and on a
//!   sparse domain the first cycle-walk passes, are masked select loops over
//!   the whole block, with no per-member branch, and on a CPU with AVX2 the
//!   same kernel runs in a build compiled for it —
//!
//! and, crucially, all three see **the same subset** for the same seed, which
//! is what keeps every store byte-identical in its accept/reject decisions.
//! Which build counts, and how many passes are masked, changes only the
//! speed: the count is `min(|members ∩ subset|, limit)` either way.
//!
//! [Feistel-network]: https://en.wikipedia.org/wiki/Feistel_cipher

/// Number of Feistel rounds.  Four rounds of a keyed mixing function are
/// enough for statistical (non-cryptographic) de-biasing of the visit order.
const ROUNDS: usize = 4;

/// Lanes per block of [`RandomSubset::count_members`]: enough independent
/// Feistel passes in flight to fill the vector lanes, few enough that the
/// early exit at the count limit wastes little work.
const BLOCK: usize = 32;

/// Cycle-walk passes [`RandomSubset::count_members`] runs over every lane of
/// a block, when the Feistel domain is sparse enough to need them, before it
/// walks the remaining lanes one by one.
const MASKED_WALKS: usize = 3;

/// A keyed pseudorandom permutation of `[0, n)` built from a balanced Feistel
/// network over the smallest even-bit-width domain covering `n`, narrowed to
/// `[0, n)` by cycle-walking.
///
/// Both directions are O(1) amortized: the Feistel domain is at most `4n`, so
/// cycle-walking takes fewer than 4 extra steps in expectation.  The domain
/// is at most 2³², so a Feistel half is at most 16 bits and every value fits
/// a `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexPermutation {
    n: u64,
    half_bits: u32,
    half_mask: u32,
    /// Round keys, folded to the 32 bits the round function reads (see
    /// [`round`](Self::round)).
    keys: [u32; ROUNDS],
}

/// SplitMix64 step — the standard stateless seed expander.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl IndexPermutation {
    /// A permutation of `[0, n)` keyed by `seed`.  Different seeds give
    /// (statistically) unrelated permutations; the same seed always gives the
    /// same permutation.
    ///
    /// # Panics
    /// Panics if `n > 2³²`.
    pub fn new(n: usize, seed: u64) -> Self {
        let n = n as u64;
        assert!(n <= 1 << 32, "permutation domain {n} exceeds 2^32");
        // Smallest *even* bit width whose domain covers n, so the Feistel
        // halves are balanced.  Domain size is at most 4n.
        let bits = 64 - n.saturating_sub(1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let mut state = seed;
        let mut keys = [0u32; ROUNDS];
        for key in &mut keys {
            let wide = splitmix64(&mut state);
            *key = wide as u32 ^ (wide >> 16) as u32;
        }
        IndexPermutation {
            n,
            half_bits,
            half_mask: (1u32 << half_bits) - 1,
            keys,
        }
    }

    /// Number of elements the permutation acts on.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether the permutation is over the empty domain.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Keyed round function, masked to one Feistel half: the 64-bit mix
    /// `z = (r ^ k) ^ (r ^ k) >> 16; z *= 0x45d9_f3b5_3c4b_a1a9;
    /// (z ^ z >> 15) & mask` of the 64-bit round key `k`, computed on the
    /// 32 bits it reads.  A half is at most 16 bits, so the masked result
    /// reads product bits 0..=30, which depend only on the low 32 bits of
    /// both factors; with `r < 2¹⁶` those of the first are `r` xor the
    /// folded key `k ^ k >> 16`.
    #[inline(always)]
    fn round(&self, r: u32, key: u32) -> u32 {
        let z = (r ^ key).wrapping_mul(0x3c4b_a1a9);
        (z ^ (z >> 15)) & self.half_mask
    }

    /// One pass of the Feistel network over the full `2 * half_bits` domain.
    #[inline(always)]
    fn encrypt_once(&self, x: u32) -> u32 {
        let mut l = (x >> self.half_bits) & self.half_mask;
        let mut r = x & self.half_mask;
        for &key in &self.keys {
            let next = l ^ self.round(r, key);
            l = r;
            r = next;
        }
        (l << self.half_bits) | r
    }

    /// Inverse of [`encrypt_once`](Self::encrypt_once).
    fn decrypt_once(&self, x: u32) -> u32 {
        let mut l = (x >> self.half_bits) & self.half_mask;
        let mut r = x & self.half_mask;
        for &key in self.keys.iter().rev() {
            let prev = r ^ self.round(l, key);
            r = l;
            l = prev;
        }
        (l << self.half_bits) | r
    }

    /// Position of `index` inside the permutation (`σ(index)`), in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `index >= n`.
    pub fn position(&self, index: usize) -> usize {
        assert!(
            (index as u64) < self.n,
            "index {index} out of range 0..{}",
            self.n
        );
        // Cycle-walking: the Feistel network permutes the power-of-two domain;
        // repeatedly re-encrypting values that land outside [0, n) restricts
        // it to a permutation of [0, n).  The walk terminates because the
        // orbit through `index` re-enters [0, n) (it contains `index` itself).
        let mut x = self.encrypt_once(index as u32);
        while u64::from(x) >= self.n {
            x = self.encrypt_once(x);
        }
        x as usize
    }

    /// The index at position `rank` of the permutation (`σ⁻¹(rank)`).
    ///
    /// # Panics
    /// Panics if `rank >= n`.
    pub fn at_rank(&self, rank: usize) -> usize {
        assert!(
            (rank as u64) < self.n,
            "rank {rank} out of range 0..{}",
            self.n
        );
        let mut x = self.decrypt_once(rank as u32);
        while u64::from(x) >= self.n {
            x = self.decrypt_once(x);
        }
        x as usize
    }
}

/// A pseudorandom `cap`-element subset of `[0, n)`: the first `cap` positions
/// of an [`IndexPermutation`].
///
/// Supports O(1) membership tests ([`contains`](Self::contains)), lazy
/// enumeration ([`iter`](Self::iter)) and block counting
/// ([`count_members`](Self::count_members)) — the access patterns of the
/// inverted-index, linear-scan, and exact-set (prefix and class) paths.
#[derive(Debug, Clone, Copy)]
pub struct RandomSubset {
    perm: IndexPermutation,
    cap: usize,
}

impl RandomSubset {
    /// The subset holding the `cap` indices ranked first by the permutation of
    /// `[0, n)` keyed with `seed` (`cap` is clamped to `n`).
    pub fn new(n: usize, cap: usize, seed: u64) -> Self {
        RandomSubset {
            perm: IndexPermutation::new(n, seed),
            cap: cap.min(n),
        }
    }

    /// Number of indices in the subset.
    pub fn len(&self) -> usize {
        self.cap
    }

    /// Whether the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.cap == 0
    }

    /// Whether `index` belongs to the subset.
    pub fn contains(&self, index: usize) -> bool {
        index < self.perm.len() && self.perm.position(index) < self.cap
    }

    /// Enumerate the subset in permutation-rank order (the "visit order" of
    /// the linear scan).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cap).map(move |rank| self.perm.at_rank(rank))
    }

    /// How many of `members` the subset contains, capped at `limit`:
    /// `min(members.filter(contains).count(), limit)`, the same count for
    /// any order of `members`.
    ///
    /// Members are taken 32 at a time as `u32` lanes.  Every lane gets one
    /// Feistel pass.  When at least a quarter of the Feistel domain lies
    /// outside `[0, n)`, three cycle-walk passes follow that re-encrypt all
    /// lanes and keep the result only where the lane is still outside —
    /// select loops with no branch, which the compiler runs on wide vector
    /// lanes.  Only the few lanes still outside after them are walked
    /// further, from a work list compacted without branches; a partial last
    /// block is counted member by member.  On a CPU with AVX2 the same kernel
    /// runs in a build compiled for it.  The result does not depend on the
    /// build or the passes: counting returns `limit` at the first block that
    /// reaches it.
    pub fn count_members(&self, members: &[u32], limit: usize) -> usize {
        self.count_members_avx2(members, limit)
            .unwrap_or_else(|| self.count_lanes(members, limit))
    }

    /// [`count_members`](Self::count_members) in the AVX2 build, or `None`
    /// when this CPU has no AVX2.
    #[cfg(target_arch = "x86_64")]
    fn count_members_avx2(&self, members: &[u32], limit: usize) -> Option<usize> {
        if !std::is_x86_feature_detected!("avx2") {
            return None;
        }
        // SAFETY: `count_lanes_avx2` only needs the CPU to support AVX2,
        // which the check above established.
        Some(unsafe { self.count_lanes_avx2(members, limit) })
    }

    /// Without x86-64 there is no AVX2 build.
    #[cfg(not(target_arch = "x86_64"))]
    fn count_members_avx2(&self, _members: &[u32], _limit: usize) -> Option<usize> {
        None
    }

    /// [`count_lanes`](Self::count_lanes) compiled with AVX2 enabled; the
    /// CPU running it must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn count_lanes_avx2(&self, members: &[u32], limit: usize) -> usize {
        self.count_lanes(members, limit)
    }

    /// The lane kernel behind [`count_members`](Self::count_members), inlined
    /// into each build that calls it.
    #[inline(always)]
    fn count_lanes(&self, members: &[u32], limit: usize) -> usize {
        if self.cap == 0 {
            return 0;
        }
        // n ≤ 2³² and 1 ≤ cap ≤ n, so both bounds fit a u32 lane.
        let last = (self.perm.n - 1) as u32;
        let cap_last = (self.cap - 1) as u32;
        // A pass leaves a lane outside [0, n) with chance (domain − n) /
        // domain.  Below a quarter, the few such lanes are cheaper to walk
        // one by one than every lane is to re-encrypt.
        let domain = 1u64 << (2 * self.perm.half_bits);
        let masked = (domain - self.perm.n) * 4 >= domain;
        let (blocks, tail) = members.as_chunks::<BLOCK>();
        let mut count = 0;
        for block in blocks {
            // A member outside [0, n) is never in the subset.  Its Feistel
            // orbit may never enter [0, n), so it is parked at 0 instead of
            // walked, and left out of the count below.
            let mut x = [0u32; BLOCK];
            for (x, &member) in x.iter_mut().zip(block) {
                let position = self.perm.encrypt_once(member);
                *x = if member > last { 0 } else { position };
            }
            if masked {
                for _ in 0..MASKED_WALKS {
                    for x in &mut x {
                        let next = self.perm.encrypt_once(*x);
                        *x = if *x > last { next } else { *x };
                    }
                }
            }
            let mut pending = [0u8; BLOCK];
            let mut walking = 0;
            for (lane, &position) in x.iter().enumerate() {
                pending[walking] = lane as u8;
                walking += usize::from(position > last);
            }
            while walking > 0 {
                let mut still = 0;
                for at in 0..walking {
                    let lane = usize::from(pending[at]);
                    x[lane] = self.perm.encrypt_once(x[lane]);
                    pending[still] = lane as u8;
                    still += usize::from(x[lane] > last);
                }
                walking = still;
            }
            let mut hits = 0u32;
            for (&member, &position) in block.iter().zip(&x) {
                hits += u32::from(member <= last && position <= cap_last);
            }
            count += hits as usize;
            if count >= limit {
                return limit;
            }
        }
        count += tail
            .iter()
            .filter(|&&member| self.contains(member as usize))
            .count();
        count.min(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection() {
        for &n in &[1usize, 2, 3, 7, 64, 100, 257, 1000] {
            for seed in 0..4u64 {
                let perm = IndexPermutation::new(n, seed);
                let mut seen = vec![false; n];
                for i in 0..n {
                    let p = perm.position(i);
                    assert!(p < n, "position out of range");
                    assert!(!seen[p], "position {p} hit twice (n={n} seed={seed})");
                    seen[p] = true;
                    assert_eq!(perm.at_rank(p), i, "at_rank must invert position");
                }
            }
        }
    }

    /// The round function as a plain 64-bit mix of the unfolded splitmix64
    /// keys: the 32-bit round must compute the same permutation.
    fn reference_encrypt(n: u64, seed: u64, x: u64) -> u64 {
        let half_bits = (64 - n.saturating_sub(1).leading_zeros())
            .div_ceil(2)
            .max(1);
        let mask = (1u64 << half_bits) - 1;
        let mut state = seed;
        let (mut l, mut r) = ((x >> half_bits) & mask, x & mask);
        for _ in 0..ROUNDS {
            let mut z = r ^ splitmix64(&mut state);
            z = (z ^ (z >> 16)).wrapping_mul(0x45d9_f3b5_3c4b_a1a9);
            z ^= z >> 15;
            (l, r) = (r, l ^ (z & mask));
        }
        (l << half_bits) | r
    }

    #[test]
    fn round_function_matches_the_64_bit_mix() {
        let mut state = 5u64;
        for &n in &[1u64, 2, 3, 100, 1_000, 23_471, 65_537, 1 << 32] {
            for seed in [0u64, 1, 0xdead_beef] {
                let perm = IndexPermutation::new(n as usize, seed);
                let domain = 1u64 << (2 * perm.half_bits);
                let xs: Vec<u64> = if domain <= 1 << 18 {
                    (0..domain).collect()
                } else {
                    (0..4_096)
                        .map(|_| splitmix64(&mut state) % domain)
                        .collect()
                };
                for x in xs {
                    assert_eq!(
                        u64::from(perm.encrypt_once(x as u32)),
                        reference_encrypt(n, seed, x),
                        "n={n} seed={seed} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let n = 128;
        let a: Vec<usize> = (0..n)
            .map(|r| IndexPermutation::new(n, 1).at_rank(r))
            .collect();
        let b: Vec<usize> = (0..n)
            .map(|r| IndexPermutation::new(n, 2).at_rank(r))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn permutation_is_not_identity_like() {
        // The visit order must genuinely mix: no more than a small fraction of
        // fixed points on a moderately large domain.
        let n = 512;
        let perm = IndexPermutation::new(n, 99);
        let fixed = (0..n).filter(|&i| perm.position(i) == i).count();
        assert!(fixed < n / 16, "{fixed} fixed points out of {n}");
    }

    #[test]
    fn subset_membership_matches_enumeration() {
        for &(n, cap) in &[(10usize, 3usize), (100, 40), (57, 57), (64, 0), (5, 9)] {
            let sub = RandomSubset::new(n, cap, 7);
            assert_eq!(sub.len(), cap.min(n));
            let listed: Vec<usize> = sub.iter().collect();
            assert_eq!(listed.len(), sub.len());
            let mut sorted = listed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), listed.len(), "subset must not repeat");
            for i in 0..n {
                assert_eq!(
                    sub.contains(i),
                    listed.contains(&i),
                    "n={n} cap={cap} i={i}"
                );
            }
        }
    }

    /// Both builds of the block kernel are the scalar filter, capped at the
    /// limit: around every block boundary, every clamp of the cap, every
    /// limit edge, and at n = 2³², where the lane bound `n − 1` is
    /// `u32::MAX`.
    #[test]
    fn count_members_matches_the_scalar_filter() {
        let mut state = 11u64;
        for &n in &[1usize, 2, 3, 31, 32, 33, 64, 65, 1_000, 23_471, 1 << 32] {
            let mut random = |len: usize| -> Vec<u32> {
                (0..len)
                    .map(|_| (splitmix64(&mut state) % n as u64) as u32)
                    .collect()
            };
            let mut lists = vec![Vec::new()];
            for len in [31, 32, 33, 63, 64, 65] {
                lists.push(random(len));
            }
            // Members outside [0, n) are never contained; the lane edges
            // go first in a list long enough to fill a block.
            let edges = if n < 1 << 32 {
                vec![0, n as u32, n as u32 + 1, u32::MAX]
            } else {
                vec![0, 1, u32::MAX]
            };
            lists.push(edges.iter().copied().chain(random(62)).collect());
            lists.push(edges);
            if n < 1 << 32 {
                let all: Vec<u32> = (0..n as u32).collect();
                let half = all.iter().copied().filter(|&m| m % 2 == 1).collect();
                lists.extend([half, all]);
            }
            for cap in [0, 1, n - 1, n, n + 5] {
                for seed in 0..2u64 {
                    let sub = RandomSubset::new(n, cap, seed);
                    for members in &lists {
                        let exact = members
                            .iter()
                            .filter(|&&m| sub.contains(m as usize))
                            .count();
                        for limit in [1, 31, 32, 33, members.len(), members.len() + 1] {
                            let context = format!(
                                "n={n} cap={cap} seed={seed} members={} limit={limit}",
                                members.len()
                            );
                            let expected = exact.min(limit);
                            assert_eq!(sub.count_members(members, limit), expected, "{context}");
                            assert_eq!(
                                sub.count_lanes(members, limit),
                                expected,
                                "baseline build, {context}"
                            );
                            if let Some(count) = sub.count_members_avx2(members, limit) {
                                assert_eq!(count, expected, "AVX2 build, {context}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn subset_is_roughly_uniform() {
        // Each index should appear in a cap/n-sized subset with frequency
        // close to cap/n across seeds.
        let n = 50;
        let cap = 10;
        let trials = 400;
        let mut hits = vec![0usize; n];
        for seed in 0..trials {
            let sub = RandomSubset::new(n, cap, seed as u64);
            for i in sub.iter() {
                hits[i] += 1;
            }
        }
        let expected = trials * cap / n;
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                h > expected / 3 && h < expected * 3,
                "index {i} appeared {h} times, expected about {expected}"
            );
        }
    }
}
