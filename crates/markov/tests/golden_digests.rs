//! Bit-identity pins for the sparse chain build and the banded hitting-time
//! solve at n = 4096: FNV-1a digests of every stored row, tail bound and
//! hitting time. The golden values were computed by the row-at-a-time
//! solver and the one-`Vec`-per-row build that the blocked kernels
//! replaced, so any change to a single output bit fails here. Both kernels
//! fan out over the worker pool; running this suite under different
//! `BITDISSEM_POOL_WORKERS` also pins their worker-count invariance.
//!
//! The distribution-stepping outputs are pinned the same way, at sizes
//! small enough for a debug build: survival curves by an FNV-1a digest of
//! every point, and a mixing time and a spectral gap, each one word, by
//! their value and their bits. All golden values were computed before the
//! kernels could run on AVX2 lanes, so on a host with AVX2 this suite also
//! pins that the wider lanes keep every bit.

use bitdissem_core::channel::with_observation_noise;
use bitdissem_core::dynamics::{Minority, Voter};
use bitdissem_core::{Opinion, Protocol};
use bitdissem_markov::{
    expected_hitting_times_sparse, mixing_time_extremes_sparse, spectral_gap,
    survival_curve_sparse, SparseChain,
};

const N: u64 = 4096;

/// Population size of the stepping pins.
const STEP_N: u64 = 256;

/// FNV-1a 64 over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of every row: its first state, its length, its weights and its
/// tail bound, in state order.
fn rows_digest(chain: &SparseChain) -> u64 {
    let mut words = Vec::with_capacity(chain.nnz() + 3 * chain.num_states());
    for x in chain.state_lo()..=chain.state_hi() {
        let (lo, w) = chain.row(x);
        words.extend([lo, w.len() as u64]);
        words.extend(w.iter().map(|v| v.to_bits()));
        words.push(chain.tail_bound(x).to_bits());
    }
    fnv(words)
}

fn hitting_digest(correct: Opinion) -> u64 {
    let chain = SparseChain::build(&Voter::new(1).unwrap(), N, correct).unwrap();
    let times = expected_hitting_times_sparse(&chain).expect("Voter absorbs");
    fnv(times.iter().map(|(_, t)| t.to_bits()))
}

#[test]
fn voter_hitting_times_are_pinned_with_the_target_at_either_end() {
    assert_eq!(hitting_digest(Opinion::One), 0xad3e_e672_701e_3fa5);
    assert_eq!(hitting_digest(Opinion::Zero), 0x1f73_5203_b858_4008);
}

#[test]
fn voter_and_minority_rows_and_tails_are_pinned() {
    let cases: [(&dyn Protocol, u64); 2] = [
        (&Voter::new(1).unwrap(), 0xfcd8_5b77_e412_c1ff),
        (&Minority::new(3).unwrap(), 0x9329_5438_d60a_2577),
    ];
    for (protocol, golden) in cases {
        let chain = SparseChain::build(protocol, N, Opinion::One).unwrap();
        assert_eq!(rows_digest(&chain), golden, "{}", protocol.name());
    }
}

#[test]
fn voter_and_minority_survival_curves_are_pinned() {
    // From state 1, the all-wrong start, as the benchmark's curves.
    let cases: [(&dyn Protocol, u64); 2] = [
        (&Voter::new(1).unwrap(), 0x80f7_ca7d_bdb2_d895),
        (&Minority::new(3).unwrap(), 0xc35d_b580_32c4_2576),
    ];
    for (protocol, golden) in cases {
        let chain = SparseChain::build(protocol, STEP_N, Opinion::One).unwrap();
        let curve = survival_curve_sparse(&chain, 1, 1024);
        assert_eq!(fnv(curve.iter().map(|s| s.to_bits())), golden, "{}", protocol.name());
    }
}

#[test]
fn noisy_voter_mixing_time_and_voter_spectral_gap_are_pinned() {
    let noisy = with_observation_noise(&Voter::new(1).unwrap(), 0.1, STEP_N).unwrap();
    let chain = SparseChain::build(&noisy, STEP_N, Opinion::One).unwrap();
    assert_eq!(mixing_time_extremes_sparse(&chain, 0.25, 10_000), Some(16));
    let chain = SparseChain::build(&Voter::new(1).unwrap(), 64, Opinion::One).unwrap();
    let gap = spectral_gap(&chain).expect("the gap converges");
    assert_eq!(gap.to_bits(), 0x3f8f_ffff_fff6_bf00, "gap {gap:e}");
}
