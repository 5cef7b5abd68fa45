//! A DieHarder-style randomness battery (the paper's Table III
//! instrument). The paper ran DieHarder 3.31.1's 114 test cases over
//! the random-value streams "in the order as they get processed under
//! PBS" versus the original program order; we run a bespoke 14-case
//! battery over the same two streams, with DieHarder's PASS / WEAK /
//! FAIL classification conventions (FAIL below 10⁻⁶, WEAK below 0.005).
//!
//! The input is the stream of uniform `[0,1)` values as consumed by the
//! algorithm. Bit-level tests use the top 32 bits of each value.

use crate::numerics::{chi2_sf, ks_sf, normal_p2};

/// DieHarder-style classification of one test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// p-value in the unremarkable range.
    Pass,
    /// Suspicious p-value (`p < 0.005`), as DieHarder flags WEAK.
    Weak,
    /// Overwhelming rejection (`p < 10⁻⁶`).
    Fail,
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Pass => write!(f, "PASS"),
            Outcome::Weak => write!(f, "WEAK"),
            Outcome::Fail => write!(f, "FAIL"),
        }
    }
}

/// One battery test result.
#[derive(Debug, Clone, PartialEq)]
pub struct TestResult {
    /// Test case name.
    pub name: &'static str,
    /// The p-value.
    pub p_value: f64,
    /// Its classification.
    pub outcome: Outcome,
}

fn classify(p: f64) -> Outcome {
    if p < 1e-6 {
        Outcome::Fail
    } else if p < 0.005 {
        Outcome::Weak
    } else {
        Outcome::Pass
    }
}

fn result(name: &'static str, p: f64) -> TestResult {
    TestResult {
        name,
        p_value: p,
        outcome: classify(p),
    }
}

/// Aggregate PASS/WEAK/FAIL counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatteryCounts {
    /// Tests classified PASS.
    pub pass: usize,
    /// Tests classified WEAK.
    pub weak: usize,
    /// Tests classified FAIL.
    pub fail: usize,
}

impl BatteryCounts {
    /// Tallies a result list.
    pub fn of(results: &[TestResult]) -> BatteryCounts {
        let mut c = BatteryCounts::default();
        for r in results {
            match r.outcome {
                Outcome::Pass => c.pass += 1,
                Outcome::Weak => c.weak += 1,
                Outcome::Fail => c.fail += 1,
            }
        }
        c
    }

    /// Total cases.
    pub fn total(&self) -> usize {
        self.pass + self.weak + self.fail
    }
}

fn to_bits(values: &[f64]) -> Vec<u32> {
    values
        .iter()
        .map(|&v| (v.clamp(0.0, 1.0 - 1e-12) * 4294967296.0) as u32)
        .collect()
}

fn monobit(words: &[u32]) -> TestResult {
    let n = words.len() * 32;
    let ones: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
    let z = (2.0 * ones as f64 - n as f64) / (n as f64).sqrt();
    result("monobit-frequency", normal_p2(z))
}

// The three bit-level tests below read the stream as the bits of each
// word from bit 0 to bit 31, word after word, and count them on the
// packed words with `count_ones`. Every count is the same integer the
// bit-by-bit walk in the reference implementations (see the tests)
// reaches, and the floating-point arithmetic runs in the same order, so
// the p-values are bit-identical.

fn block_frequency(words: &[u32], block_bits: usize) -> TestResult {
    debug_assert!(block_bits % 32 == 0, "blocks are whole words");
    let block_words = block_bits / 32;
    let blocks = words.len() / block_words;
    if blocks < 4 {
        return result("block-frequency", 1.0);
    }
    let mut chi2 = 0.0;
    for block in words.chunks_exact(block_words) {
        let ones: u32 = block.iter().map(|w| w.count_ones()).sum();
        let pi = ones as f64 / block_bits as f64;
        chi2 += 4.0 * block_bits as f64 * (pi - 0.5) * (pi - 0.5);
    }
    result("block-frequency", chi2_sf(chi2, blocks as f64))
}

fn runs(words: &[u32]) -> TestResult {
    let n = (words.len() * 32) as f64;
    let n1 = words.iter().map(|w| w.count_ones() as usize).sum::<usize>() as f64;
    let n0 = n - n1;
    if n1 == 0.0 || n0 == 0.0 {
        return result("runs", 0.0);
    }
    // Transitions between bits b and b + 1 of one word, for b < 31…
    let inside: usize = words
        .iter()
        .map(|w| ((w ^ (w >> 1)) & 0x7FFF_FFFF).count_ones() as usize)
        .sum();
    // …and from bit 31 of one word to bit 0 of the next.
    let across = words
        .windows(2)
        .filter(|p| (p[0] >> 31) != (p[1] & 1))
        .count();
    let r = 1 + inside + across;
    let mu = 2.0 * n1 * n0 / n + 1.0;
    let var = (mu - 1.0) * (mu - 2.0) / (n - 1.0);
    let z = (r as f64 - mu) / var.sqrt();
    result("runs", normal_p2(z))
}

fn serial_pairs(words: &[u32]) -> TestResult {
    // A pair is bits (2k, 2k + 1) of one word, never straddling two, and
    // its count index is `bit 2k << 1 | bit 2k + 1`.
    const EVEN: u32 = 0x5555_5555;
    let mut counts = [0u64; 4];
    for &w in words {
        let first = w & EVEN;
        let second = (w >> 1) & EVEN;
        let both = (first & second).count_ones() as u64;
        let first_only = first.count_ones() as u64 - both;
        let second_only = second.count_ones() as u64 - both;
        counts[3] += both;
        counts[2] += first_only;
        counts[1] += second_only;
        counts[0] += 16 - both - first_only - second_only;
    }
    let n: u64 = counts.iter().sum();
    let expect = n as f64 / 4.0;
    let chi2: f64 = counts
        .iter()
        .map(|&c| (c as f64 - expect) * (c as f64 - expect) / expect)
        .sum();
    result("serial-2bit", chi2_sf(chi2, 3.0))
}

fn poker4(words: &[u32]) -> TestResult {
    let mut counts = [0u64; 16];
    for w in words {
        for shift in (0..32).step_by(4) {
            counts[((w >> shift) & 0xf) as usize] += 1;
        }
    }
    let n: u64 = counts.iter().sum();
    let expect = n as f64 / 16.0;
    let chi2: f64 = counts
        .iter()
        .map(|&c| (c as f64 - expect) * (c as f64 - expect) / expect)
        .sum();
    result("poker-4bit", chi2_sf(chi2, 15.0))
}

fn gap_test(values: &[f64]) -> TestResult {
    // Gaps between successive visits to [0, 0.5): geometric(1/2).
    const CATS: usize = 10;
    let mut counts = [0u64; CATS + 1];
    let mut gap = 0usize;
    let mut total = 0u64;
    for &v in values {
        if v < 0.5 {
            counts[gap.min(CATS)] += 1;
            total += 1;
            gap = 0;
        } else {
            gap += 1;
        }
    }
    if total < 50 {
        return result("gap", 1.0);
    }
    let mut chi2 = 0.0;
    for (k, &c) in counts.iter().enumerate() {
        let p = if k < CATS {
            0.5f64.powi(k as i32 + 1)
        } else {
            0.5f64.powi(CATS as i32)
        };
        let e = total as f64 * p;
        chi2 += (c as f64 - e) * (c as f64 - e) / e;
    }
    result("gap", chi2_sf(chi2, CATS as f64))
}

/// One-sample Kolmogorov–Smirnov test against U(0, 1). The sort need
/// not be stable: values that compare equal are the same `f64`, or +0
/// and −0, which give the same distance to every step of the empirical
/// CDF — so D, and the p-value, are bit-identical to a stable sort's.
fn ks_uniform(values: &[f64]) -> TestResult {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in value streams"));
    let n = sorted.len();
    let mut d: f64 = 0.0;
    for (i, &v) in sorted.iter().enumerate() {
        let lo = i as f64 / n as f64;
        let hi = (i + 1) as f64 / n as f64;
        d = d.max((v - lo).abs()).max((hi - v).abs());
    }
    result("ks-uniformity", ks_sf(d, n))
}

fn autocorrelation(values: &[f64], lag: usize, name: &'static str) -> TestResult {
    if values.len() <= lag + 1 {
        return result(name, 1.0);
    }
    let n = values.len() - lag;
    let mut acc = 0.0;
    for i in 0..n {
        acc += (values[i] - 0.5) * (values[i + lag] - 0.5);
    }
    // Var[(U-1/2)(V-1/2)] = 1/144 for independent uniforms.
    let z = acc / ((n as f64).sqrt() / 12.0);
    result(name, normal_p2(z))
}

fn extreme_of_5(values: &[f64], max: bool) -> TestResult {
    let transformed: Vec<f64> = values
        .chunks_exact(5)
        .map(|c| {
            if max {
                let m = c.iter().cloned().fold(0.0f64, f64::max);
                m.powi(5)
            } else {
                let m = c.iter().cloned().fold(1.0f64, f64::min);
                1.0 - (1.0 - m).powi(5)
            }
        })
        .collect();
    if transformed.len() < 50 {
        return result(if max { "max-of-5" } else { "min-of-5" }, 1.0);
    }
    let inner = ks_uniform(&transformed);
    result(if max { "max-of-5" } else { "min-of-5" }, inner.p_value)
}

fn permutation_triples(values: &[f64]) -> TestResult {
    let mut counts = [0u64; 6];
    for t in values.chunks_exact(3) {
        let (a, b, c) = (t[0], t[1], t[2]);
        let idx = match (a < b, b < c, a < c) {
            (true, true, _) => 0,      // a<b<c
            (true, false, true) => 1,  // a<c<=b
            (true, false, false) => 2, // c<=a<b
            (false, true, true) => 3,  // b<=a<c
            (false, true, false) => 4, // b<c<=a
            (false, false, _) => 5,    // c<=b<=a
        };
        counts[idx] += 1;
    }
    let n: u64 = counts.iter().sum();
    if n < 60 {
        return result("permutation-triples", 1.0);
    }
    let e = n as f64 / 6.0;
    let chi2: f64 = counts
        .iter()
        .map(|&c| (c as f64 - e) * (c as f64 - e) / e)
        .sum();
    result("permutation-triples", chi2_sf(chi2, 5.0))
}

fn mean_test(values: &[f64]) -> TestResult {
    let n = values.len() as f64;
    let m = values.iter().sum::<f64>() / n;
    let z = (m - 0.5) * (12.0 * n).sqrt();
    result("sample-mean", normal_p2(z))
}

/// Runs the full battery over a stream of `[0,1)` values, returning 14
/// test cases.
///
/// # Panics
///
/// Panics if the stream is shorter than 100 values (the battery needs a
/// minimal sample).
pub fn run_battery(values: &[f64]) -> Vec<TestResult> {
    assert!(
        values.len() >= 100,
        "battery needs at least 100 values, got {}",
        values.len()
    );
    let words = to_bits(values);
    vec![
        monobit(&words),
        block_frequency(&words, 128),
        runs(&words),
        serial_pairs(&words),
        poker4(&words),
        gap_test(values),
        ks_uniform(values),
        autocorrelation(values, 1, "autocorrelation-lag1"),
        autocorrelation(values, 2, "autocorrelation-lag2"),
        autocorrelation(values, 7, "autocorrelation-lag7"),
        extreme_of_5(values, true),
        extreme_of_5(values, false),
        permutation_triples(values),
        mean_test(values),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use probranch_rng::{SplitMix64, UniformSource};
    use proptest::prelude::*;

    fn uniform_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut r = SplitMix64::seed(seed);
        (0..n).map(|_| r.next_f64()).collect()
    }

    /// Reference implementations of the three bit-level tests — the
    /// stream expanded into one `bool` per bit and counted bit by bit —
    /// and of the KS test over a stable sort. The battery's versions
    /// must match them bit for bit.
    mod expanded {
        use super::super::{chi2_sf, ks_sf, normal_p2, result, TestResult};

        pub fn ks_uniform(values: &[f64]) -> TestResult {
            let mut sorted = values.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in value streams"));
            let n = sorted.len();
            let mut d: f64 = 0.0;
            for (i, &v) in sorted.iter().enumerate() {
                let lo = i as f64 / n as f64;
                let hi = (i + 1) as f64 / n as f64;
                d = d.max((v - lo).abs()).max((hi - v).abs());
            }
            result("ks-uniformity", ks_sf(d, n))
        }

        fn bit_iter(words: &[u32]) -> impl Iterator<Item = bool> + '_ {
            words
                .iter()
                .flat_map(|w| (0..32).map(move |b| (w >> b) & 1 == 1))
        }

        pub fn block_frequency(words: &[u32], block_bits: usize) -> TestResult {
            let bits: Vec<bool> = bit_iter(words).collect();
            let blocks = bits.len() / block_bits;
            if blocks < 4 {
                return result("block-frequency", 1.0);
            }
            let mut chi2 = 0.0;
            for b in 0..blocks {
                let ones = bits[b * block_bits..(b + 1) * block_bits]
                    .iter()
                    .filter(|&&x| x)
                    .count();
                let pi = ones as f64 / block_bits as f64;
                chi2 += 4.0 * block_bits as f64 * (pi - 0.5) * (pi - 0.5);
            }
            result("block-frequency", chi2_sf(chi2, blocks as f64))
        }

        pub fn runs(words: &[u32]) -> TestResult {
            let bits: Vec<bool> = bit_iter(words).collect();
            let n = bits.len() as f64;
            let n1 = bits.iter().filter(|&&b| b).count() as f64;
            let n0 = n - n1;
            if n1 == 0.0 || n0 == 0.0 {
                return result("runs", 0.0);
            }
            let r = 1 + bits.windows(2).filter(|w| w[0] != w[1]).count();
            let mu = 2.0 * n1 * n0 / n + 1.0;
            let var = (mu - 1.0) * (mu - 2.0) / (n - 1.0);
            let z = (r as f64 - mu) / var.sqrt();
            result("runs", normal_p2(z))
        }

        pub fn serial_pairs(words: &[u32]) -> TestResult {
            let bits: Vec<bool> = bit_iter(words).collect();
            let mut counts = [0u64; 4];
            for pair in bits.chunks_exact(2) {
                counts[(pair[0] as usize) << 1 | pair[1] as usize] += 1;
            }
            let n: u64 = counts.iter().sum();
            let expect = n as f64 / 4.0;
            let chi2: f64 = counts
                .iter()
                .map(|&c| (c as f64 - expect) * (c as f64 - expect) / expect)
                .sum();
            result("serial-2bit", chi2_sf(chi2, 3.0))
        }
    }

    /// The (packed, expanded) result pairs of the three bit-level tests
    /// on `values` that differ in name, p-value bits or outcome.
    fn mismatches(values: &[f64]) -> Vec<(TestResult, TestResult)> {
        let words = to_bits(values);
        [
            (
                block_frequency(&words, 128),
                expanded::block_frequency(&words, 128),
            ),
            (runs(&words), expanded::runs(&words)),
            (serial_pairs(&words), expanded::serial_pairs(&words)),
        ]
        .into_iter()
        .filter(|(packed, expanded)| {
            packed.name != expanded.name
                || packed.p_value.to_bits() != expanded.p_value.to_bits()
                || packed.outcome != expanded.outcome
        })
        .collect()
    }

    /// The largest `f64` below 1, which the word conversion clamps.
    const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

    /// One stream value: mostly uniform in `[0, 1)`, sometimes one of the
    /// edges the word conversion clamps or rounds — 0, the largest value
    /// below 1, and values outside `[0, 1)`.
    fn value() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(|x| match x % 32 {
            0 => 0.0,
            1 => BELOW_ONE,
            2 => -0.25,
            3 => 1.0,
            4 => 7.5,
            _ => (x >> 11) as f64 / (1u64 << 53) as f64,
        })
    }

    /// A stream of 100–5,000 values (bit counts that are mostly not a
    /// multiple of the 128-bit block), or a constant or alternating one.
    fn stream() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            proptest::collection::vec(value(), 100..5_001),
            (value(), 100usize..5_001).prop_map(|(v, n)| vec![v; n]),
            (value(), value(), 100usize..5_001)
                .prop_map(|(a, b, n)| (0..n).map(|i| if i % 2 == 0 { a } else { b }).collect()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn packed_bit_tests_match_the_expanded_reference(values in stream()) {
            let bad = mismatches(&values);
            prop_assert!(bad.is_empty(), "{} values: {bad:?}", values.len());
        }
    }

    #[test]
    fn packed_bit_tests_match_the_expanded_reference_on_edge_streams() {
        // The named edge cases, whatever the generator draws: constant
        // and alternating streams of clamped and boundary values, at
        // lengths whose bit counts are (100, 128) and are not (101, 127,
        // 129, 4,999) a multiple of the 128-bit block.
        let pairs = [
            (0.0, 0.0),
            (BELOW_ONE, BELOW_ONE),
            (0.0, BELOW_ONE),
            (-0.25, 7.5),
            (0.25, 0.5),
        ];
        for n in [100, 101, 127, 128, 129, 4_999] {
            for (a, b) in pairs {
                let values: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { a } else { b }).collect();
                let bad = mismatches(&values);
                assert!(bad.is_empty(), "{n} × ({a}, {b}): {bad:?}");
            }
        }
    }

    /// A stream drawn from a handful of values, ±0 among them, so most
    /// values repeat and an unstable sort reorders equal keys.
    fn repetitive_stream() -> impl Strategy<Value = Vec<f64>> {
        let pick = |x: u64| [0.0, -0.0, 0.25, 0.5, BELOW_ONE, 0.125, 0.75][(x % 7) as usize];
        proptest::collection::vec(any::<u64>().prop_map(pick), 1..3_000)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        #[test]
        fn ks_test_matches_the_stable_sort_oracle(values in repetitive_stream()) {
            let (fast, oracle) = (ks_uniform(&values), expanded::ks_uniform(&values));
            prop_assert_eq!(fast.p_value.to_bits(), oracle.p_value.to_bits());
            prop_assert_eq!(fast.outcome, oracle.outcome);
        }
    }

    #[test]
    fn ks_test_matches_the_stable_sort_oracle_on_signed_zeros() {
        // Zeros of both signs interleaved with repeats, at lengths where
        // an unstable sort moves equal keys past each other; the
        // max-of-5 and min-of-5 transforms feed the same test.
        for n in [1, 2, 5, 64, 1_000, 4_999] {
            let values: Vec<f64> = (0..n)
                .map(|i| match i % 5 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => 0.5,
                    3 => -0.0,
                    _ => 0.5,
                })
                .collect();
            let (fast, oracle) = (ks_uniform(&values), expanded::ks_uniform(&values));
            assert_eq!(fast.p_value.to_bits(), oracle.p_value.to_bits(), "n = {n}");
            assert_eq!(fast.outcome, oracle.outcome, "n = {n}");
        }
    }

    #[test]
    fn good_generator_passes() {
        let values = uniform_stream(42, 20_000);
        let results = run_battery(&values);
        assert_eq!(results.len(), 14);
        let counts = BatteryCounts::of(&results);
        assert_eq!(counts.fail, 0, "{results:?}");
        assert!(counts.weak <= 1, "{results:?}");
    }

    #[test]
    fn several_seeds_pass() {
        for seed in 1..=5 {
            let counts = BatteryCounts::of(&run_battery(&uniform_stream(seed, 10_000)));
            assert_eq!(counts.fail, 0, "seed {seed}");
        }
    }

    #[test]
    fn constant_stream_fails_hard() {
        let values = vec![0.25; 10_000];
        let counts = BatteryCounts::of(&run_battery(&values));
        assert!(counts.fail >= 8, "{counts:?}");
    }

    #[test]
    fn biased_stream_fails_frequency_family() {
        let values: Vec<f64> = uniform_stream(7, 10_000).iter().map(|v| v * 0.5).collect();
        let results = run_battery(&values);
        let failing: Vec<&str> = results
            .iter()
            .filter(|r| r.outcome == Outcome::Fail)
            .map(|r| r.name)
            .collect();
        assert!(failing.contains(&"ks-uniformity"), "{failing:?}");
        assert!(failing.contains(&"sample-mean"), "{failing:?}");
    }

    #[test]
    fn alternating_stream_fails_correlation_family() {
        let values: Vec<f64> = (0..10_000)
            .map(|i| if i % 2 == 0 { 0.1 } else { 0.9 })
            .collect();
        let results = run_battery(&values);
        let failing: Vec<&str> = results
            .iter()
            .filter(|r| r.outcome == Outcome::Fail)
            .map(|r| r.name)
            .collect();
        assert!(failing.contains(&"autocorrelation-lag1"), "{failing:?}");
    }

    #[test]
    fn battery_is_deterministic() {
        let values = uniform_stream(3, 5_000);
        assert_eq!(run_battery(&values), run_battery(&values));
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(classify(0.5), Outcome::Pass);
        assert_eq!(classify(0.004), Outcome::Weak);
        assert_eq!(classify(1e-7), Outcome::Fail);
        assert_eq!(Outcome::Pass.to_string(), "PASS");
    }

    #[test]
    #[should_panic(expected = "at least 100")]
    fn short_stream_rejected() {
        run_battery(&[0.5; 10]);
    }

    #[test]
    fn counts_tally() {
        let values = uniform_stream(9, 5_000);
        let results = run_battery(&values);
        let counts = BatteryCounts::of(&results);
        assert_eq!(counts.total(), results.len());
    }
}
