//! Prediction tapes: predict once, time many.
//!
//! The replay consumers' batch predictor fixes every prediction of a
//! chunk before the timing walk consults any of them (see `trace.rs`),
//! and the predictor sees only the trace's branch stream. So the
//! predictions of a pass depend on the trace and on the [`TapeKey`] —
//! the predictor and the Figure 9 filter mode — and never on the core
//! width, the ROB or anything else timing-side. A [`PredTape`] records
//! them once, one packed bit per predictor-visible conditional branch,
//! together with the pass's [`BranchStats`]. A later pass over the same
//! trace under the same key reads the tape instead of running the
//! predictor again: a timing replay drains the tape's bits through the
//! cycle-accounting core, and a predictor-only pass returns the stored
//! counts without walking the trace at all
//! ([`Simulation::replay_taped`](crate::Simulation::replay_taped),
//! [`Simulation::replay_branches_taped`](crate::Simulation::replay_branches_taped)).

use crate::ooo::BranchStats;
use crate::sim::{PredictorChoice, SimConfig};
use crate::trace::DynTrace;

/// What a prediction tape depends on besides its trace: the predictor
/// and whether probabilistic branches are filtered from it (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeKey {
    /// The baseline predictor that made the predictions.
    pub predictor: PredictorChoice,
    /// Whether probabilistic branches bypassed the predictor.
    pub filter_prob: bool,
}

impl TapeKey {
    /// The tape key of `config`'s predictor pass.
    pub fn of(config: &SimConfig) -> TapeKey {
        TapeKey {
            predictor: config.predictor,
            filter_prob: config.filter_prob_from_predictor,
        }
    }
}

/// The predictions of one predictor pass over one trace, one bit per
/// predictor-visible conditional branch in program order, plus the
/// pass's branch and misprediction counts.
///
/// Each chunk's bits start on a word boundary, so a replay hands the
/// timing walk one chunk's words at a time. A tape holds about one bit
/// per six dynamic instructions on the paper workloads: a few KiB beside
/// a trace of several MiB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredTape {
    key: TapeKey,
    /// Packed predictions: bit `i % 64` of a chunk's word `i / 64` is its
    /// `i`-th prediction (1 = taken).
    words: Vec<u64>,
    /// Per chunk: its first word and its prediction count.
    chunks: Vec<(usize, usize)>,
    stats: BranchStats,
}

/// One chunk's packed predictions (see [`PredTape`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeChunk<'a> {
    pub(crate) words: &'a [u64],
    pub(crate) len: usize,
}

impl PredTape {
    /// An empty tape for `key`, recorded chunk by chunk.
    pub(crate) fn new(key: TapeKey) -> PredTape {
        PredTape {
            key,
            words: Vec::new(),
            chunks: Vec::new(),
            stats: BranchStats::default(),
        }
    }

    /// Appends one chunk's predictions.
    pub(crate) fn push_chunk(&mut self, preds: &[bool]) {
        self.chunks.push((self.words.len(), preds.len()));
        self.words.extend(preds.chunks(64).map(|bits| {
            bits.iter()
                .enumerate()
                .fold(0u64, |w, (i, &taken)| w | ((taken as u64) << i))
        }));
    }

    /// The predictions of chunk `i`.
    pub(crate) fn chunk(&self, i: usize) -> TapeChunk<'_> {
        let (start, len) = self.chunks[i];
        TapeChunk {
            words: &self.words[start..start + len.div_ceil(64)],
            len,
        }
    }

    /// Chunks recorded so far.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The finished tape: the pass's counts attached, slack dropped.
    pub(crate) fn finish(mut self, stats: BranchStats) -> PredTape {
        self.stats = stats;
        self.words.shrink_to_fit();
        self.chunks.shrink_to_fit();
        self
    }

    /// Panics unless this tape was recorded over `trace` under
    /// `config`'s predictor and filter mode: reading another pass's
    /// predictions would silently time a different machine.
    pub(crate) fn check_compatible(&self, trace: &DynTrace, config: &SimConfig) {
        assert_eq!(
            self.key,
            TapeKey::of(config),
            "tape recorded under a different predictor or filter mode"
        );
        assert!(
            self.chunks.len() == trace.chunk_count()
                && self.stats.instructions == trace.instructions(),
            "tape recorded over a different trace"
        );
    }

    /// The predictor and filter mode the tape was recorded under.
    pub fn key(&self) -> TapeKey {
        self.key
    }

    /// The recorded pass's branch and misprediction counts.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    /// Recorded predictions: the trace's predictor-visible conditional
    /// branches.
    pub fn predictions(&self) -> u64 {
        self.chunks.iter().map(|&(_, len)| len as u64).sum()
    }

    /// Heap bytes held — what a trace pool charges for keeping the tape.
    pub fn bytes(&self) -> usize {
        self.words.capacity() * 8 + self.chunks.capacity() * std::mem::size_of::<(usize, usize)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_pack_one_bit_per_prediction_on_word_boundaries() {
        let mut tape = PredTape::new(TapeKey::of(&SimConfig::default()));
        let first: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let second = [true, false, true];
        tape.push_chunk(&first);
        tape.push_chunk(&[]);
        tape.push_chunk(&second);
        let tape = tape.finish(BranchStats::default());
        assert_eq!(tape.predictions(), 133);
        let unpack = |c: TapeChunk<'_>| -> Vec<bool> {
            (0..c.len)
                .map(|i| (c.words[i / 64] >> (i % 64)) & 1 == 1)
                .collect()
        };
        assert_eq!(tape.chunk(0).words.len(), 3);
        assert_eq!(unpack(tape.chunk(0)), first);
        assert!(tape.chunk(1).words.is_empty());
        assert_eq!(unpack(tape.chunk(2)), second);
        assert!(tape.bytes() >= 4 * 8 + 3 * 16);
    }
}
