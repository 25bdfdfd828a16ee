//! Executable information exchanges (DESIGN.md §4g).
//!
//! The model layer describes *which* exchange a scenario runs
//! ([`ExchangeKind`]); this module executes it: what a processor's time-0
//! state is, and how one round of receptions advances it. Everything
//! downstream — the system builder, the point store, the knowledge
//! machinery — consumes only interned [`ViewId`]s, so an exchange is
//! exactly a pair of interning kernels, which `try_leaf` and `try_step`
//! select by matching on the kind:
//!
//! * `FullInformation` — the paper's FIP: the state is the hash-consed
//!   view tree, interned by [`ViewTable::try_leaf`] and the round kernel
//!   the horizon-extension path shares;
//! * `Digest { bits }` — a bounded who-heard-what summary in the style
//!   of the limited-information-exchange papers (van der Meyden,
//!   arXiv 2508.03418; Alpturer–Ruj, arXiv 2511.22380): per-processor
//!   knowledge sets, a who-heard-from-whom-when contact matrix, and an
//!   optional content fingerprint of `bits` bits — `O(n²)` words of state
//!   regardless of the horizon.
//!
//! Both kernels are deterministic and *Markovian in the interned state* —
//! the time-`m` states are a function of the time-`m−1` states and the
//! round's deliveries only — which is what makes block-parallel builds
//! and append-only horizon extension sound.

use crate::view::{try_fip_step, ViewId, ViewTable};
use eba_model::fasthash::FastHasher;
use eba_model::{
    ExchangeKind, FailurePattern, InitialConfig, ModelError, ProcSet, ProcessorId, Round, Time,
    Value,
};
use std::hash::Hasher;

/// How many recent rounds of who-heard-from-whom timing a
/// [`DigestState`] retains; see [`DigestState::contact`]. Four rounds
/// cover every `T ≤ t + 2` space the differential suite validates as
/// lossless (`tests/exchange_equivalence.rs`), while deeper horizons
/// forget old timing and coarsen — which is the digest's scale unlock.
pub const CONTACT_WINDOW: u16 = 4;

/// The bounded local state of a digest-exchange processor: who it has
/// heard about (transitively), who it knows started with 0, one level
/// deeper — the "who-heard-what" of the limited-exchange papers — what it
/// knows *every other processor* knows, and a who-heard-from-whom-*when*
/// contact matrix. The sets are fixed-size bitsets and the matrix is
/// `n × n` round numbers, so the state size is `O(n²)` words regardless
/// of the horizon — that bound (vs. the exponential full-information
/// view tree) is the entire point of the exchange.
///
/// Identity is structural: two digest states intern to the same
/// [`ViewId`] exactly when every field (including the truncated
/// fingerprint) is equal.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DigestState {
    /// The owner.
    pub proc: ProcessorId,
    /// The global clock (part of the local state in a synchronous
    /// system, exactly as for FIP views).
    pub time: Time,
    /// The owner's own initial value.
    pub own_value: Value,
    /// Processors whose initial value the owner has learned.
    pub known_procs: ProcSet,
    /// Processors the owner knows started with 0.
    pub known_zeros: ProcSet,
    /// Processors heard from in the last round (empty at time 0).
    pub heard_from: ProcSet,
    /// `knowledge[j]`: processors whose initial values the owner knows
    /// that `j` had learned, as of the last digest received from `j`
    /// (monotone under merges; `knowledge[owner] = known_procs`).
    pub knowledge: Box<[ProcSet]>,
    /// `zero_knowledge[j]`: processors the owner knows that `j` knew to
    /// have started with 0 (`zero_knowledge[owner] = known_zeros`).
    pub zero_knowledge: Box<[ProcSet]>,
    /// Row-major `n × n` windowed contact matrix: `contact[j·n + k]` is
    /// a bitmask of the rounds within the last [`CONTACT_WINDOW`] rounds
    /// in which the owner knows `j` received a message from `k` (bit
    /// `r − 1` ⇔ round `r`; rounds past 64 saturate onto the top bit).
    /// Merged by pointwise union, then rounds that fell out of the
    /// window are cleared. The recent timing separates runs whose
    /// knowledge sets saturate identically but along different delivery
    /// schedules — e.g. hearing from a crashing processor in rounds 1
    /// and 2 vs. in round 1 only — while the forgetting is what keeps
    /// the reachable state space bounded as the horizon grows: past the
    /// window, delivery histories that agree on their recent suffix and
    /// their knowledge sets intern to the same state.
    pub contact: Box<[u64]>,
    /// Content fingerprint truncated to the exchange's width (0 for
    /// `digest:0`). Computed content-recursively — from the previous
    /// state's fingerprint and the delivered senders' fingerprints — so
    /// it is independent of table interning order, which keeps shard
    /// merges and cold/warm builds consistent.
    pub fingerprint: u64,
}

impl DigestState {
    /// Canonical table-independent rendering, the digest counterpart of
    /// the tree rendering in [`ViewTable::render`]: two digest states
    /// render equally exactly when they are equal.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "d[{}@{} v={} kp={} kz={} hf={}",
            self.proc.index(),
            self.time.ticks(),
            self.own_value,
            self.known_procs,
            self.known_zeros,
            self.heard_from,
        );
        for (km, zk) in self.knowledge.iter().zip(self.zero_knowledge.iter()) {
            let _ = write!(out, "|{km}/{zk}");
        }
        let n = self.knowledge.len();
        let _ = write!(out, " ct=");
        for (j, row) in self.contact.chunks(n).enumerate() {
            if j > 0 {
                out.push(';');
            }
            for (k, mask) in row.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{mask:x}");
            }
        }
        let _ = write!(out, " fp={:016x}]", self.fingerprint);
        out
    }
}

/// Interns the time-0 state of `proc` with initial value `value` in an
/// `n`-processor system under `kind`.
///
/// # Errors
///
/// Returns [`ModelError::CapacityExceeded`] if the table is full.
fn try_leaf(
    kind: ExchangeKind,
    table: &mut ViewTable,
    proc: ProcessorId,
    n: usize,
    value: Value,
) -> Result<ViewId, ModelError> {
    match kind {
        ExchangeKind::FullInformation => table.try_leaf(proc, value),
        ExchangeKind::Digest { bits } => digest_leaf(bits, table, proc, n, value),
    }
}

/// Advances every processor's state by one round under `kind`:
/// `prev_views[p]` is `p`'s state at `round.start()`, the result holds
/// the states at `round.end()`. Crashed processors' states freeze.
///
/// # Errors
///
/// Returns [`ModelError::CapacityExceeded`] if the table is full.
pub(crate) fn try_step(
    kind: ExchangeKind,
    table: &mut ViewTable,
    pattern: &FailurePattern,
    round: Round,
    prev_views: &[ViewId],
) -> Result<Vec<ViewId>, ModelError> {
    match kind {
        ExchangeKind::FullInformation => try_fip_step(pattern, round, prev_views, table),
        ExchangeKind::Digest { bits } => digest_step(bits, table, pattern, round, prev_views),
    }
}

/// A fingerprint truncated to the exchange's width (`0..=64` bits,
/// validated at the model layer).
fn truncate(bits: u8, fp: u64) -> u64 {
    match bits {
        0 => 0,
        64 => fp,
        bits => fp & ((1u64 << bits) - 1),
    }
}

/// The digest exchange's time-0 state: the owner knows its own value.
fn digest_leaf(
    bits: u8,
    table: &mut ViewTable,
    proc: ProcessorId,
    n: usize,
    value: Value,
) -> Result<ViewId, ModelError> {
    let known_zeros = if value == Value::Zero {
        ProcSet::singleton(proc)
    } else {
        ProcSet::empty()
    };
    let mut knowledge = vec![ProcSet::empty(); n].into_boxed_slice();
    let mut zero_knowledge = vec![ProcSet::empty(); n].into_boxed_slice();
    knowledge[proc.index()] = ProcSet::singleton(proc);
    zero_knowledge[proc.index()] = known_zeros;
    let fingerprint = if bits == 0 {
        0
    } else {
        let mut h = FastHasher::default();
        h.write_u8(0x4c); // leaf tag
        h.write_usize(proc.index());
        h.write_u8(value as u8);
        truncate(bits, h.finish())
    };
    table.try_digest(DigestState {
        proc,
        time: Time::ZERO,
        own_value: value,
        known_procs: ProcSet::singleton(proc),
        known_zeros,
        heard_from: ProcSet::empty(),
        knowledge,
        zero_knowledge,
        contact: vec![0u64; n * n].into_boxed_slice(),
        fingerprint,
    })
}

/// One digest-exchange round: each processor sends its [`DigestState`]
/// (size `O(n)` words) instead of its entire history, and receivers
/// merge the knowledge sets pointwise.
fn digest_step(
    bits: u8,
    table: &mut ViewTable,
    pattern: &FailurePattern,
    round: Round,
    prev_views: &[ViewId],
) -> Result<Vec<ViewId>, ModelError> {
    let n = pattern.n();
    debug_assert_eq!(n, prev_views.len());
    let mut now: Vec<ViewId> = Vec::with_capacity(n);
    for receiver in ProcessorId::all(n) {
        // Crash-freeze, identical to the FIP kernel: a crashed
        // processor's interned state stops advancing.
        if pattern.crashed_by(receiver, round.end()) {
            now.push(prev_views[receiver.index()]);
            continue;
        }
        let prev = table
            .digest_state(prev_views[receiver.index()])
            .expect("digest step over non-digest state")
            .clone();
        let mut known_procs = prev.known_procs;
        let mut known_zeros = prev.known_zeros;
        let mut heard_from = ProcSet::empty();
        let mut knowledge = prev.knowledge.clone();
        let mut zero_knowledge = prev.zero_knowledge.clone();
        let mut contact = prev.contact.clone();
        let mut h = (bits > 0).then(|| {
            let mut h = FastHasher::default();
            h.write_u8(0x53); // step tag
            h.write_u64(prev.fingerprint);
            h
        });
        for sender in ProcessorId::all(n) {
            if !pattern.delivers(sender, receiver, round) {
                if let Some(h) = h.as_mut() {
                    h.write_u8(0); // undelivered marker, keeps positions aligned
                }
                continue;
            }
            let sent = table
                .digest_state(prev_views[sender.index()])
                .expect("digest step over non-digest state");
            known_procs = known_procs | sent.known_procs;
            known_zeros = known_zeros | sent.known_zeros;
            heard_from.insert(sender);
            // Pointwise merge of the who-heard-what matrix, plus the
            // sender's own first-order sets as its row: knowledge is
            // monotone, so union is the correct combination.
            for (mine, theirs) in knowledge.iter_mut().zip(sent.knowledge.iter()) {
                *mine = *mine | *theirs;
            }
            for (mine, theirs) in zero_knowledge.iter_mut().zip(sent.zero_knowledge.iter()) {
                *mine = *mine | *theirs;
            }
            knowledge[sender.index()] = knowledge[sender.index()] | sent.known_procs;
            zero_knowledge[sender.index()] = zero_knowledge[sender.index()] | sent.known_zeros;
            // Contact knowledge is monotone, so union is the correct
            // combination, exactly as for the knowledge matrices.
            for (mine, theirs) in contact.iter_mut().zip(sent.contact.iter()) {
                *mine |= *theirs;
            }
            // The owner's own row is exact: it heard from `sender`
            // in this round.
            contact[receiver.index() * n + sender.index()] |=
                1u64 << (u32::from(round.number()) - 1).min(63);
            if let Some(h) = h.as_mut() {
                h.write_u8(1); // delivered marker
                h.write_u64(sent.fingerprint);
            }
        }
        // Slide the contact window: rounds at or before
        // `round − CONTACT_WINDOW` are forgotten. Every state at a
        // given time applies the same mask, so the forgetting is
        // deterministic and merge-order independent.
        if round.number() > CONTACT_WINDOW {
            let aged = u32::from(round.number() - CONTACT_WINDOW);
            let keep = 1u64.checked_shl(aged).map_or(0, |b| !(b - 1));
            for e in contact.iter_mut() {
                *e &= keep;
            }
        }
        // Self-knowledge is exact, not an approximation carried over
        // from older digests.
        knowledge[receiver.index()] = known_procs;
        zero_knowledge[receiver.index()] = known_zeros;
        let fingerprint = h.map_or(0, |h| truncate(bits, h.finish()));
        now.push(table.try_digest(DigestState {
            proc: receiver,
            time: prev.time.next(),
            own_value: prev.own_value,
            known_procs,
            known_zeros,
            heard_from,
            knowledge,
            zero_knowledge,
            contact,
            fingerprint,
        })?);
    }
    Ok(now)
}

/// Computes every processor's interned state at every time of the run
/// determined by `(config, pattern)` under the exchange `kind`, up to
/// `horizon`. Under full information a crashed processor's view is
/// frozen at its crash; a crashed processor is faulty, so its post-crash
/// view never participates in any `N`-relative knowledge test.
///
/// Returns `views[time][proc]`.
///
/// # Errors
///
/// Returns [`ModelError::CapacityExceeded`] if the table fills up.
///
/// # Panics
///
/// Panics if `config` and `pattern` disagree on `n`.
pub fn try_exchange_views(
    kind: ExchangeKind,
    config: &InitialConfig,
    pattern: &FailurePattern,
    horizon: Time,
    table: &mut ViewTable,
) -> Result<Vec<Vec<ViewId>>, ModelError> {
    let n = config.n();
    assert_eq!(n, pattern.n());
    let mut views: Vec<Vec<ViewId>> = Vec::with_capacity(horizon.index() + 1);
    let mut leaves = Vec::with_capacity(n);
    for p in ProcessorId::all(n) {
        leaves.push(try_leaf(kind, table, p, n, config.value(p))?);
    }
    views.push(leaves);
    for round in Round::upto(horizon) {
        let prev_views = views.last().expect("time 0 is always present");
        let now = try_step(kind, table, pattern, round, prev_views)?;
        views.push(now);
    }
    Ok(views)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_model::FaultyBehavior;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    fn digest_views(
        bits: u8,
        config: &InitialConfig,
        pattern: &FailurePattern,
        horizon: u16,
        table: &mut ViewTable,
    ) -> Vec<Vec<ViewId>> {
        try_exchange_views(
            ExchangeKind::Digest { bits },
            config,
            pattern,
            Time::new(horizon),
            table,
        )
        .unwrap()
    }

    #[test]
    fn digest_leaf_state() {
        let mut t = ViewTable::new();
        let id = try_leaf(
            ExchangeKind::Digest { bits: 0 },
            &mut t,
            p(1),
            3,
            Value::Zero,
        )
        .unwrap();
        let s = t.digest_state(id).unwrap();
        assert_eq!(s.proc, p(1));
        assert_eq!(s.known_procs, ProcSet::singleton(p(1)));
        assert_eq!(s.known_zeros, ProcSet::singleton(p(1)));
        assert_eq!(s.knowledge[1], ProcSet::singleton(p(1)));
        assert!(s.knowledge[0].is_empty());
        assert_eq!(s.fingerprint, 0);
        // Derived meta flows through the table accessors.
        assert!(t.exists_zero(id));
        assert!(!t.exists_one(id));
        assert_eq!(t.time(id), Time::ZERO);
    }

    #[test]
    fn digest_failure_free_round_learns_everything() {
        let mut t = ViewTable::new();
        let config = InitialConfig::from_bits(3, 0b011);
        let pattern = FailurePattern::failure_free(3);
        let views = digest_views(0, &config, &pattern, 2, &mut t);
        for (q, &v) in views[1].iter().enumerate() {
            assert_eq!(t.known_procs(v), ProcSet::full(3));
            assert!(t.exists_zero(v));
            assert_eq!(t.heard_from(v), ProcSet::full(3) - ProcSet::singleton(p(q)));
        }
        // After the second round everyone knows that everyone knows all
        // values (the who-heard-what matrix saturates).
        for &v in &views[2] {
            let s = t.digest_state(v).unwrap();
            for j in 0..3 {
                assert_eq!(s.knowledge[j], ProcSet::full(3));
            }
        }
    }

    #[test]
    fn digest_states_equal_across_indistinguishable_runs() {
        // The digest analogue of the FIP interning test: with p0 silent
        // from round 1, the others' digests cannot depend on p0's value.
        let mut t = ViewTable::new();
        let pattern = FailurePattern::failure_free(3).with_behavior(
            p(0),
            FaultyBehavior::Crash {
                round: Round::new(1),
                receivers: ProcSet::empty(),
            },
        );
        for bits in [0, 32] {
            let run_a = digest_views(
                bits,
                &InitialConfig::from_bits(3, 0b110),
                &pattern,
                2,
                &mut t,
            );
            let run_b = digest_views(
                bits,
                &InitialConfig::from_bits(3, 0b111),
                &pattern,
                2,
                &mut t,
            );
            for time in 0..=2 {
                for q in 1..3 {
                    assert_eq!(
                        run_a[time][q], run_b[time][q],
                        "bits {bits} time {time} p{q}"
                    );
                }
            }
            assert_ne!(run_a[0][0], run_b[0][0]);
        }
    }

    #[test]
    fn digest_crashed_states_freeze() {
        let mut t = ViewTable::new();
        let pattern = FailurePattern::failure_free(3).with_behavior(
            p(0),
            FaultyBehavior::Crash {
                round: Round::new(1),
                receivers: ProcSet::empty(),
            },
        );
        let views = digest_views(
            0,
            &InitialConfig::uniform(3, Value::One),
            &pattern,
            3,
            &mut t,
        );
        assert_eq!(views[1][0], views[0][0]);
        assert_eq!(views[3][0], views[0][0]);
        assert_ne!(views[1][1], views[0][1]);
    }

    #[test]
    fn digest_contact_window_forgets_old_timing() {
        // Two runs that differ only in a round-1 omission: the windowed
        // contact matrix separates them while round 1 is in the window
        // and merges them once it slides out (knowledge saturates by
        // then, so the timing was the only remaining distinction).
        let horizon = CONTACT_WINDOW + 3;
        let config = InitialConfig::uniform(3, Value::One);
        let clean = FailurePattern::failure_free(3);
        let mut omissions = vec![ProcSet::empty(); horizon as usize];
        omissions[0] = ProcSet::singleton(p(1));
        let lossy = FailurePattern::failure_free(3)
            .with_behavior(p(0), FaultyBehavior::Omission { omissions });
        let mut t = ViewTable::new();
        let run_a = digest_views(0, &config, &clean, horizon, &mut t);
        let run_b = digest_views(0, &config, &lossy, horizon, &mut t);
        for time in 1..=(CONTACT_WINDOW as usize) {
            assert_ne!(run_a[time][1], run_b[time][1], "time {time}");
        }
        for time in (CONTACT_WINDOW as usize + 1)..=(horizon as usize) {
            assert_eq!(run_a[time][1], run_b[time][1], "time {time}");
        }
        // Full information never forgets: the same two runs stay
        // distinguishable for p1 forever.
        let mut ft = ViewTable::new();
        let full = |pattern, table: &mut ViewTable| {
            try_exchange_views(
                ExchangeKind::FullInformation,
                &config,
                pattern,
                Time::new(horizon),
                table,
            )
            .unwrap()
        };
        let full_a = full(&clean, &mut ft);
        let full_b = full(&lossy, &mut ft);
        assert_ne!(full_a[horizon as usize][1], full_b[horizon as usize][1]);
    }

    #[test]
    fn digest_fingerprints_are_table_order_independent() {
        // Interleaving unrelated interning before a run must not change
        // the digest states' content (fingerprints are content-recursive,
        // not id-based).
        let config = InitialConfig::from_bits(3, 0b101);
        let pattern = FailurePattern::failure_free(3);
        let mut clean = ViewTable::new();
        let run_clean = digest_views(64, &config, &pattern, 2, &mut clean);
        let mut noisy = ViewTable::new();
        digest_views(
            64,
            &InitialConfig::uniform(3, Value::One),
            &pattern,
            2,
            &mut noisy,
        );
        let run_noisy = digest_views(64, &config, &pattern, 2, &mut noisy);
        for time in 0..=2 {
            for q in 0..3 {
                assert_eq!(
                    clean.render(run_clean[time][q]),
                    noisy.render(run_noisy[time][q]),
                    "time {time} p{q}"
                );
            }
        }
    }

    #[test]
    fn digest_absorb_round_trips() {
        // Digest states survive shard absorption unchanged (no remap).
        let config = InitialConfig::from_bits(3, 0b010);
        let pattern = FailurePattern::failure_free(3);
        let mut shard = ViewTable::new();
        let views = digest_views(32, &config, &pattern, 2, &mut shard);
        let mut merged = ViewTable::new();
        let remap = merged.absorb_suffix(&shard, 0).unwrap();
        for row in &views {
            for &v in row {
                assert_eq!(shard.render(v), merged.render(remap[v.index()]));
            }
        }
    }
}
