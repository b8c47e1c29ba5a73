//! Small-model checking of the [`CoherenceProtocol`] decision tables.
//!
//! The conformance suites in `crates/mem/tests/` pin individual
//! transitions; this module goes further and *exhaustively explores* every
//! state a small system can reach under a protocol's table, proving safety
//! invariants that no enumerated test list can cover: with up to four
//! caches contending on one line, every interleaving of reads, writes and
//! evictions is walked to a fixpoint (breadth-first, so counterexamples
//! are shortest), and every reached state is checked against
//!
//! * **single writer** — at most one `M` copy, and an `M` or `E` copy is
//!   the *only* valid copy of the line,
//! * **unique owner** — at most one `O` (MOESI) and at most one `Sm`
//!   (Dragon): exactly one cache may hold the writeback obligation of a
//!   shared dirty line,
//! * **single dirty copy** — at most one of `M`/`Sm`/`O` overall,
//! * **state-bit honesty** — every reachable per-cache state encodes
//!   within the protocol's declared
//!   [`state_bits`](CoherenceProtocol::state_bits), so a
//!   `FaultTarget::State` campaign's strike surface is exactly as wide as
//!   the protocol claims.
//!
//! One line suffices: the substrate treats lines independently (there is
//! no cross-line coherence state), so any multi-line violation projects
//! onto a single-line one.  The transition relation below mirrors
//! `laec_mem::MemorySystem`'s write-back/write-allocate flows — the one
//! hierarchy every core count runs, and the shape of every `smpN`
//! platform — consulting the *real* trait objects, so a future table edit
//! is model-checked, not grandfathered.

use std::collections::BTreeMap;

use laec_mem::{CoherenceProtocol, LineState, LocalWriteAction};

/// The per-cache line states of one explored system configuration.
pub type SystemState = Vec<LineState>;

/// One step a cache can take against the shared line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A load; misses snoop and fill, hits do nothing.
    Read,
    /// A store through the write-back/write-allocate path.
    Write,
    /// Capacity eviction of the cache's copy (writeback if dirty).
    Evict,
}

impl Op {
    const ALL: [Op; 3] = [Op::Read, Op::Write, Op::Evict];

    fn label(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::Write => "write",
            Op::Evict => "evict",
        }
    }
}

/// A safety violation with its shortest reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: String,
    /// The offending system state, as state labels per cache.
    pub state: Vec<&'static str>,
    /// The shortest op sequence reaching it from the all-Invalid start.
    pub trace: Vec<String>,
}

/// The result of exhaustively exploring one protocol on one system size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolReport {
    /// The protocol's name.
    pub protocol: String,
    /// Number of caches in the model.
    pub caches: usize,
    /// Distinct reachable system states.
    pub reachable_states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// Violations found (empty = the table is safe at this size).
    pub violations: Vec<Violation>,
}

impl ProtocolReport {
    /// `true` when every invariant held on every reachable state.
    #[must_use]
    pub fn safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Applies `op` by cache `actor` to `state`, mirroring the
/// `laec_mem::MemorySystem` write-back/write-allocate flows.
fn step(table: &dyn CoherenceProtocol, state: &SystemState, actor: usize, op: Op) -> SystemState {
    let mut next = state.clone();
    match op {
        Op::Read => {
            if next[actor].is_valid() {
                return next; // read hit: no coherence activity
            }
            let mut sharers = false;
            for (j, remote) in next.iter_mut().enumerate() {
                if j != actor && remote.is_valid() {
                    sharers = true;
                    *remote = table.snooped_read_next(*remote);
                }
            }
            next[actor] = table.read_fill_state(sharers);
        }
        Op::Write => match table.local_write_action(next[actor]) {
            LocalWriteAction::Silent if next[actor].is_valid() => {
                // Write hit, no bus action: `Cache::write_word_masked`
                // installs Modified.
                next[actor] = LineState::Modified;
            }
            LocalWriteAction::Silent => {
                // Write miss.
                if table.uses_update_bus() {
                    // Dragon allocates with a plain read, then broadcasts
                    // the written word into the surviving copies.
                    let mut sharers = false;
                    for (j, remote) in next.iter_mut().enumerate() {
                        if j != actor && remote.is_valid() {
                            sharers = true;
                            *remote = table.snooped_read_next(*remote);
                        }
                    }
                    if sharers {
                        for (j, remote) in next.iter_mut().enumerate() {
                            if j != actor && remote.is_valid() {
                                *remote = LineState::SharedClean;
                            }
                        }
                        next[actor] = LineState::SharedModified;
                    } else {
                        next[actor] = LineState::Modified;
                    }
                } else {
                    // BusRdX: invalidate every remote copy, fill, write.
                    for (j, remote) in next.iter_mut().enumerate() {
                        if j != actor {
                            *remote = LineState::Invalid;
                        }
                    }
                    next[actor] = LineState::Modified;
                }
            }
            LocalWriteAction::Invalidate => {
                // BusUpgr, then the local write dirties the copy.
                for (j, remote) in next.iter_mut().enumerate() {
                    if j != actor {
                        *remote = LineState::Invalid;
                    }
                }
                next[actor] = LineState::Modified;
            }
            LocalWriteAction::Update => {
                // BusUpd: merge into every remote copy (which moves to
                // SharedClean); hold Sm while copies survive.
                let mut still_shared = false;
                for (j, remote) in next.iter_mut().enumerate() {
                    if j != actor && remote.is_valid() {
                        still_shared = true;
                        *remote = LineState::SharedClean;
                    }
                }
                next[actor] = if still_shared {
                    LineState::SharedModified
                } else {
                    LineState::Modified
                };
            }
        },
        Op::Evict => {
            next[actor] = LineState::Invalid;
        }
    }
    next
}

/// Checks every safety invariant on one state; returns the broken ones.
fn check_invariants(table: &dyn CoherenceProtocol, state: &SystemState) -> Vec<String> {
    let mut broken = Vec::new();
    let count = |wanted: LineState| state.iter().filter(|&&s| s == wanted).count();
    let valid = state.iter().filter(|s| s.is_valid()).count();
    let dirty = state.iter().filter(|s| s.is_dirty()).count();

    let modified = count(LineState::Modified);
    if modified > 1 {
        broken.push(format!("{modified} caches hold M (at most one allowed)"));
    }
    if modified == 1 && valid > 1 {
        broken.push("an M copy coexists with another valid copy".to_string());
    }
    if count(LineState::Exclusive) >= 1 && valid > 1 {
        broken.push("an E copy coexists with another valid copy".to_string());
    }
    let owned = count(LineState::Owned);
    if owned > 1 {
        broken.push(format!("{owned} caches hold O (unique owner violated)"));
    }
    let shared_modified = count(LineState::SharedModified);
    if shared_modified > 1 {
        broken.push(format!(
            "{shared_modified} caches hold Sm (unique dirty sharer violated)"
        ));
    }
    if dirty > 1 {
        broken.push(format!(
            "{dirty} dirty copies (M/Sm/O) hold the writeback obligation at once"
        ));
    }
    let limit = 1u8
        .checked_shl(table.state_bits())
        .map_or(u8::MAX, |shifted| shifted.saturating_sub(1));
    for s in state {
        if s.to_bits() > limit {
            broken.push(format!(
                "state {} encodes as {:#05b}, outside the declared {} state bit(s)",
                s.label(),
                s.to_bits(),
                table.state_bits(),
            ));
        }
    }
    broken
}

/// Exhaustively explores `table` over a `caches`-cache single-line system
/// and checks every reachable state against the safety invariants.
#[must_use]
pub fn check_protocol(table: &dyn CoherenceProtocol, caches: usize) -> ProtocolReport {
    let start: SystemState = vec![LineState::Invalid; caches];
    // BFS with parent pointers so violation traces are shortest.
    let mut parents: BTreeMap<Vec<u8>, Option<(Vec<u8>, String)>> = BTreeMap::new();
    let key = |state: &SystemState| -> Vec<u8> { state.iter().map(|s| s.to_bits()).collect() };
    parents.insert(key(&start), None);
    let mut frontier = std::collections::VecDeque::from([start]);
    let mut violations = Vec::new();
    let mut transitions = 0usize;

    while let Some(state) = frontier.pop_front() {
        for broken in check_invariants(table, &state) {
            violations.push(Violation {
                invariant: broken,
                state: state.iter().map(|s| s.label()).collect(),
                trace: trace_to(&parents, &key(&state)),
            });
        }
        for actor in 0..caches {
            for op in Op::ALL {
                transitions += 1;
                let next = step(table, &state, actor, op);
                let next_key = key(&next);
                if let std::collections::btree_map::Entry::Vacant(slot) = parents.entry(next_key) {
                    slot.insert(Some((key(&state), format!("cache{actor} {}", op.label()))));
                    frontier.push_back(next);
                }
            }
        }
    }

    violations.sort_by(|a, b| (a.trace.len(), &a.invariant).cmp(&(b.trace.len(), &b.invariant)));
    ProtocolReport {
        protocol: table.name().to_string(),
        caches,
        reachable_states: parents.len(),
        transitions,
        violations,
    }
}

/// Reconstructs the op sequence from the all-Invalid start to `state`.
fn trace_to(parents: &BTreeMap<Vec<u8>, Option<(Vec<u8>, String)>>, state: &[u8]) -> Vec<String> {
    let mut trace = Vec::new();
    let mut cursor = state.to_vec();
    while let Some(Some((previous, op))) = parents.get(&cursor) {
        trace.push(op.clone());
        cursor.clone_from(previous);
    }
    trace.reverse();
    trace
}
