//! The pRFT replica: one player's protocol state machine (paper Figure 1 +
//! Section 5.2 view change).
//!
//! Every player — honest, byzantine, or rational — runs this machine;
//! deviation is injected through [`Behavior`] hooks at each decision point.
//! The normal-path round is:
//!
//! 1. **Propose** — the round's leader (`r mod n`) broadcasts a signed block.
//! 2. **Vote** — players validate and broadcast a vote ballot on its hash.
//! 3. **Commit** — on `n − t0` votes for one value, broadcast a commit
//!    certificate; on `n − t0` commits the block is **tentative**.
//! 4. **Reveal** — broadcast the commit certificates observed (`W_i`);
//!    scan everyone's reveals for double signatures (`ConstructProof`).
//!    * `|D_i| > t0` → broadcast **Expose** (PoF), burn deposits, abandon
//!      the round;
//!    * `|M_i| ≥ n − t0` → broadcast **Final**: the block is finalized;
//!    * `> n/2` Final messages also finalize (catch-up).
//!
//! Timeouts, leader equivocation, or `t0+1` observed double-signers trigger
//! the view-change sub-protocol.
//!
//! ## Reproduction decisions (see DESIGN.md §4)
//!
//! * Phase timeouts route through view change (Section 5.2) rather than the
//!   `⊥`-commit branch of Figure 1 — both abandon the round; one code path.
//! * A player that receives `t0 + 1` view-change requests joins the view
//!   change, and one that receives a valid commit-view echoes it; both are
//!   standard amplifications needed for the Consistency property (Claim 2)
//!   when players time out at different moments.
//! * Round synchronization: messages carry their (signed) round; observing
//!   `t0 + 1` distinct players at a higher round fast-forwards a laggard
//!   (at least one of them is non-byzantine).
//! * Catch-up: a laggard asks with `SyncRequest` — on a proposal whose
//!   parent it lacks, and whenever it restarts after a crash — and is
//!   answered by `help_laggard` with every held block and its proof: the
//!   persistent `Final` tally of a final block, the helper's own `Reveal`
//!   (a commit quorum) of a tentative one, which a laggard past that round
//!   appends as `try_reveal` would.

use crate::behavior::{BallotAction, Behavior, ProposeAction};
use crate::collateral::CollateralLedger;
use crate::config::Config;
use crate::messages::{
    view_change_cert_digest, Ballot, CommitCert, CommitViewContent, Phase, PrftMsg, RevealSet,
    SignedBallot, SignerSet, ViewChangeReq,
};
use crate::pof::FraudDetector;
use crate::verify::VerifyCache;
use prft_crypto::{verify_pof, KeyRegistry, SecretKey, Signed};
use prft_sim::{Context, Node, SimTime, TimerId};
use prft_types::{
    Block, Chain, Digest, Height, IdSet, Mempool, MempoolError, NodeId, Round, Transaction, TxId,
};
use std::collections::{hash_map::Entry, BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Observable counters for experiments.
#[derive(Debug, Clone, Default)]
pub struct ReplicaStats {
    /// Rounds this replica has entered.
    pub rounds_entered: u64,
    /// Blocks finalized through the `> n/2` Final catch-up rule.
    pub finalized_catchup: u64,
    /// `Expose` messages this replica broadcast.
    pub exposes_sent: u64,
    /// Valid `Expose` messages received (incl. own).
    pub exposes_applied: u64,
    /// Round fast-forwards via the `t0+1` round-sync rule.
    pub round_syncs: u64,
    /// Times a conflicting proposal pair from the leader was observed.
    pub leader_equivocations: u64,
    /// Finalization times `(round, time)` for latency measurements.
    pub finalize_times: Vec<(Round, SimTime)>,
    /// Rounds abandoned via completed view change.
    pub view_changed_rounds: Vec<Round>,
    /// Fraud-detector convictions this replica produced (each `observe`
    /// call that returned fresh equivocation evidence).
    pub fraud_detections: u64,
    /// Phase-transition log `(round, phase, entered_at)`: each entry opens
    /// a span that the next entry (or the end of the run) closes. The
    /// protocol phases plus `ViewChange` — the raw material for the
    /// Chrome-trace export (`prft_lab::chrome_trace_for`).
    pub phase_transitions: Vec<(Round, Phase, SimTime)>,
}

/// At most one `T` per signer, read back in signer-id order (certificates
/// list the first quorum, so the order is in the emitted bytes). Only
/// verified signers are inserted, so the committee bounds the slots.
#[derive(Clone)]
struct SignerTable<T> {
    slots: Vec<Option<T>>,
    /// The occupied slots; its `len` is the table's.
    signers: SignerSet,
}

impl<T> Default for SignerTable<T> {
    fn default() -> Self {
        SignerTable {
            slots: Vec::new(),
            signers: SignerSet::default(),
        }
    }
}

/// Stores `item` in `id`'s slot of a [`SignerTable`]'s `slots`.
fn put<T: Clone>(slots: &mut Vec<Option<T>>, id: NodeId, item: T) {
    if slots.len() <= id.0 {
        // A word of signers at a time and no spare capacity: doubling from
        // wherever the first arrivals land wastes half the table.
        let len = (id.0 / 64 + 1) * 64;
        slots.reserve_exact(len - slots.len());
        slots.resize(len, None);
    }
    slots[id.0] = Some(item);
}

impl<T: Clone> SignerTable<T> {
    /// Stores `item` as `id`'s, replacing what `id` had.
    fn insert(&mut self, id: NodeId, item: T) {
        put(&mut self.slots, id, item);
        self.signers.insert(id);
    }

    /// The items of the `k` lowest signer ids (all of them if fewer).
    fn first(&self, k: usize) -> Vec<T> {
        self.slots.iter().flatten().take(k).cloned().collect()
    }
}

/// What a round holds about one value (Figure 1's `V_i`, `W_i` and `M`
/// rows for that block hash).
#[derive(Clone, Default)]
struct ValueState {
    /// The leader's propose ballot for this value, once seen. Anything
    /// naming a value makes its entry — a certificate, a Reveal — so "a
    /// proposal was seen" is this field, never the entry's existence.
    propose: Option<SignedBallot>,
    votes: SignerTable<SignedBallot>,
    /// Signers whose vote was already fed to the fraud detector out of a
    /// certificate (fast verify mode only; see `observe_cert_votes`).
    votes_observed: SignerSet,
    commits: SignerTable<Arc<CommitCert>>,
    reveals: SignerSet,
}

/// What one round of the Figure 1 machine, and of the view change that
/// may end it, has collected. Entering a round assigns a fresh one, so
/// nothing here can leak into the next.
#[derive(Clone, Default)]
struct RoundState {
    /// By value, oldest first. Honest traffic has one value per round and
    /// an equivocator adds a second, so a lookup scans from the newest end.
    values: Vec<(Digest, ValueState)>,
    detector: FraudDetector,
    voted: bool,
    committed: bool,
    revealed: bool,
    final_sent: bool,
    exposed: bool,
    tentative: Option<(Digest, Height)>,
    /// Whether we already asked for sync this round (rate limit).
    sync_requested: bool,
    /// Byzantine split commits waiting for their side's vote certificate:
    /// (value, recipients).
    // BTreeSet so queued split sides emit in a stable recipient order —
    // deterministic replay is a workspace-wide invariant.
    pending_commit_splits: Vec<(Digest, BTreeSet<NodeId>)>,
    vc_reqs: BTreeMap<NodeId, Signed<ViewChangeReq>>,
    vc_sent: bool,
    cv_senders: BTreeSet<NodeId>,
    cv_sent: bool,
    discontinued: bool,
}

impl RoundState {
    /// A round of a committee of `n`, holding nothing yet.
    fn new(n: usize) -> RoundState {
        RoundState {
            detector: FraudDetector::with_capacity(n),
            ..RoundState::default()
        }
    }

    /// What this round holds about `value`, if anything named it.
    fn value(&self, value: &Digest) -> Option<&ValueState> {
        let found = self.values.iter().rev().find(|(v, _)| v == value);
        found.map(|(_, held)| held)
    }

    /// The votes held for `value` by the `k` lowest signer ids (`V_i`).
    fn votes_for(&self, value: &Digest, k: usize) -> Vec<SignedBallot> {
        self.value(value)
            .map_or_else(Vec::new, |e| e.votes.first(k))
    }

    /// The commit certificates held for `value`, likewise (`W_i`).
    fn commits_for(&self, value: &Digest, k: usize) -> Vec<Arc<CommitCert>> {
        self.value(value)
            .map_or_else(Vec::new, |e| e.commits.first(k))
    }

    /// As [`Self::value`], making the entry if nothing named `value` yet.
    fn value_mut(&mut self, value: Digest) -> &mut ValueState {
        let at = self.values.iter().rposition(|(v, _)| *v == value);
        let at = at.unwrap_or_else(|| {
            self.values.push((value, ValueState::default()));
            self.values.len() - 1
        });
        &mut self.values[at].1
    }
}

/// Why a round ends.
enum RoundExit {
    /// The block of this round became final — or, for a laggard adopting
    /// from the `Final` tallies, the block of the later round named.
    Finalized(Round),
    /// A valid `Expose` named this round.
    Exposed,
    /// The view change completed.
    ViewChanged,
    /// `t0 + 1` peers were heard at the round named.
    Synced(Round),
}

/// One player's pRFT state machine. Implements [`prft_sim::Node`].
///
/// `Clone` supports checkpoint/fork warm starts: the clone is a deep copy
/// except for behavior-shared coordination state (`Arc`-held blackboards),
/// which stays aliased until the fork driver calls
/// [`Replica::rebind_behavior_state`] with its own copy, and `Arc`-held
/// certificates, which are deliberately shared so the clone's
/// address-keyed [`VerifyCache`] stays valid.
#[derive(Clone)]
pub struct Replica {
    cfg: Config,
    key: SecretKey,
    registry: KeyRegistry,
    behavior: Box<dyn Behavior>,

    chain: Chain,
    mempool: Mempool,
    collateral: CollateralLedger,
    /// Every valid proposal seen — the block and its leader's signed
    /// `Propose` ballot — by hash (for catch-up reconstruction and laggard
    /// help). Genesis is not a proposal and has no entry.
    block_store: HashMap<Digest, (Block, SignedBallot)>,
    /// Persistent Final tallies by value (survive round changes: laggards
    /// finalize from them; the signed ballots are kept so they can be
    /// forwarded to recovering peers). Ordered, because [`Self::reconcile`]
    /// acts on the entries in iteration order: which of two conflicting
    /// majority values a laggard adopts must be a function of its state,
    /// not of the process's hash seed.
    final_tally: BTreeMap<Digest, BTreeMap<NodeId, SignedBallot>>,
    /// The values whose tally reached [`Config::final_majority`] and that
    /// were not yet seen final in our chain: what [`Self::reconcile`] may
    /// still have to act on, in tally order.
    final_pending: BTreeSet<Digest>,
    /// The Reveal — ballot and commit quorum — of each block tentative
    /// here (for laggard catch-up): ours, or the one a laggard adopted.
    /// Dropped once the block is final or rolled back.
    reveal_store: HashMap<Digest, (SignedBallot, Arc<RevealSet>)>,
    /// By peer: the highest round at which we already helped it (rate limit).
    helped_at: Vec<Option<Round>>,
    /// Tx occurrences finalized while their id was already final here.
    finalized_twice: u64,
    /// Pending txs the finalization walk removed from the pool.
    finalized_exits: usize,

    round: Round,
    phase: Phase,
    consecutive_failures: u32,
    passive: bool,
    rounds_done: u64,
    timer: Option<(TimerId, Round)>,
    /// What the current round holds; [`Self::start_round`] replaces it whole.
    rs: RoundState,

    // ---- cross-round machinery ----
    future: BTreeMap<u64, Vec<(NodeId, PrftMsg)>>,
    peer_round: Vec<u64>,
    /// Memoized ballot/certificate verification (the large-n fast path;
    /// pass-through when the reference verifier is installed). Pruned at
    /// round starts, so it spans the rounds that can still be looked up.
    cache: VerifyCache,

    stats: ReplicaStats,
}

impl Replica {
    /// Creates a replica with the given strategy.
    pub fn new(
        cfg: Config,
        key: SecretKey,
        registry: KeyRegistry,
        behavior: Box<dyn Behavior>,
    ) -> Self {
        let n = cfg.n;
        Replica {
            collateral: CollateralLedger::new(1),
            cache: VerifyCache::default(),
            cfg,
            key,
            registry,
            behavior,
            chain: Chain::new(Block::genesis()),
            mempool: Mempool::new(),
            block_store: HashMap::new(),
            final_tally: BTreeMap::new(),
            final_pending: BTreeSet::new(),
            reveal_store: HashMap::new(),
            helped_at: vec![None; n],
            finalized_twice: 0,
            finalized_exits: 0,
            round: Round(0),
            phase: Phase::Propose,
            consecutive_failures: 0,
            passive: false,
            rounds_done: 0,
            timer: None,
            rs: RoundState::new(n),
            future: BTreeMap::new(),
            peer_round: vec![0; n],
            stats: ReplicaStats::default(),
        }
    }

    // ---------------------------------------------------------- accessors

    /// This replica's identity.
    pub fn id(&self) -> NodeId {
        self.key.signer()
    }

    /// The ledger.
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The mempool (mutable for harness-side transaction submission).
    pub fn mempool_mut(&mut self) -> &mut Mempool {
        &mut self.mempool
    }

    /// The mempool.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// The pool census: every id this seat's pool ever admitted is still
    /// pending here or final in its chain, and no id was finalized twice.
    /// A pending tx leaves the pool only in the finalization walk, which
    /// counts the txs it removes, so the census is a sum — admitted =
    /// pending + removed at finalization — with no set rebuilt.
    pub fn census_holds(&self) -> bool {
        let placed = self.mempool.len() + self.finalized_exits;
        self.finalized_twice == 0 && self.mempool.admitted_len() == placed
    }

    /// This replica's view of deposits and burns.
    pub fn collateral(&self) -> &CollateralLedger {
        &self.collateral
    }

    /// The ledger, mutable: a burn made here bypasses `Expose`
    /// verification, which is what the `burns_proven` self-check of a
    /// finished run catches.
    pub fn collateral_mut(&mut self) -> &mut CollateralLedger {
        &mut self.collateral
    }

    /// Whether every burn in this replica's ledger is proven under its own
    /// trusted setup ([`CollateralLedger::proven`]).
    pub fn burns_proven(&self) -> bool {
        self.collateral.proven(&self.registry)
    }

    /// Experiment counters.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// Current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether the round budget ([`Config::max_rounds`]) is spent: the
    /// replica takes part in no round, and only answers laggards.
    pub fn is_passive(&self) -> bool {
        self.passive
    }

    /// Swaps this replica's strategy at runtime, returning the previous
    /// one. The protocol state machine is untouched — only the decision
    /// points change — which is exactly the paper's mid-stream deviation
    /// model (a colluder defecting to `π_0`, an honest player turning
    /// `π_abs`): the player keeps its keys, chain, and round position.
    pub fn set_behavior(&mut self, behavior: Box<dyn Behavior>) -> Box<dyn Behavior> {
        std::mem::replace(&mut self.behavior, behavior)
    }

    /// Swaps this seat's verifier before its run starts: how the fast ≡
    /// reference suites put the reference verifier into a committee they
    /// have already built.
    pub fn install_verifier(&mut self, cache: VerifyCache) {
        self.cache = cache;
    }

    /// Re-points the behavior's shared coordination state after a
    /// checkpoint fork (see [`Behavior::rebind_shared`]). No-op for
    /// uncoordinated strategies.
    pub fn rebind_behavior_state(&mut self, state: &dyn std::any::Any) {
        self.behavior.rebind_shared(state);
    }

    /// The strategy label of this replica's behavior.
    pub fn behavior_label(&self) -> &'static str {
        self.behavior.label()
    }

    /// Protocol configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    fn leader(&self, round: Round) -> NodeId {
        round.leader(self.cfg.n)
    }

    fn quorum(&self) -> usize {
        self.cfg.quorum()
    }

    // ---------------------------------------------------------- round flow

    fn start_round(&mut self, ctx: &mut Context<PrftMsg>) {
        if self.cfg.max_rounds != 0 && self.rounds_done >= self.cfg.max_rounds {
            self.passive = true;
            self.timer = None;
            return;
        }
        self.stats.rounds_entered += 1;
        self.rs = RoundState::new(self.cfg.n);
        self.cache.prune_before(self.round);
        self.enter_phase(ctx, Phase::Propose);

        if self.leader(self.round) == self.id() {
            self.propose(ctx);
        }

        // Replay the messages buffered for this round; older ones are stale.
        let later = self.future.split_off(&(self.round.0 + 1));
        let mut due = std::mem::replace(&mut self.future, later);
        for (from, msg) in due.remove(&self.round.0).unwrap_or_default() {
            self.dispatch(ctx, from, msg);
        }
    }

    /// The one way out of a round: books why it ended — in the stats and
    /// in the timeout backoff — and enters the round that follows.
    fn exit_round(&mut self, ctx: &mut Context<PrftMsg>, why: RoundExit) {
        let to = match why {
            RoundExit::Finalized(round) => {
                self.stats.finalize_times.push((round, ctx.now()));
                self.consecutive_failures = 0;
                round.next()
            }
            RoundExit::Exposed => {
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                self.round.next()
            }
            RoundExit::ViewChanged => {
                self.stats.view_changed_rounds.push(self.round);
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                self.round.next()
            }
            RoundExit::Synced(round) => {
                self.stats.round_syncs += 1;
                round
            }
        };
        self.advance_round(ctx, to);
    }

    fn advance_round(&mut self, ctx: &mut Context<PrftMsg>, to: Round) {
        debug_assert!(to > self.round);
        self.round = to;
        self.rounds_done += 1;
        self.start_round(ctx);
    }

    fn arm_timer(&mut self, ctx: &mut Context<PrftMsg>) {
        let delay = self.cfg.timeout_after(self.consecutive_failures);
        let id = ctx.set_timer(delay);
        self.timer = Some((id, self.round));
    }

    fn enter_phase(&mut self, ctx: &mut Context<PrftMsg>, phase: Phase) {
        self.stats
            .phase_transitions
            .push((self.round, phase, ctx.now()));
        self.phase = phase;
        self.arm_timer(ctx);
    }

    /// The leader's block: a batch read from the mempool, passing over
    /// the txs already carried by our own not-yet-final chain suffix.
    fn honest_block(&mut self) -> Block {
        let in_suffix: IdSet<TxId> = self
            .chain
            .iter()
            .skip(self.chain.final_height() as usize + 1)
            .flat_map(|e| e.block.txs.iter().map(|tx| tx.id))
            .collect();
        let txs = self
            .mempool
            .batch(self.cfg.max_batch, self.behavior.censor_set(), |id| {
                in_suffix.contains(&id)
            });
        Block::new(self.round, self.chain.tip(), self.id(), txs)
    }

    fn propose(&mut self, ctx: &mut Context<PrftMsg>) {
        let honest = self.honest_block();
        let action = self.behavior.on_propose(self.round, &honest);
        match action {
            ProposeAction::Honest => self.broadcast_proposal(ctx, honest, None),
            ProposeAction::Equivocate { a, b, b_recipients } => {
                self.broadcast_proposal(ctx, a, Some((b, b_recipients)));
            }
            ProposeAction::Silent => {}
        }
    }

    fn broadcast_proposal(
        &mut self,
        ctx: &mut Context<PrftMsg>,
        block: Block,
        alt: Option<(Block, HashSet<NodeId>)>,
    ) {
        let make = |key: &SecretKey, round: Round, block: &Block| {
            let ballot = Signed::sign(Ballot::new(round, Phase::Propose, block.id()), key);
            PrftMsg::Propose {
                ballot,
                block: block.clone(),
            }
        };
        let msg = make(&self.key, self.round, &block);
        match alt {
            None => ctx.broadcast(msg),
            Some((block_b, b_recipients)) => {
                let msg_b = make(&self.key, self.round, &block_b);
                self.send_split(ctx, msg, msg_b, &b_recipients);
            }
        }
    }

    /// Sends `b` to every seat in `b_recipients` and `a` to every other
    /// seat, in seat order.
    fn send_split(
        &self,
        ctx: &mut Context<PrftMsg>,
        a: PrftMsg,
        b: PrftMsg,
        b_recipients: &HashSet<NodeId>,
    ) {
        for to in (0..self.cfg.n).map(NodeId) {
            let msg = if b_recipients.contains(&to) { &b } else { &a };
            ctx.send(to, msg.clone());
        }
    }

    /// Applies a [`BallotAction`] for `phase` around honest value `value`,
    /// attaching `payload(value)` to each ballot (certificates differ by
    /// phase). Returns whether anything was sent.
    fn emit_ballot(
        &mut self,
        ctx: &mut Context<PrftMsg>,
        phase: Phase,
        value: Digest,
        action: BallotAction,
        wrap: &dyn Fn(&Replica, SignedBallot, Digest) -> PrftMsg,
    ) -> bool {
        let sign =
            |this: &Replica, v: Digest| Signed::sign(Ballot::new(this.round, phase, v), &this.key);
        let v = match action {
            BallotAction::Honest => value,
            BallotAction::Replace(v) => v,
            BallotAction::Split { b, b_recipients } => {
                let msg_a = wrap(self, sign(self, value), value);
                let msg_b = wrap(self, sign(self, b), b);
                self.send_split(ctx, msg_a, msg_b, &b_recipients);
                return true;
            }
            BallotAction::Silent => return false,
        };
        ctx.broadcast(wrap(self, sign(self, v), v));
        true
    }

    // ------------------------------------------------------------ handlers

    /// Feeds a ballot to the fraud detector and reacts: leader equivocation
    /// triggers a view change (paper Section 5.2 trigger #2); more than t0
    /// convictions trigger an `Expose` (trigger #3 routes through the same
    /// evidence).
    fn observe_and_react(&mut self, ctx: &mut Context<PrftMsg>, ballot: &SignedBallot) {
        if !self.cfg.accountable {
            return; // ablation: no fraud detection at all
        }
        let Some(evidence) = self.rs.detector.observe(ballot) else {
            return;
        };
        self.stats.fraud_detections += 1;
        let round = ballot.payload.round;
        if evidence.accused() == self.leader(round) && ballot.payload.phase == Phase::Propose {
            self.stats.leader_equivocations += 1;
            self.trigger_view_change(ctx);
        }
        self.maybe_expose(ctx);
    }

    /// The signature-free conditions of a valid proposal: a `Propose`
    /// ballot by its round's leader whose value is the hash of `block`, a
    /// block for that round. [`Self::admit`] checks the signature
    /// only of a proposal that passes all of this. The block's id is read
    /// from its batch's memo when the leader already hashed it (every
    /// copy of one proposal shares the leader's batch), so a seat hashes
    /// only a separately built block.
    fn proposal_binds(&self, ballot: &SignedBallot, block: &Block) -> bool {
        let Ballot {
            round,
            phase,
            value,
        } = ballot.payload;
        phase == Phase::Propose
            && ballot.signer() == self.leader(round)
            && block.round == round
            && block.id() == value
    }

    /// Checks a proposal once, on arrival and whatever its round, and
    /// stashes a valid one's block (content-addressed data: a laggard that
    /// round-syncs past it can still rebuild its chain from the Final
    /// tallies). A message that is not admitted is never handled.
    fn admit(&mut self, ctx: &mut Context<PrftMsg>, msg: &PrftMsg) -> bool {
        let PrftMsg::Propose { ballot, block } = msg else {
            return true; // only a proposal is checked before it is handled
        };
        let (registry, value) = (&self.registry, ballot.payload.value);
        if !self.proposal_binds(ballot, block) || !self.cache.verify_ballot(ballot, registry) {
            return false;
        }
        if let Entry::Vacant(slot) = self.block_store.entry(value) {
            slot.insert((block.clone(), ballot.clone()));
            // A late block may unblock pending Final-tally adoptions.
            self.reconcile(ctx);
        }
        true
    }

    /// Decides the vote on a proposal [`Self::admit`] admitted.
    fn handle_propose(&mut self, ctx: &mut Context<PrftMsg>, ballot: SignedBallot, block: Block) {
        let value = ballot.payload.value;
        self.rs.value_mut(value).propose = Some(ballot.clone());

        // Leader equivocation is itself double-sign evidence and a
        // view-change trigger.
        let convicted_before = self.rs.detector.convicted_count();
        self.observe_and_react(ctx, &ballot);
        if self.rs.detector.convicted_count() > convicted_before {
            return; // equivocation: don't vote on either proposal
        }

        if self.rs.discontinued || self.rs.voted {
            return;
        }
        // Vote only on proposals extending our tip (validity of txs wrt
        // confirmed state).
        if block.parent != self.chain.tip() {
            // If the parent is nowhere in our chain, we are missing history
            // (e.g. after a crash): ask the committee to re-send it.
            let parent_known = self.chain.height_of(&block.parent).is_some();
            if !parent_known && !self.rs.sync_requested {
                self.rs.sync_requested = true;
                ctx.broadcast_others(PrftMsg::SyncRequest { round: self.round });
            }
            return;
        }
        if self.phase == Phase::Propose {
            self.enter_phase(ctx, Phase::Vote);
        }
        let action = self.behavior.on_ballot(Phase::Vote, self.round, value);
        let sent = self.emit_ballot(ctx, Phase::Vote, value, action, &|this, b, v| {
            PrftMsg::Vote {
                ballot: b,
                propose: this.rs.value(&v).and_then(|e| e.propose.clone()),
            }
        });
        self.rs.voted = sent;
    }

    fn handle_vote(
        &mut self,
        ctx: &mut Context<PrftMsg>,
        ballot: SignedBallot,
        propose: Option<SignedBallot>,
    ) {
        if ballot.payload.phase != Phase::Vote || !self.cache.verify_ballot(&ballot, &self.registry)
        {
            return;
        }
        // A validly signed ballot is double-sign evidence no matter what —
        // feed the detector before deciding whether the vote can be counted.
        self.observe_and_react(ctx, &ballot);
        let round = ballot.payload.round;
        // Validate the attached propose ballot (`s_pro`): it must be the
        // round leader's signature over the voted value. A valid attachment
        // is how equivocation evidence propagates with the votes.
        match &propose {
            Some(p) => {
                if p.payload.phase != Phase::Propose
                    || p.payload.round != round
                    || p.payload.value != ballot.payload.value
                    || p.signer() != self.leader(round)
                    || !self.cache.verify_ballot(p, &self.registry)
                {
                    return; // malformed attachment: don't count the vote
                }
                let seen = &mut self.rs.value_mut(p.payload.value).propose;
                seen.get_or_insert_with(|| p.clone());
                let p = p.clone();
                self.observe_and_react(ctx, &p);
            }
            None => {
                // Without `s_pro` the vote only counts if we already hold
                // the proposal it endorses.
                let held = self.rs.value(&ballot.payload.value);
                if held.is_none_or(|e| e.propose.is_none()) {
                    return;
                }
            }
        }
        if self.rs.discontinued {
            return;
        }
        let value = ballot.payload.value;
        let votes = &mut self.rs.value_mut(value).votes;
        votes.insert(ballot.signer(), ballot);
        self.try_commit(ctx, value);
    }

    fn try_commit(&mut self, ctx: &mut Context<PrftMsg>, value: Digest) {
        // Byzantine split commits wait for each side's certificate; drain
        // any that have become emittable before the `committed` guard.
        self.emit_pending_commit_splits(ctx);
        if self.rs.committed || self.rs.discontinued {
            return;
        }
        let quorum = self.quorum();
        if self.rs.value(&value).map_or(0, |e| e.votes.signers.len()) < quorum {
            return;
        }
        let action = self.behavior.on_ballot(Phase::Commit, self.round, value);
        match action {
            BallotAction::Split { b, b_recipients } => {
                // Queue both sides; each is emitted as soon as a valid vote
                // certificate for its value exists (the collusion harvests
                // the other side's votes from certificates in flight).
                // BTreeSet: recipients are iterated when the queued sides
                // are emitted, and send order must not depend on HashSet
                // hashing state or replays diverge run-to-run.
                let a_recipients: BTreeSet<NodeId> = (0..self.cfg.n)
                    .map(NodeId)
                    .filter(|id| !b_recipients.contains(id))
                    .collect();
                self.rs.pending_commit_splits.push((value, a_recipients));
                self.rs
                    .pending_commit_splits
                    .push((b, b_recipients.into_iter().collect()));
                self.rs.committed = true;
                if self.phase == Phase::Vote {
                    self.enter_phase(ctx, Phase::Commit);
                }
                self.emit_pending_commit_splits(ctx);
            }
            action => {
                // A replaced value is certified by whatever votes are held
                // for it; by the honest value's if there are none.
                let sent = self.emit_ballot(ctx, Phase::Commit, value, action, &|this, b, v| {
                    let mut votes = this.rs.votes_for(&v, quorum);
                    if votes.is_empty() {
                        votes = this.rs.votes_for(&value, quorum);
                    }
                    PrftMsg::Commit {
                        cert: Arc::new(CommitCert::new(b, votes)),
                    }
                });
                if sent {
                    self.rs.committed = true;
                    if self.phase == Phase::Vote {
                        self.enter_phase(ctx, Phase::Commit);
                    }
                }
            }
        }
    }

    /// Emits queued split-commit sides whose vote certificate is ready.
    fn emit_pending_commit_splits(&mut self, ctx: &mut Context<PrftMsg>) {
        if self.rs.pending_commit_splits.is_empty() {
            return;
        }
        let quorum = self.quorum();
        let mut remaining = Vec::new();
        let pending = std::mem::take(&mut self.rs.pending_commit_splits);
        for (v, recipients) in pending {
            let votes = self.rs.votes_for(&v, quorum);
            if votes.len() < quorum {
                remaining.push((v, recipients));
                continue;
            }
            let ballot = Signed::sign(Ballot::new(self.round, Phase::Commit, v), &self.key);
            let msg = PrftMsg::Commit {
                cert: Arc::new(CommitCert::new(ballot, votes)),
            };
            for to in &recipients {
                ctx.send(*to, msg.clone());
            }
        }
        self.rs.pending_commit_splits = remaining;
    }

    fn handle_commit(&mut self, ctx: &mut Context<PrftMsg>, cert: Arc<CommitCert>) {
        if !self.cache.verify_commit(&cert, &self.registry) {
            return;
        }
        // Commit certificates must carry a valid vote quorum.
        let quorum = self.quorum();
        let verdict = self.cache.validate_cert(&cert, &self.registry, quorum);
        if !verdict.ok {
            return;
        }
        // A cached verdict means this same allocation was walked and
        // observed earlier this round; re-observing identical ballots is
        // a detector no-op (see `CertVerdict::cached`), so skip it.
        if !verdict.cached {
            self.observe_and_react(ctx, cert.commit());
            self.observe_cert_votes(ctx, &cert);
        }
        if self.rs.discontinued {
            return;
        }
        let value = cert.commit().payload.value;
        // Harvest the certificate's votes: a valid signed vote counts no
        // matter how it arrived (it may complete our own vote quorum). The
        // walk already proved every vote endorses `value`, and only the
        // signers not held yet are visited (none, mostly, once the round's
        // first certificate is harvested) — a vote's content is determined
        // by (round, value, signer), so a held one is the identical ballot.
        let entry = self.rs.value_mut(value);
        let (slots, votes) = (&mut entry.votes.slots, cert.votes());
        cert.absorb_signers(&mut entry.votes.signers, |i| {
            put(slots, votes[i].signer(), votes[i].clone());
        });
        entry.commits.insert(cert.commit().signer(), cert);
        self.try_commit(ctx, value);
        self.try_reveal(ctx, value);
    }

    /// Feeds a freshly validated certificate's votes to the fraud
    /// detector, skipping a (value, signer) pair already observed out of a
    /// certificate this round: a *valid* vote's bytes are fully determined
    /// by (round, value, signer) — a valid tag is a deterministic function
    /// of signer and payload — so the repeat is exactly the identical-content
    /// no-op `FraudDetector::observe` guarantees, whichever verify mode
    /// validated it. Equivocations still pair up because the signer set is
    /// per value.
    fn observe_cert_votes(&mut self, ctx: &mut Context<PrftMsg>, cert: &CommitCert) {
        if !self.cfg.accountable {
            return; // `observe_and_react` would drop every vote
        }
        let value = cert.commit().payload.value;
        let mut fresh = Vec::new();
        let seen = &mut self.rs.value_mut(value).votes_observed;
        cert.absorb_signers(seen, |i| fresh.push(i));
        for i in fresh {
            self.observe_and_react(ctx, &cert.votes()[i]);
        }
    }

    fn try_reveal(&mut self, ctx: &mut Context<PrftMsg>, value: Digest) {
        if self.rs.revealed || self.rs.discontinued {
            return;
        }
        let quorum = self.quorum();
        if self.rs.value(&value).map_or(0, |e| e.commits.signers.len()) < quorum {
            return;
        }
        // Tentative consensus requires knowing the block and that it
        // extends our chain.
        let Some((block, _)) = self.block_store.get(&value) else {
            return;
        };
        if block.parent != self.chain.tip() {
            return;
        }
        let height = match self.chain.append_tentative_hashed(block.clone(), value) {
            Ok(h) => h,
            Err(_) => return,
        };
        self.rs.tentative = Some((value, height));

        // Ablation: without the Reveal phase the commit quorum is final —
        // cheaper by a factor of n in bits, but double-signers go uncaught.
        if !self.cfg.accountable {
            self.rs.revealed = true;
            self.finalize_current(ctx, value, height);
            return;
        }

        // `W_i`: Arc handles onto the certificate allocations already in
        // flight (the Commit broadcasts), shared under one outer Arc so a
        // Reveal fan-out clones 8 bytes per recipient, not q certificates
        // — and receivers' cert memos hit on the very same allocations. A
        // replaced value reveals the certificates held for it; the honest
        // value's if there are none.
        let action = self.behavior.on_ballot(Phase::Reveal, self.round, value);
        let sent = self.emit_ballot(ctx, Phase::Reveal, value, action, &|this, b, v| {
            let mut certs = this.rs.commits_for(&v, quorum);
            if certs.is_empty() {
                certs = this.rs.commits_for(&value, quorum);
            }
            PrftMsg::Reveal {
                ballot: b,
                certs: Arc::new(RevealSet::new(certs)),
            }
        });
        if sent {
            self.rs.revealed = true;
            if self.phase == Phase::Commit {
                self.enter_phase(ctx, Phase::Reveal);
            }
        }
    }

    fn handle_reveal(
        &mut self,
        ctx: &mut Context<PrftMsg>,
        ballot: SignedBallot,
        certs: Arc<RevealSet>,
    ) {
        if ballot.payload.phase != Phase::Reveal
            || !self.cache.verify_ballot(&ballot, &self.registry)
        {
            return;
        }
        self.observe_and_react(ctx, &ballot);
        // Scan the revealed certificates — this is ConstructProof's input
        // matrix M. Invalid certificates are ignored wholesale. On the
        // fast path a certificate already validated at Commit time is a
        // single probe here (same allocation), and first-time walks
        // dedupe their vote ballots against the whole batch. Cached
        // certificates also skip detector re-observation — the O(q³)
        // per-replica-round term that would otherwise dominate large-n
        // accountable wall time — because a hit proves the same ballots
        // were already observed this round (see `CertVerdict::cached`).
        // Validation and observation touch disjoint state, so the whole
        // batch is validated first.
        let quorum = self.quorum();
        for i in self.cache.validate_reveal(&certs, &self.registry, quorum) {
            self.observe_and_react(ctx, certs[i].commit());
            self.observe_cert_votes(ctx, &certs[i]);
        }
        let value = ballot.payload.value;
        if ballot.signer() == self.id() && self.rs.tentative.is_some_and(|(v, _)| v == value) {
            self.reveal_store.insert(value, (ballot.clone(), certs));
        }
        if self.rs.discontinued {
            return;
        }
        let reveals = &mut self.rs.value_mut(value).reveals;
        reveals.insert(ballot.signer());
        self.try_finalize(ctx);
    }

    fn try_finalize(&mut self, ctx: &mut Context<PrftMsg>) {
        if self.rs.final_sent || self.rs.exposed || self.rs.discontinued {
            return;
        }
        // Figure 1 ordering: Expose takes priority over Final.
        if self.rs.detector.convicted_count() > self.cfg.t0 {
            self.maybe_expose(ctx);
            return;
        }
        let Some((value, height)) = self.rs.tentative else {
            return;
        };
        if self.rs.value(&value).map_or(0, |e| e.reveals.len()) < self.quorum() {
            return;
        }
        self.finalize_current(ctx, value, height);
    }

    /// Broadcasts `Final` for the tentative block and finalizes it.
    /// Reaching the Final broadcast conditions *is* final consensus for
    /// this player (paper Section 5.1), whatever its strategy then sends.
    fn finalize_current(&mut self, ctx: &mut Context<PrftMsg>, value: Digest, height: Height) {
        debug_assert_eq!(self.rs.tentative.map(|(v, _)| v), Some(value));
        let action = self.behavior.on_ballot(Phase::Final, self.round, value);
        let sent = self.emit_ballot(ctx, Phase::Final, value, action, &|_, b, _| {
            PrftMsg::Final { ballot: b }
        });
        if sent {
            self.rs.final_sent = true;
        }
        if self.finalize_to(ctx, height).is_err() {
            return;
        }
        self.exit_round(ctx, RoundExit::Finalized(self.round));
    }

    fn maybe_expose(&mut self, ctx: &mut Context<PrftMsg>) {
        if self.rs.exposed || self.rs.detector.convicted_count() <= self.cfg.t0 {
            return;
        }
        if !self.behavior.send_expose() {
            return;
        }
        self.rs.exposed = true;
        self.stats.exposes_sent += 1;
        ctx.broadcast(PrftMsg::Expose {
            round: self.round,
            accuser: self.id(),
            evidence: self.rs.detector.evidence(),
        });
    }

    fn handle_expose(
        &mut self,
        ctx: &mut Context<PrftMsg>,
        round: Round,
        evidence: Vec<crate::messages::BallotEvidence>,
    ) {
        // Exposes are valid whenever the PoF verifies, regardless of the
        // receiver's current round (burns are permanent).
        let (cache, registry) = (&mut self.cache, &self.registry);
        let Some(guilty) = verify_pof(&evidence, self.cfg.t0, |s| cache.verify_ballot(s, registry))
        else {
            return;
        };
        self.stats.exposes_applied += 1;
        for (g, proof) in guilty {
            self.collateral.burn(g, proof.clone());
        }
        // Abandon the exposed round: `Stash(D_j), r := r + 1`. The
        // tentative block (if any) stays in the chain to be finalized or
        // reconciled later (Algorand-style).
        if round == self.round {
            self.exit_round(ctx, RoundExit::Exposed);
        }
    }

    fn handle_final(&mut self, ctx: &mut Context<PrftMsg>, ballot: SignedBallot) {
        if ballot.payload.phase != Phase::Final
            || !self.cache.verify_ballot(&ballot, &self.registry)
        {
            return;
        }
        if ballot.payload.round == self.round {
            self.observe_and_react(ctx, &ballot);
        }
        let value = ballot.payload.value;
        let tally = self.final_tally.entry(value).or_default();
        tally.insert(ballot.signer(), ballot);
        if tally.len() >= self.cfg.final_majority() {
            self.final_pending.insert(value);
        }
        self.reconcile(ctx);
    }

    /// The values [`Self::reconcile`] may still have to act on, in tally
    /// order: a `> n/2` Final tally and not final in our chain yet.
    /// Finality never rolls back, so a value that is final here stays a
    /// no-op for good and leaves `final_pending` now; that keeps a `Final`
    /// message's cost at what is outstanding instead of at every block
    /// finalized so far. (The tally itself is never pruned:
    /// [`Self::help_laggard`] forwards its ballots.)
    fn reconcile_candidates(&mut self) -> Vec<Digest> {
        let (chain, final_height) = (&self.chain, self.chain.final_height());
        self.final_pending
            .retain(|value| chain.height_of(value).is_none_or(|h| h.0 > final_height));
        self.final_pending.iter().copied().collect()
    }

    /// Adopts any block with a `> n/2` Final tally that connects to our
    /// chain; rolls back conflicting *tentative* suffixes. Runs to fixpoint
    /// so multi-round laggards catch up in one pass.
    fn reconcile(&mut self, ctx: &mut Context<PrftMsg>) {
        loop {
            let mut progressed = false;
            for value in self.reconcile_candidates() {
                let Some((block, _)) = self.block_store.get(&value) else {
                    continue;
                };
                let round = block.round;
                // Already in chain? Finalize it (and ancestors).
                if let Some(h) = self.chain.height_of(&value) {
                    if self
                        .chain
                        .at(h)
                        .map(|e| e.status == prft_types::BlockStatus::Tentative)
                        .unwrap_or(false)
                    {
                        let _ = self.finalize_to(ctx, h);
                        progressed = true;
                        if self.rs.tentative.map(|(v, _)| v) == Some(value) && self.round == round {
                            // Our own round resolved externally.
                            self.stats.finalized_catchup += 1;
                            self.exit_round(ctx, RoundExit::Finalized(self.round));
                        }
                    }
                    continue;
                }
                // Connects to tip?
                if block.parent == self.chain.tip() {
                    if let Ok(h) = self.chain.append_tentative_hashed(block.clone(), value) {
                        let _ = self.finalize_to(ctx, h);
                        self.stats.finalized_catchup += 1;
                        progressed = true;
                        if self.round <= round {
                            self.exit_round(ctx, RoundExit::Finalized(round));
                        }
                    }
                    continue;
                }
                // Conflicts with a tentative suffix? ("rolled back once the
                // network synchronizes".) Find the parent inside our chain.
                let parent_pos = self.chain.height_of(&block.parent);
                if let Some(pp) = parent_pos {
                    let conflict_h = pp.0 as usize + 1;
                    let all_tentative = self
                        .chain
                        .iter()
                        .skip(conflict_h)
                        .all(|e| e.status == prft_types::BlockStatus::Tentative);
                    if all_tentative && conflict_h <= self.chain.height() as usize {
                        let _ = self.chain.rollback_tentative();
                        progressed = true;
                        // Next loop iteration will append it via the tip arm.
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }

    // ------------------------------------------------------- view change

    fn trigger_view_change(&mut self, ctx: &mut Context<PrftMsg>) {
        if self.rs.vc_sent || self.passive {
            return;
        }
        if !self.behavior.join_view_change() {
            return;
        }
        self.rs.vc_sent = true;
        self.stats
            .phase_transitions
            .push((self.round, Phase::ViewChange, ctx.now()));
        let req = Signed::sign(
            ViewChangeReq {
                round: self.round,
                stuck_phase: self.phase,
            },
            &self.key,
        );
        ctx.broadcast(PrftMsg::ViewChange { req });
    }

    fn handle_view_change(&mut self, ctx: &mut Context<PrftMsg>, req: Signed<ViewChangeReq>) {
        if req.payload.round != self.round || !self.cache.verify_signed(&req, &self.registry) {
            return;
        }
        self.rs.vc_reqs.insert(req.signer(), req);
        // Amplification: t0+1 requests imply a non-byzantine player is
        // stuck; join them (Claim 2 consistency).
        if self.rs.vc_reqs.len() > self.cfg.t0 {
            self.trigger_view_change(ctx);
        }
        if self.rs.vc_reqs.len() >= self.quorum() && self.rs.vc_sent && !self.rs.cv_sent {
            self.send_commit_view(ctx);
        }
    }

    fn send_commit_view(&mut self, ctx: &mut Context<PrftMsg>) {
        self.rs.cv_sent = true;
        self.rs.discontinued = true;
        let reqs: Vec<Signed<ViewChangeReq>> = self
            .rs
            .vc_reqs
            .values()
            .take(self.quorum())
            .cloned()
            .collect();
        let cv = Signed::sign(
            CommitViewContent {
                round: self.round,
                cert_digest: view_change_cert_digest(&reqs),
            },
            &self.key,
        );
        ctx.broadcast(PrftMsg::CommitView { cv, reqs });
    }

    fn handle_commit_view(
        &mut self,
        ctx: &mut Context<PrftMsg>,
        cv: Signed<CommitViewContent>,
        reqs: Vec<Signed<ViewChangeReq>>,
    ) {
        if cv.payload.round != self.round || !self.cache.verify_signed(&cv, &self.registry) {
            return;
        }
        // Certificate check: n − t0 valid, distinct view-change requests
        // for this round, bound by the signed digest.
        if cv.payload.cert_digest != view_change_cert_digest(&reqs) {
            return;
        }
        let mut signers = BTreeSet::new();
        for r in &reqs {
            if r.payload.round != self.round || !self.cache.verify_signed(r, &self.registry) {
                return;
            }
            signers.insert(r.signer());
        }
        if signers.len() < self.quorum() {
            return;
        }
        self.rs.cv_senders.insert(cv.signer());
        // Echo: commit to the view change ourselves (paper step 4).
        if !self.rs.cv_sent && self.behavior.join_view_change() {
            for r in reqs {
                self.rs.vc_reqs.insert(r.signer(), r);
            }
            self.rs.vc_sent = true;
            self.send_commit_view(ctx);
            self.rs.cv_senders.insert(self.id());
        }
        // Completion (paper step 5, read as ≥ n − t0; see DESIGN.md §4).
        if self.rs.cv_senders.len() >= self.quorum() {
            self.exit_round(ctx, RoundExit::ViewChanged);
        }
    }

    /// Answers a peer that is visibly behind with what it may lack: every
    /// block of our chain, each proposal followed by its proof — the
    /// `Final` tally of a final block, the stored Reveal of a tentative
    /// one — and then our own `ViewChange` for the current round, if we
    /// sent one. Rate-limited to once per round per peer.
    fn help_laggard(&mut self, ctx: &mut Context<PrftMsg>, peer: NodeId) {
        let Some(helped) = self.helped_at.get_mut(peer.0) else {
            return; // not a committee member
        };
        if *helped >= Some(self.round) {
            return;
        }
        *helped = Some(self.round);
        let majority = self.cfg.final_majority();
        // Genesis needs no help.
        for (value, entry) in self.chain.iter_with_ids().skip(1) {
            if let Some((_, pb)) = self.block_store.get(&value) {
                ctx.send(
                    peer,
                    PrftMsg::Propose {
                        ballot: pb.clone(),
                        block: entry.block.clone(),
                    },
                );
            }
            if entry.status == prft_types::BlockStatus::Final {
                if let Some(tally) = self.final_tally.get(&value) {
                    for sb in tally.values().take(majority) {
                        ctx.send(peer, PrftMsg::Final { ballot: sb.clone() });
                    }
                }
            } else if let Some((ballot, certs)) = self.reveal_store.get(&value) {
                let (ballot, certs) = (ballot.clone(), Arc::clone(certs));
                ctx.send(peer, PrftMsg::Reveal { ballot, certs });
            }
        }
        if let Some(req) = self.rs.vc_reqs.get(&self.id()) {
            ctx.send(peer, PrftMsg::ViewChange { req: req.clone() });
        }
    }

    /// Takes a Reveal of a round we have left: its block is appended
    /// tentatively when it extends our tip and the certificates prove a
    /// commit quorum for it — what [`Self::try_reveal`] requires inside a
    /// round — and the Reveal is kept to pass on. This is how a laggard
    /// takes the tentative blocks [`Self::help_laggard`] forwards.
    fn adopt_reveal(&mut self, ballot: SignedBallot, certs: Arc<RevealSet>) {
        let Ballot {
            round,
            phase,
            value,
        } = ballot.payload;
        let Some((block, _)) = self.block_store.get(&value) else {
            return;
        };
        if phase != Phase::Reveal || block.round != round || block.parent != self.chain.tip() {
            return;
        }
        let block = block.clone();
        if !self.cache.verify_ballot(&ballot, &self.registry)
            || !self.proves_commit_quorum(&certs, round, value)
        {
            return;
        }
        if self.chain.append_tentative_hashed(block, value).is_ok() {
            self.reveal_store.insert(value, (ballot, certs));
        }
    }

    /// Whether `certs` hold valid commit certificates for `value` in
    /// `round` from a quorum of distinct committers.
    fn proves_commit_quorum(&mut self, certs: &RevealSet, round: Round, value: Digest) -> bool {
        let (quorum, registry) = (self.quorum(), &self.registry);
        let proven = certs.iter().filter(|cert| {
            let commit = cert.commit().payload;
            let for_value = commit.round == round && commit.value == value;
            for_value && self.cache.validate_cert(cert, registry, quorum).ok
        });
        let committers: BTreeSet<NodeId> = proven.map(|cert| cert.commit().signer()).collect();
        committers.len() >= quorum
    }

    // ------------------------------------------------------- client traffic

    /// Handles a client submission: a fresh tx enters the mempool, an
    /// already-final one is acked straight away (exactly-once inclusion
    /// under client retry), and a full pool answers with the backpressure
    /// signal. Pending duplicates get no reply — the ack arrives on
    /// finalization.
    fn handle_submit(&mut self, ctx: &mut Context<PrftMsg>, tx: Transaction) {
        let (id, sender) = (tx.id, tx.sender);
        match self.mempool.push(tx) {
            Ok(()) | Err(MempoolError::Duplicate) => {}
            Err(MempoolError::Final) => ctx.send(sender, PrftMsg::TxCommitted { id }),
            Err(MempoolError::Full) => ctx.send(sender, PrftMsg::TxRejected { id }),
        }
    }

    /// Finalizes our chain up to `height`, then walks the newly finalized
    /// blocks: acknowledges each client-submitted transaction (`tx.sender`
    /// ≥ `n` names a client actor) still pending here, and books each
    /// block's txs final in the mempool — the pool's only exit, taken
    /// before any later proposal. Acking only pending txs keeps the ack
    /// fan-in at the client's retry spread instead of `n` replies per tx;
    /// the pool's final ids answer late retries in
    /// [`Replica::handle_submit`]. Finalized prefixes never roll back, so
    /// the walk starts above the final height held before this call and
    /// each tx is acked at most once per replica.
    fn finalize_to(
        &mut self,
        ctx: &mut Context<PrftMsg>,
        height: Height,
    ) -> Result<(), prft_types::ChainError> {
        let walked = self.chain.final_height() as usize;
        self.chain.finalize_upto(height)?;
        let upto = self.chain.final_height() as usize;
        for entry in self.chain.iter().take(upto + 1).skip(walked + 1) {
            let txs = &entry.block.txs;
            let found = self.mempool.remove_included(txs.iter().map(|tx| &tx.id));
            self.finalized_twice += found.twice;
            self.finalized_exits += found.was_pending.len();
            if found.was_pending.is_empty() {
                continue;
            }
            // `was_pending` is a subsequence of the block: one merge pass
            // finds each one's sender.
            let mut was_pending = found.was_pending.iter().peekable();
            for tx in txs.iter() {
                if was_pending.next_if_eq(&&tx.id).is_some() && tx.sender.0 >= self.cfg.n {
                    ctx.send(tx.sender, PrftMsg::TxCommitted { id: tx.id });
                }
            }
        }
        let chain = &self.chain;
        self.reveal_store
            .retain(|value, _| chain.height_of(value).is_some_and(|h| h.0 as usize > upto));
        Ok(())
    }

    // ------------------------------------------------------- round sync

    fn note_peer_round(&mut self, from: NodeId, round: Round) {
        if from.0 < self.peer_round.len() && round.0 > self.peer_round[from.0] {
            self.peer_round[from.0] = round.0;
        }
    }

    fn round_sync_target(&self) -> Option<Round> {
        // The highest r such that ≥ t0+1 peers have sent a message in a
        // round ≥ r: sort descending, take index t0.
        let mut rounds: Vec<u64> = self.peer_round.clone();
        rounds.sort_unstable_by(|a, b| b.cmp(a));
        let idx = self.cfg.t0;
        let target = *rounds.get(idx)?;
        (target > self.round.0).then_some(Round(target))
    }

    // ------------------------------------------------------- dispatch

    fn msg_round(msg: &PrftMsg) -> Option<Round> {
        match msg {
            PrftMsg::Propose { ballot, .. }
            | PrftMsg::Vote { ballot, .. }
            | PrftMsg::Final { ballot } => Some(ballot.payload.round),
            PrftMsg::Commit { cert } => Some(cert.commit().payload.round),
            PrftMsg::Reveal { ballot, .. } => Some(ballot.payload.round),
            PrftMsg::Expose { round, .. } => Some(*round),
            PrftMsg::ViewChange { req } => Some(req.payload.round),
            PrftMsg::CommitView { cv, .. } => Some(cv.payload.round),
            PrftMsg::SyncRequest { round } => Some(*round),
            // Client traffic is round-free; `Submit` is intercepted in
            // `on_message`, and the acks are client-bound (a replica that
            // somehow receives one drops it here).
            PrftMsg::Submit { .. } | PrftMsg::TxCommitted { .. } | PrftMsg::TxRejected { .. } => {
                None
            }
        }
    }

    fn dispatch(&mut self, ctx: &mut Context<PrftMsg>, _from: NodeId, msg: PrftMsg) {
        match msg {
            PrftMsg::Propose { ballot, block } => self.handle_propose(ctx, ballot, block),
            PrftMsg::Vote { ballot, propose } => self.handle_vote(ctx, ballot, propose),
            PrftMsg::Commit { cert } => self.handle_commit(ctx, cert),
            PrftMsg::Reveal { ballot, certs } => self.handle_reveal(ctx, ballot, certs),
            PrftMsg::Expose {
                round, evidence, ..
            } => self.handle_expose(ctx, round, evidence),
            PrftMsg::Final { ballot } => self.handle_final(ctx, ballot),
            PrftMsg::ViewChange { req } => self.handle_view_change(ctx, req),
            PrftMsg::CommitView { cv, reqs } => self.handle_commit_view(ctx, cv, reqs),
            PrftMsg::SyncRequest { .. } => {} // answered in on_message
            PrftMsg::Submit { .. } | PrftMsg::TxCommitted { .. } | PrftMsg::TxRejected { .. } => {} // handled (or dropped) in on_message
        }
    }
}

impl Node for Replica {
    type Msg = PrftMsg;

    /// The first start enters round 0. A restart after a crash stays in
    /// the round it was in: it re-arms the phase timer — the one pending
    /// at the crash was discarded — and asks the committee for what it
    /// missed (`help_laggard` answers).
    fn on_start(&mut self, ctx: &mut Context<PrftMsg>) {
        if self.stats.rounds_entered == 0 {
            self.start_round(ctx);
        } else if !self.passive {
            self.arm_timer(ctx);
            ctx.broadcast_others(PrftMsg::SyncRequest { round: self.round });
        }
    }

    fn on_message(&mut self, ctx: &mut Context<PrftMsg>, from: NodeId, msg: PrftMsg) {
        // Client submissions are round-independent and survive passivity:
        // a passive replica still acks already-final txs, so late retries
        // converge instead of spinning against an exhausted committee.
        if let PrftMsg::Submit { tx } = msg {
            self.handle_submit(ctx, tx);
            return;
        }
        if self.passive {
            // Passive replicas have exhausted their round budget but remain
            // responsive witnesses: they still help laggards reconcile.
            match &msg {
                PrftMsg::ViewChange { req }
                    if req.payload.round < self.round
                        && self.cache.verify_signed(req, &self.registry) =>
                {
                    self.help_laggard(ctx, from);
                }
                PrftMsg::SyncRequest { .. } => self.help_laggard(ctx, from),
                _ => {}
            }
            return;
        }
        let Some(round) = Self::msg_round(&msg) else {
            return;
        };
        let admitted = self.admit(ctx, &msg);
        if self.passive {
            return;
        }
        // Signed rounds only: the ballot/req signatures cover the round, so
        // a forged "from the future" claim costs the sender a signature
        // check at worst.
        self.note_peer_round(from, round);

        // Sync requests are answered regardless of round.
        if matches!(msg, PrftMsg::SyncRequest { .. }) {
            self.help_laggard(ctx, from);
            return;
        }
        match round.cmp(&self.round) {
            std::cmp::Ordering::Greater => {
                // Finals and exposes act across rounds; buffer the rest.
                match &msg {
                    PrftMsg::Final { .. } | PrftMsg::Expose { .. } => self.dispatch(ctx, from, msg),
                    _ => {
                        if admitted {
                            self.future.entry(round.0).or_default().push((from, msg));
                        }
                        if let Some(target) = self.round_sync_target() {
                            self.exit_round(ctx, RoundExit::Synced(target));
                        }
                    }
                }
            }
            // Stale, except Finals and Exposes, which stay meaningful, and
            // a Reveal, whose block a laggard may still lack.
            std::cmp::Ordering::Less => match msg {
                PrftMsg::Final { .. } | PrftMsg::Expose { .. } => self.dispatch(ctx, from, msg),
                PrftMsg::Reveal { ballot, certs } => self.adopt_reveal(ballot, certs),
                _ => {}
            },
            std::cmp::Ordering::Equal if admitted => self.dispatch(ctx, from, msg),
            std::cmp::Ordering::Equal => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<PrftMsg>, timer: TimerId) {
        if self.passive {
            return;
        }
        let Some((id, round)) = self.timer else {
            return;
        };
        if id != timer || round != self.round {
            return; // stale timer
        }
        self.timer = None;
        // Timeout: initiate (or keep waiting on) a view change; keep a
        // timer armed so the replica re-joins if the first attempt stalls
        // pre-GST, with exponential backoff bounding the event rate.
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.trigger_view_change(ctx);
        if self.cfg.max_rounds == 0 || self.rounds_done < self.cfg.max_rounds {
            self.arm_timer(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harness;
    use crate::pof::signed_ballot;
    use prft_sim::obs::hooks;
    use prft_sim::Simulation;

    /// Delivers `msgs` to `to` at the current tick and runs that tick only,
    /// so replies (at least one tick away) stay queued.
    fn deliver_now(sim: &mut Simulation<Replica>, to: NodeId, msgs: Vec<(NodeId, PrftMsg)>) {
        let now = sim.now();
        for (from, msg) in msgs {
            sim.inject(now, from, to, msg);
        }
        sim.run_until(now);
    }

    #[test]
    fn every_seat_holds_the_leaders_batch_not_a_copy() {
        // Each seat's mempool gets its own transactions, so each leader
        // proposes a batch of its own. (A committee sender draws no acks.)
        let n = 4;
        let mut harness = Harness::new(n, 17).max_rounds(8);
        for seat in (0..n).map(NodeId) {
            for j in 0..3 {
                let tx = Transaction::new(10 * seat.0 as u64 + j, seat, vec![j as u8; 8]);
                harness = harness.submit(Some(seat), tx);
            }
        }
        let mut sim = harness.build();
        sim.run();
        let snapshot: Vec<Replica> = sim.nodes().cloned().collect();
        let mut batches = 0;
        for (value, entry) in sim.node(NodeId(0)).chain.iter_with_ids().skip(1) {
            let leader = sim.node(entry.block.proposer);
            let batch = &leader.block_store[&value].0.txs;
            batches += usize::from(!batch.is_empty());
            for r in sim.nodes().chain(&snapshot) {
                let held = r.chain.height_of(&value).and_then(|h| r.chain.at(h));
                let held = held.expect("every seat finalized the value");
                assert_eq!(held.status, prft_types::BlockStatus::Final);
                assert!(Arc::ptr_eq(&held.block.txs, batch), "P{}", r.id().0);
                assert!(Arc::ptr_eq(&r.block_store[&value].0.txs, batch));
            }
        }
        assert_eq!(batches, n, "one non-empty batch per leader");
    }

    /// The values `r` would reconcile, read off the whole tally: every
    /// value with a majority of `Final`s that is not final in its chain.
    /// (What the candidates were before `final_pending` kept them.)
    fn candidates_by_tally(r: &Replica) -> Vec<Digest> {
        let majority = r.cfg.final_majority();
        let final_height = r.chain.final_height();
        r.final_tally
            .iter()
            .filter(|(value, who)| {
                who.len() >= majority && r.chain.height_of(value).is_none_or(|h| h.0 > final_height)
            })
            .map(|(value, _)| *value)
            .collect()
    }

    /// `r`'s reconcile candidates, checked against [`candidates_by_tally`].
    fn candidates(r: &Replica) -> Vec<Digest> {
        let pending = r.clone().reconcile_candidates();
        assert_eq!(pending, candidates_by_tally(r), "P{}", r.id().0);
        pending
    }

    #[test]
    fn finalized_values_are_not_reconcile_candidates() {
        let mut sim = Harness::new(8, 19).build();
        while sim.nodes().any(|r| r.chain().final_height() < 20) {
            sim.run_until(SimTime(sim.now().0 + 50));
        }
        for r in sim.nodes() {
            assert!(r.final_tally.len() >= 20, "the tally keeps every value");
            assert_eq!(candidates(r), vec![], "P{}", r.id().0);
        }
        // A late duplicate `Final` for the first finalized block.
        let (value, ballot) = {
            let r = sim.node(NodeId(0));
            let value = r.chain.iter_with_ids().nth(1).expect("height 1").0;
            (value, r.final_tally[&value][&NodeId(3)].clone())
        };
        let signers = sim.node(NodeId(0)).final_tally[&value].len();
        deliver_now(
            &mut sim,
            NodeId(0),
            vec![(NodeId(3), PrftMsg::Final { ballot })],
        );
        let r = sim.node(NodeId(0));
        assert_eq!(r.final_tally[&value].len(), signers);
        assert_eq!(candidates(r), vec![]);
    }

    #[test]
    fn a_laggard_lists_the_missing_values_and_adopts_them_when_the_block_arrives() {
        // P7 sleeps through three rounds the other seven finalize.
        let laggard = NodeId(7);
        let mut sim = Harness::new(8, 23).max_rounds(3).build();
        sim.crash(laggard);
        sim.run();
        sim.recover(laggard);
        let helper = sim.node(NodeId(0)).clone();
        assert_eq!(helper.chain.final_height(), 3);
        let values: Vec<Digest> = helper.chain.iter_with_ids().skip(1).map(|e| e.0).collect();
        // A bare majority of `Final` ballots per value (a replica that went
        // passive on its last round holds no tally for it, so sign afresh).
        let mut finals = Vec::new();
        for value in &values {
            let round = helper.block_store[value].0.round;
            for signer in (0..helper.cfg.final_majority()).map(NodeId) {
                let ballot = signed_ballot(&sim.node(signer).key, round, Phase::Final, *value);
                finals.push((signer, PrftMsg::Final { ballot }));
            }
        }
        let propose = |height: usize| {
            let (block, ballot) = helper.block_store[&values[height - 1]].clone();
            (ballot.signer(), PrftMsg::Propose { ballot, block })
        };
        let missing: BTreeSet<Digest> = values.iter().copied().collect();
        let outstanding =
            |sim: &Simulation<Replica>| BTreeSet::from_iter(candidates(sim.node(laggard)));

        // Majority tallies without the blocks, one `Final` at a time:
        // every value is outstanding once its majority is in.
        for fin in finals {
            deliver_now(&mut sim, laggard, vec![fin]);
            outstanding(&sim);
        }
        assert_eq!(outstanding(&sim), missing);
        // Blocks that do not connect yet change nothing.
        deliver_now(&mut sim, laggard, vec![propose(3), propose(2)]);
        assert_eq!(outstanding(&sim), missing);
        assert_eq!(sim.node(laggard).chain.height(), 0);
        // The connecting block lets one pass adopt all three.
        deliver_now(&mut sim, laggard, vec![propose(1)]);
        assert_eq!(outstanding(&sim), BTreeSet::new());
        let r = sim.node(laggard);
        assert_eq!(r.chain.final_height(), 3);
        assert_eq!(r.chain.tip(), helper.chain.tip());
        assert_eq!(r.stats.finalized_catchup, 3);
    }

    #[test]
    fn the_pending_values_are_the_tally_filter_whenever_a_final_arrives() {
        // 220 rounds of n = 8. P5 is down for a stretch of them and catches
        // up from the `Final` tallies, so values wait in `final_pending`.
        let mut sim = Harness::new(8, 41).max_rounds(220).build();
        sim.set_tracing(true);
        let (mut seen, mut checked, mut outstanding) = (0, 0, 0);
        // Every round is over by tick 10 000; what the queue holds after
        // that is a backed-off timer of a passive replica.
        for tick in 0..12_000 {
            match tick {
                3_000 => sim.crash(NodeId(5)),
                6_000 => sim.recover(NodeId(5)),
                _ => {}
            }
            sim.run_until(SimTime(tick));
            let delivered = &sim.trace().entries()[seen..];
            seen += delivered.len();
            let finals = delivered.iter().filter(|e| e.kind == "Final");
            for to in finals.map(|e| e.to).collect::<BTreeSet<_>>() {
                outstanding += usize::from(!candidates(sim.node(to)).is_empty());
                checked += 1;
            }
        }
        assert!(sim.nodes().all(|r| r.chain().final_height() >= 200));
        assert!(
            checked > 1_000 && outstanding > 0,
            "{checked}, {outstanding}"
        );
    }

    #[test]
    fn a_block_not_hashing_to_the_signed_value_is_invalid_even_once_the_value_is_stored() {
        // Round 0's leader stays down; the test proposes with its key.
        let (leader, target) = (NodeId(0), NodeId(1));
        let mut sim = Harness::new(4, 29).build();
        sim.crash(leader);
        let key = sim.node(leader).key.clone();
        let parent = sim.node(target).chain.tip();
        let block_of = |tx: u64| {
            let txs = vec![Transaction::new(tx, NodeId(9), vec![tx as u8])];
            Block::new(Round(0), parent, leader, txs)
        };
        let (signed, other) = (block_of(1), block_of(2));
        let value = signed.id();
        let ballot = signed_ballot(&key, Round(0), Phase::Propose, value);
        let propose = |block: &Block| {
            let (ballot, block) = (ballot.clone(), block.clone());
            vec![(leader, PrftMsg::Propose { ballot, block })]
        };

        // A block that does not bind is refused before its signature is
        // checked, and never handled.
        hooks::reset();
        deliver_now(&mut sim, target, propose(&other));
        let r = sim.node(target);
        assert_eq!(hooks::snapshot().sig_verifies, 0);
        assert!(!r.block_store.contains_key(&value));
        assert_eq!(
            (tally(r, &value), r.phase()),
            ((false, 0, 0, 0), Phase::Propose)
        );

        deliver_now(&mut sim, target, propose(&signed));
        let r = sim.node(target);
        let charged = hooks::snapshot().sig_verifies;
        assert_eq!(r.block_store.get(&value).map(|e| &e.0), Some(&signed));
        assert!(tally(r, &value).0);

        deliver_now(&mut sim, target, propose(&other));
        let r = sim.node(target);
        assert_eq!(hooks::snapshot().sig_verifies, charged);
        assert_eq!(r.block_store.get(&value).map(|e| &e.0), Some(&signed));
        hooks::reset();
    }

    #[test]
    fn a_valid_proposal_is_checked_once_on_arrival() {
        // Round 0's leader stays down; the test proposes with its key. The
        // block's parent is unknown, so P1 handles the proposal by asking
        // for sync instead of voting, and checks no other signature.
        let mut sim = Harness::new(4, 29).build();
        sim.crash(NodeId(0));
        let block = Block::new(Round(0), Digest::of_bytes(b"elsewhere"), NodeId(0), vec![]);
        let value = block.id();
        let ballot = signed_ballot(&sim.node(NodeId(0)).key, Round(0), Phase::Propose, value);
        hooks::reset();
        deliver_now(
            &mut sim,
            NodeId(1),
            vec![(NodeId(0), PrftMsg::Propose { ballot, block })],
        );
        let r = sim.node(NodeId(1));
        assert!(r.block_store.contains_key(&value) && r.rs.sync_requested);
        assert_eq!(tally(r, &value), (true, 0, 0, 0));
        assert_eq!(hooks::snapshot().sig_verifies, 1);
        hooks::reset();
    }

    /// What `r` holds for `value` in its current round: (a proposal was
    /// seen, votes, commit certificates, reveals).
    fn tally(r: &Replica, value: &Digest) -> (bool, usize, usize, usize) {
        let e = r.rs.value(value);
        (
            e.is_some_and(|e| e.propose.is_some()),
            e.map_or(0, |e| e.votes.signers.len()),
            e.map_or(0, |e| e.commits.signers.len()),
            e.map_or(0, |e| e.reveals.len()),
        )
    }

    /// The players `r`'s detector convicted in its current round (`D_i`).
    fn convicted(r: &Replica) -> Vec<NodeId> {
        r.rs.detector.convicted()
    }

    #[test]
    fn a_round_with_five_values_keeps_every_tally_apart() {
        // The traffic no scenario produces: one round of P1 holding five
        // validly signed values — three proposals of an equivocating
        // leader that each gather a vote quorum, a value known from a vote
        // alone and one known from a Reveal alone. τ = 3 of n = 10 lets
        // three quorums form from distinct voters; t0 = 2 leaves room for
        // two convictions before the third sends the `Expose`. Everybody
        // else is down: the test signs with their keys.
        let target = NodeId(1);
        let p = NodeId;
        let mut sim = Harness::new(10, 31).tau(3).build();
        for i in (0..10).filter(|i| *i != target.0) {
            sim.crash(p(i));
        }
        let keys: Vec<SecretKey> = sim.nodes().map(|r| r.key.clone()).collect();
        let parent = sim.node(target).chain.tip();
        let block_of = |tx: u64| {
            let txs = vec![Transaction::new(tx, p(20), vec![tx as u8])];
            Block::new(Round(0), parent, p(0), txs)
        };
        let (a, b, c) = (block_of(1), block_of(2), block_of(3));
        let (va, vb, vc) = (a.id(), b.id(), c.id());
        let (vd, ve) = (Digest::of_bytes(b"d"), Digest::of_bytes(b"e"));
        let sign =
            |who: usize, phase: Phase, v: Digest| signed_ballot(&keys[who], Round(0), phase, v);
        let propose = |block: &Block| {
            let ballot = sign(0, Phase::Propose, block.id());
            let block = block.clone();
            (p(0), PrftMsg::Propose { ballot, block })
        };
        let vote = |who: usize, v: Digest, propose: Option<SignedBallot>| {
            let ballot = sign(who, Phase::Vote, v);
            (p(who), PrftMsg::Vote { ballot, propose })
        };
        let commit = |who: usize, v: Digest, voters: [usize; 3]| {
            let votes = voters.iter().map(|w| sign(*w, Phase::Vote, v)).collect();
            let cert = Arc::new(CommitCert::new(sign(who, Phase::Commit, v), votes));
            (p(who), PrftMsg::Commit { cert })
        };
        let reveal = |who: usize, v: Digest, certs: Vec<Arc<CommitCert>>| {
            let ballot = sign(who, Phase::Reveal, v);
            let certs = Arc::new(RevealSet::new(certs));
            (p(who), PrftMsg::Reveal { ballot, certs })
        };

        // 1. Before any proposal: a bare vote for `d`, a Reveal for `e`,
        // then a bare vote for `e` — knowing a value from its Reveal does
        // not make up for the missing proposal.
        let msgs = vec![vote(9, vd, None), reveal(3, ve, vec![]), vote(4, ve, None)];
        deliver_now(&mut sim, target, msgs);
        let r = sim.node(target);
        assert_eq!(tally(r, &vd), (false, 0, 0, 0));
        assert_eq!(tally(r, &ve), (false, 0, 0, 1));
        assert_eq!((r.stats.fraud_detections, convicted(r)), (0, vec![]));

        // 2. The leader's three proposals; `c` is first heard of through
        // the `s_pro` attached to a vote, which is what convicts P0.
        let s_pro = sign(0, Phase::Propose, vc);
        let msgs = vec![
            propose(&a),
            vote(8, vc, Some(s_pro)),
            propose(&b),
            propose(&c),
        ];
        deliver_now(&mut sim, target, msgs);
        let r = sim.node(target);
        assert_eq!(tally(r, &va), (true, 1, 0, 0), "P1's own vote");
        assert_eq!(tally(r, &vb), (true, 0, 0, 0));
        assert_eq!(tally(r, &vc), (true, 1, 0, 0));
        assert_eq!((r.stats.fraud_detections, convicted(r)), (1, vec![p(0)]));
        assert_eq!(r.stats.leader_equivocations, 1);
        assert_eq!(r.phase(), Phase::Vote);

        // 3. Votes: `b`, `a` and `c` each reach the vote quorum, in that
        // order, so P1 — which voted `a` — commits `b`. P9 voted `d` in
        // step 1: uncounted there, but seen, and convicted here. P0 is
        // convicted already and may sign anything at no further cost.
        let msgs = vec![
            vote(5, vb, None),
            vote(6, vb, None),
            vote(0, vb, None),
            vote(2, va, None),
            vote(3, va, None),
            vote(9, vc, None),
            vote(0, vc, None),
        ];
        deliver_now(&mut sim, target, msgs);
        let r = sim.node(target);
        assert_eq!(tally(r, &va), (true, 3, 0, 0));
        assert_eq!(tally(r, &vb), (true, 3, 1, 0), "P1's own commit");
        assert_eq!(tally(r, &vc), (true, 3, 0, 0));
        assert_eq!(tally(r, &vd), (false, 0, 0, 0));
        assert_eq!(
            (r.stats.fraud_detections, convicted(r)),
            (2, vec![p(0), p(9)])
        );
        assert_eq!((r.stats.exposes_sent, r.phase()), (0, Phase::Commit));

        // 4. Commits: `c` reaches the commit quorum first and becomes the
        // tentative block; `a` reaches it too, too late. P7's vote for `a`
        // arrives only inside certificates and is harvested from there.
        let msgs = vec![
            commit(2, va, [2, 3, 7]),
            commit(3, va, [2, 3, 7]),
            commit(8, vc, [0, 8, 9]),
            commit(9, vc, [0, 8, 9]),
            commit(0, vc, [0, 8, 9]),
            commit(7, va, [2, 3, 7]),
        ];
        let cert_a = match &msgs[0].1 {
            PrftMsg::Commit { cert } => Arc::clone(cert),
            _ => unreachable!(),
        };
        deliver_now(&mut sim, target, msgs);
        let r = sim.node(target);
        assert_eq!(tally(r, &va), (true, 4, 3, 0));
        assert_eq!(tally(r, &vb), (true, 3, 1, 0));
        assert_eq!(tally(r, &vc), (true, 3, 3, 1), "P1's own reveal");
        assert_eq!((r.chain.height(), r.chain.tip()), (1, vc));
        assert_eq!((r.chain.final_height(), r.phase()), (0, Phase::Reveal));
        assert_eq!(
            (r.stats.fraud_detections, convicted(r)),
            (2, vec![p(0), p(9)])
        );

        // 5. Reveals: P2's carries a certificate seen before and a new one
        // for `b`. P3 revealed `e` in step 1, so its Reveal for `c` is the
        // third conviction: it completes the reveal quorum and the PoF in
        // one message, and the `Expose` wins (Figure 1's order).
        let cert_b = match commit(6, vb, [0, 5, 6]).1 {
            PrftMsg::Commit { cert } => cert,
            _ => unreachable!(),
        };
        deliver_now(&mut sim, target, vec![reveal(2, vc, vec![cert_a, cert_b])]);
        let r = sim.node(target);
        assert_eq!(tally(r, &vc), (true, 3, 3, 2));
        assert_eq!(
            tally(r, &vb),
            (true, 3, 1, 0),
            "a revealed certificate is only scanned"
        );
        assert_eq!(tally(r, &ve), (false, 0, 0, 1));
        assert_eq!((r.stats.fraud_detections, r.round()), (2, Round(0)));
        deliver_now(&mut sim, target, vec![reveal(3, vc, vec![])]);
        let r = sim.node(target);
        assert_eq!(r.stats.fraud_detections, 3);
        assert_eq!((r.stats.exposes_sent, r.stats.exposes_applied), (1, 1));
        let burned: Vec<NodeId> = r.collateral.burned().collect();
        assert_eq!(burned, vec![p(0), p(3), p(9)]);
        assert_eq!(
            (r.round(), r.stats.view_changed_rounds.len()),
            (Round(1), 0),
            "the Expose ended round 0"
        );
        assert!(r.stats.finalize_times.is_empty() && r.chain.final_height() == 0);
        assert_eq!(tally(r, &vc), (false, 0, 0, 0), "round 1 starts empty");
        assert_eq!(convicted(r), vec![]);

        // 6. The abandoned round's tentative block stays and is finalized
        // by a majority of `Final`s.
        let finals = (2..8).map(|w| {
            let ballot = sign(w, Phase::Final, vc);
            (p(w), PrftMsg::Final { ballot })
        });
        deliver_now(&mut sim, target, finals.collect());
        let r = sim.node(target);
        assert_eq!((r.chain.final_height(), r.chain.tip()), (1, vc));
        assert_eq!(
            (r.stats.finalize_times.len(), r.stats.finalized_catchup),
            (0, 0)
        );
        assert_eq!(
            (r.round(), r.stats.view_changed_rounds.len()),
            (Round(1), 0)
        );
    }

    /// P3 of n = 4 (t0 = 0, so the quorum is all four) alone is up. Two
    /// peers' round-2 votes sync it to round 2, and it holds round 1's
    /// block — P1's proposal on genesis — without having seen any of its
    /// round. The test signs with everyone's keys.
    struct Laggard {
        sim: Simulation<Replica>,
        keys: Vec<SecretKey>,
        /// Round 1's block and another block of that round.
        blocks: [Block; 2],
    }

    const LAGGARD: NodeId = NodeId(3);
    const EVERY_SEAT: [usize; 4] = [0, 1, 2, 3];

    impl Laggard {
        fn new() -> Laggard {
            let mut sim = Harness::new(4, 37).build();
            for i in 0..3 {
                sim.crash(NodeId(i));
            }
            let keys: Vec<SecretKey> = sim.nodes().map(|r| r.key.clone()).collect();
            let genesis = sim.node(LAGGARD).chain.tip();
            let block_of = |tx: u64| {
                let txs = vec![Transaction::new(tx, NodeId(9), vec![tx as u8])];
                Block::new(Round(1), genesis, NodeId(1), txs)
            };
            let mut laggard = Laggard {
                sim,
                keys,
                blocks: [block_of(1), block_of(2)],
            };
            let mut msgs: Vec<(NodeId, PrftMsg)> = (0..2)
                .map(|i| {
                    let ballot = laggard.sign(i, Round(2), Phase::Vote, Digest::of_bytes(b"r2"));
                    (
                        NodeId(i),
                        PrftMsg::Vote {
                            ballot,
                            propose: None,
                        },
                    )
                })
                .collect();
            let block = laggard.blocks[0].clone();
            let ballot = laggard.sign(1, Round(1), Phase::Propose, block.id());
            msgs.push((NodeId(1), PrftMsg::Propose { ballot, block }));
            deliver_now(&mut laggard.sim, LAGGARD, msgs);
            let r = laggard.sim.node(LAGGARD);
            assert_eq!((r.round(), r.chain.height()), (Round(2), 0));
            assert!(r.block_store.contains_key(&laggard.blocks[0].id()));
            laggard
        }

        fn sign(&self, who: usize, round: Round, phase: Phase, v: Digest) -> SignedBallot {
            signed_ballot(&self.keys[who], round, phase, v)
        }

        /// `who`'s round-1 commit certificate for `v`, justified by the
        /// votes of `voters`.
        fn cert(&self, who: usize, v: Digest, voters: &[usize]) -> Arc<CommitCert> {
            let votes = voters
                .iter()
                .map(|&w| self.sign(w, Round(1), Phase::Vote, v))
                .collect();
            Arc::new(CommitCert::new(
                self.sign(who, Round(1), Phase::Commit, v),
                votes,
            ))
        }

        /// Delivers P1's stale Reveal of round 1's block carrying `certs`,
        /// and returns the laggard.
        fn reveal(&mut self, certs: Vec<Arc<CommitCert>>) -> &Replica {
            let ballot = self.sign(1, Round(1), Phase::Reveal, self.blocks[0].id());
            let certs = Arc::new(RevealSet::new(certs));
            deliver_now(
                &mut self.sim,
                LAGGARD,
                vec![(NodeId(1), PrftMsg::Reveal { ballot, certs })],
            );
            self.sim.node(LAGGARD)
        }
    }

    #[test]
    fn a_laggard_adopts_a_tentative_block_from_a_forwarded_reveal() {
        let mut laggard = Laggard::new();
        let value = laggard.blocks[0].id();
        let certs = EVERY_SEAT.map(|who| laggard.cert(who, value, &EVERY_SEAT));
        let r = laggard.reveal(certs.to_vec());
        assert_eq!(r.quorum(), EVERY_SEAT.len());
        assert_eq!((r.chain.height(), r.chain.tip()), (1, value));
        assert_eq!(r.chain.final_height(), 0, "tentative");
        assert!(r.reveal_store.contains_key(&value), "kept to pass on");
        assert_eq!(r.round(), Round(2));
    }

    #[test]
    fn a_reveal_with_one_certificate_short_of_a_quorum_appends_nothing() {
        let mut laggard = Laggard::new();
        let value = laggard.blocks[0].id();
        // Three valid certificates, a fourth justified by three votes
        // only, and a second one of the first committer's.
        let certs = vec![
            laggard.cert(0, value, &EVERY_SEAT),
            laggard.cert(1, value, &EVERY_SEAT),
            laggard.cert(2, value, &EVERY_SEAT),
            laggard.cert(3, value, &[0, 1, 2]),
            laggard.cert(0, value, &[3, 2, 1, 0]),
        ];
        let r = laggard.reveal(certs);
        assert_eq!(r.chain.height(), 0);
        assert!(r.reveal_store.is_empty());
    }

    #[test]
    fn a_reveal_whose_certificates_are_for_another_value_appends_nothing() {
        let mut laggard = Laggard::new();
        let other = laggard.blocks[1].id();
        let certs = EVERY_SEAT.map(|who| laggard.cert(who, other, &EVERY_SEAT));
        let r = laggard.reveal(certs.to_vec());
        assert_eq!(r.chain.height(), 0);
        assert!(r.reveal_store.is_empty());
    }
}
