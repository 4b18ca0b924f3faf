//! The client actor: an open-loop transaction source with per-tx
//! retry/timeout state, driven through the same event queue as the
//! committee it loads.

use crate::arrival::ArrivalModel;
use crate::retry::{RejectAction, RetryPolicy};
use crate::spec::WorkloadSpec;
use prft_core::PrftMsg;
use prft_sim::{Context, Node, SimTime, TimerId};
use prft_types::{NodeId, Transaction, TxId};
use std::sync::Arc;

/// Base of the client transaction-id namespace: far above anything the
/// scenario layer injects by hand, so workload txs never collide with
/// scripted ones.
pub const CLIENT_TX_BASE: u64 = 1 << 32;

/// Id stride per client: each client owns a disjoint window of this many
/// transaction ids.
pub const CLIENT_TX_STRIDE: u64 = 1 << 20;

/// Counters a client keeps about its own traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Distinct transactions generated (not counting retries).
    pub submitted: u64,
    /// Transactions acknowledged as finalized.
    pub committed: u64,
    /// Transactions given up (attempts exhausted or dropped on reject).
    pub dropped: u64,
    /// Resubmissions after a timeout or requeued rejection.
    pub retries: u64,
    /// `TxRejected` backpressure signals received.
    pub backpressure_rejects: u64,
}

/// One transaction awaiting its ack, with the retry timer armed for it.
#[derive(Debug, Clone)]
struct InFlight {
    tx: Transaction,
    /// Submission attempts performed so far (≥ 1 once sent).
    attempt: u32,
    submitted_at: SimTime,
    /// Replica index of the first submission; retries rotate from here.
    first_target: usize,
    /// The pending retry timer: its firing means "no ack yet".
    timer: TimerId,
}

/// A single open-loop client: generates transactions on its
/// [`ArrivalModel`] schedule, submits them round-robin across the
/// committee, and retries per its [`RetryPolicy`] until each transaction
/// is either acknowledged (`TxCommitted`) or given up.
///
/// Clients are full simulation actors (they live behind the committee in
/// the same node population), so their traffic interleaves with protocol
/// messages under the engine's deterministic dispatch order.
///
/// A client's per-transaction state is one allocation: the in-flight list
/// (at most `txs_per_client` entries, each holding its own retry timer, so
/// a fired timer or an ack finds its entry by a short linear scan), next
/// to the one pending arrival timer. Its payload is built once, and every
/// transaction, resubmission and batch shares it.
#[derive(Debug, Clone)]
pub struct Client {
    me: NodeId,
    committee_n: usize,
    index: usize,
    arrival: ArrivalModel,
    retry: RetryPolicy,
    txs_total: u64,
    /// Every transaction's payload, built once and shared.
    payload: Arc<[u8]>,
    next_seq: u64,
    in_flight: Vec<InFlight>,
    /// The timer that generates the next transaction, while one is armed.
    arrival_timer: Option<TimerId>,
    stats: ClientStats,
    /// Commit latencies in ticks, in commit order.
    latencies: Vec<u64>,
}

impl Client {
    /// Creates client number `index` of the population, running as
    /// simulation node `me`, against a committee of `committee_n`
    /// replicas.
    pub fn new(me: NodeId, committee_n: usize, index: usize, spec: &WorkloadSpec) -> Self {
        assert!(committee_n > 0, "a client needs a committee to talk to");
        assert!(
            spec.txs_per_client < CLIENT_TX_STRIDE,
            "txs_per_client must fit the per-client id window"
        );
        Client {
            me,
            committee_n,
            index,
            arrival: spec.arrival,
            retry: spec.retry,
            txs_total: spec.txs_per_client,
            payload: vec![0xABu8; spec.payload_bytes].into(),
            next_seq: 0,
            in_flight: Vec::new(),
            arrival_timer: None,
            stats: ClientStats::default(),
            latencies: Vec::new(),
        }
    }

    /// This client's counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Transactions still awaiting an ack (neither committed nor dropped).
    pub fn pending(&self) -> u64 {
        self.in_flight.len() as u64
    }

    /// Commit latencies (ticks), in the order the acks arrived.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    fn tx_id(&self, seq: u64) -> u64 {
        CLIENT_TX_BASE + self.index as u64 * CLIENT_TX_STRIDE + seq
    }

    /// Position of the in-flight entry for `id`, if it awaits an ack.
    fn position(&self, id: TxId) -> Option<usize> {
        self.in_flight.iter().position(|f| f.tx.id == id)
    }

    fn arm_arrival(&mut self, ctx: &mut Context<PrftMsg>) {
        let delay = self.arrival.next_delay(ctx.now(), ctx.rng());
        self.arrival_timer = Some(ctx.set_timer(delay));
    }

    fn submit_next(&mut self, ctx: &mut Context<PrftMsg>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tx = Transaction::shared(self.tx_id(seq), self.me, self.payload.clone());
        // Stagger first targets by client index so a synchronized arrival
        // wave spreads over the committee instead of mobbing replica 0.
        let first_target = (self.index + seq as usize) % self.committee_n;
        ctx.send(NodeId(first_target), PrftMsg::Submit { tx: tx.clone() });
        let timer = ctx.set_timer(self.retry.delay_for(0));
        self.in_flight.push(InFlight {
            tx,
            attempt: 1,
            submitted_at: ctx.now(),
            first_target,
            timer,
        });
        self.stats.submitted += 1;
    }

    /// Resends the in-flight tx at `at` (whose retry timer just fired) to
    /// the next replica in its rotation, or gives it up if the attempt
    /// budget is spent.
    fn retry_or_drop(&mut self, ctx: &mut Context<PrftMsg>, at: usize) {
        let f = &mut self.in_flight[at];
        if f.attempt >= self.retry.max_attempts {
            self.in_flight.swap_remove(at);
            self.stats.dropped += 1;
            return;
        }
        let target = (f.first_target + f.attempt as usize) % self.committee_n;
        f.attempt += 1;
        ctx.send(NodeId(target), PrftMsg::Submit { tx: f.tx.clone() });
        f.timer = ctx.set_timer(self.retry.delay_for(f.attempt - 1));
        self.stats.retries += 1;
    }
}

impl Node for Client {
    type Msg = PrftMsg;

    fn on_start(&mut self, ctx: &mut Context<PrftMsg>) {
        if self.txs_total > 0 {
            self.arm_arrival(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<PrftMsg>, _from: NodeId, msg: PrftMsg) {
        match msg {
            PrftMsg::TxCommitted { id } => {
                // Duplicate acks (retry spread across replicas) are benign.
                if let Some(at) = self.position(id) {
                    let f = self.in_flight.swap_remove(at);
                    ctx.cancel_timer(f.timer);
                    self.latencies.push(ctx.now().0 - f.submitted_at.0);
                    self.stats.committed += 1;
                }
            }
            PrftMsg::TxRejected { id } => {
                self.stats.backpressure_rejects += 1;
                let Some(at) = self.position(id) else {
                    return;
                };
                match self.retry.on_reject {
                    RejectAction::Drop => {
                        let f = self.in_flight.swap_remove(at);
                        ctx.cancel_timer(f.timer);
                        self.stats.dropped += 1;
                    }
                    RejectAction::Requeue => {
                        // Replace the pending timeout with the backoff
                        // delay for the *next* attempt: the rejection
                        // already answered this one.
                        let f = &mut self.in_flight[at];
                        ctx.cancel_timer(f.timer);
                        f.timer = ctx.set_timer(self.retry.delay_for(f.attempt));
                    }
                }
            }
            // Clients are not committee members; protocol traffic that
            // somehow reaches one is dropped.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<PrftMsg>, timer: TimerId) {
        if self.arrival_timer == Some(timer) {
            self.arrival_timer = None;
            if self.next_seq < self.txs_total {
                self.submit_next(ctx);
            }
            if self.next_seq < self.txs_total {
                self.arm_arrival(ctx);
            }
        } else if let Some(at) = self.in_flight.iter().position(|f| f.timer == timer) {
            self.retry_or_drop(ctx, at);
        }
        // Anything else is stale state: the engine drops cancelled
        // timers, so an unknown id changes nothing.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prft_sim::{ConstantDelay, Simulation};

    const CLIENT: NodeId = NodeId(1);

    /// A one-seat "committee" (node 0, a client with nothing to send, so
    /// every `Submit` it receives is dropped) and the client under test as
    /// node 1. Links take 5 ticks; arrivals are 10 ticks apart; a retry
    /// waits 100 ticks, then 200.
    fn setup(txs: u64, max_attempts: u32, on_reject: RejectAction) -> Simulation<Client> {
        let retry = RetryPolicy {
            timeout: SimTime(100),
            max_backoff: SimTime(1_000),
            max_attempts,
            on_reject,
        };
        let spec = WorkloadSpec::steady(1, 10).txs_per_client(txs).retry(retry);
        let sink = Client::new(NodeId(0), 1, 0, &spec.clone().txs_per_client(0));
        let client = Client::new(CLIENT, 1, 0, &spec);
        Simulation::new(vec![sink, client], Box::new(ConstantDelay(SimTime(5))), 3)
    }

    fn client(sim: &Simulation<Client>) -> &Client {
        sim.node(CLIENT)
    }

    fn first_id() -> TxId {
        TxId(CLIENT_TX_BASE)
    }

    /// Delivers `msg` to the client at tick `at`, as if from seat 0, and
    /// runs the simulation through `at`.
    fn answer(sim: &mut Simulation<Client>, at: u64, msg: PrftMsg) {
        sim.inject(SimTime(at), NodeId(0), CLIENT, msg);
        sim.run_until(SimTime(at));
    }

    #[test]
    fn an_ack_cancels_the_retry_timer() {
        let mut sim = setup(1, 4, RejectAction::Requeue);
        sim.run_until(SimTime(20));
        assert_eq!(client(&sim).pending(), 1);
        answer(&mut sim, 30, PrftMsg::TxCommitted { id: first_id() });
        let c = client(&sim);
        assert_eq!((c.stats().committed, c.pending()), (1, 0));
        assert_eq!(c.latencies(), &[20]);
        // The retry timer due at 110 is popped as cancelled, never
        // dispatched.
        let dispatched = sim.events_dispatched();
        sim.run();
        assert_eq!(sim.events_dispatched(), dispatched);
        assert_eq!(client(&sim).stats().retries, 0);
    }

    #[test]
    fn a_requeue_replaces_the_pending_timer() {
        let mut sim = setup(1, 4, RejectAction::Requeue);
        sim.run_until(SimTime(20));
        let armed = client(&sim).in_flight[0].timer;
        answer(&mut sim, 50, PrftMsg::TxRejected { id: first_id() });
        let c = client(&sim);
        let requeued = c.in_flight[0].timer;
        assert_ne!(requeued, armed);
        assert_eq!(
            (c.stats().backpressure_rejects, c.in_flight[0].attempt),
            (1, 1)
        );
        // The first timer (due at 110) is gone; the replacement waits the
        // next attempt's 200 ticks from the rejection.
        sim.run_until(SimTime(249));
        assert_eq!(client(&sim).stats().retries, 0);
        sim.run_until(SimTime(250));
        let c = client(&sim);
        assert_eq!((c.stats().retries, c.in_flight[0].attempt), (1, 2));
    }

    #[test]
    fn a_drop_on_reject_gives_the_tx_up() {
        let mut sim = setup(1, 4, RejectAction::Drop);
        sim.run_until(SimTime(20));
        answer(&mut sim, 30, PrftMsg::TxRejected { id: first_id() });
        let c = client(&sim);
        assert_eq!((c.stats().dropped, c.pending()), (1, 0));
        let dispatched = sim.events_dispatched();
        sim.run();
        assert_eq!(sim.events_dispatched(), dispatched, "its timer went too");
        assert_eq!(client(&sim).stats().retries, 0);
    }

    #[test]
    fn spent_attempts_drop_the_tx() {
        let mut sim = setup(1, 3, RejectAction::Requeue);
        sim.run();
        let c = client(&sim);
        // Sent at 10, retried at 110 and 310, given up at 710.
        assert_eq!(sim.now(), SimTime(710));
        assert_eq!(c.stats().submitted, 1);
        assert_eq!(
            (c.stats().retries, c.stats().dropped, c.pending()),
            (2, 1, 0)
        );
    }

    #[test]
    fn duplicate_acks_and_unknown_timers_change_nothing() {
        let mut sim = setup(2, 4, RejectAction::Requeue);
        sim.run_until(SimTime(10));
        answer(&mut sim, 12, PrftMsg::TxCommitted { id: first_id() });
        answer(&mut sim, 13, PrftMsg::TxCommitted { id: first_id() });
        answer(&mut sim, 14, PrftMsg::TxRejected { id: first_id() });
        let c = client(&sim);
        assert_eq!((c.stats().committed, c.latencies()), (1, &[2][..]));
        assert_eq!((c.stats().dropped, c.stats().retries), (0, 0));
        assert_eq!(c.stats().backpressure_rejects, 1, "counted, nothing else");

        // Forget the armed arrival (due at 20): when it fires it is a
        // timer this client does not know, and no second transaction is
        // generated.
        assert!(c.arrival_timer.is_some());
        sim.node_mut(CLIENT).arrival_timer = None;
        let (stats, pending) = (*client(&sim).stats(), client(&sim).pending());
        sim.run();
        let c = client(&sim);
        assert_eq!((*c.stats(), c.pending(), c.next_seq), (stats, pending, 1));
    }

    #[test]
    fn pending_is_the_in_flight_count() {
        let mut sim = setup(4, 8, RejectAction::Requeue);
        for (tick, pending) in [(0, 0), (10, 1), (20, 2), (40, 4)] {
            sim.run_until(SimTime(tick));
            assert_eq!(client(&sim).pending(), pending, "tick {tick}");
        }
        let id = |seq| TxId(CLIENT_TX_BASE + seq);
        answer(&mut sim, 41, PrftMsg::TxCommitted { id: id(1) });
        answer(&mut sim, 42, PrftMsg::TxCommitted { id: id(3) });
        let c = client(&sim);
        assert_eq!(c.pending(), 2);
        assert_eq!(c.pending(), c.in_flight.len() as u64);
        let left: Vec<TxId> = c.in_flight.iter().map(|f| f.tx.id).collect();
        assert!(left.contains(&id(0)) && left.contains(&id(2)));
        let s = c.stats();
        assert_eq!(s.submitted, s.committed + s.dropped + c.pending());
    }
}
