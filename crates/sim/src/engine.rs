//! The cycle-by-cycle simulation engine.

use crate::arbiter::{grant_buses, Stage2State};
use crate::metrics::Collector;
use crate::{SimConfig, SimError, SimReport};
use mbus_topology::{BusNetwork, FaultMask, SchemeKind};
use mbus_trace::writer::{TraceGrant, TraceWriter};
use mbus_workload::{RequestMatrix, WorkloadSampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One served request: processor `processor` accessed memory `memory`,
/// carried by `bus` (`None` for the crossbar, which has no shared buses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The processor whose request completed.
    pub processor: usize,
    /// The memory module accessed.
    pub memory: usize,
    /// The granting bus, if the scheme uses buses.
    pub bus: Option<usize>,
}

/// Everything that happened in one simulated cycle.
#[derive(Debug, Clone, Default)]
pub struct CycleOutcome {
    /// Requests newly issued this cycle.
    pub issued: usize,
    /// Total requesting processors this cycle (new + resubmitted).
    pub active: usize,
    /// Requests aimed at memories with no surviving bus (dropped).
    pub unreachable: usize,
    /// Requests served, with their carriers.
    pub grants: Vec<Grant>,
    /// For each grant, how many cycles its request waited (0 = served on
    /// the cycle it was issued; only nonzero under resubmission).
    pub waits: Vec<u64>,
}

impl CycleOutcome {
    /// Rewinds the outcome for the next cycle, keeping vector capacity.
    fn clear(&mut self) {
        self.issued = 0;
        self.active = 0;
        self.unreachable = 0;
        self.grants.clear();
        self.waits.clear();
    }

    /// An outcome with capacity for the worst cycle of an `N × M` system
    /// (at most `min(N, M)` grants), so steady-state stepping never grows
    /// it.
    fn with_capacity(net: &BusNetwork) -> Self {
        let worst = net.processors().min(net.memories());
        Self {
            grants: Vec::with_capacity(worst),
            waits: Vec::with_capacity(worst),
            ..Self::default()
        }
    }
}

/// A resubmission-mode in-flight request.
#[derive(Debug, Clone, Copy)]
struct Pending {
    memory: usize,
    age: u64,
}

/// The discrete-event simulator for one network × workload × rate
/// combination.
///
/// [`Simulator::run`] executes a full configured run; [`Simulator::step`]
/// advances a single cycle for fine-grained experiments. The paper's
/// assumptions 1–5 (§III-A) hold by default; resubmission mode relaxes
/// assumption 5.
///
/// The simulator owns every buffer a cycle needs — including the
/// [`CycleOutcome`] that [`Simulator::step`] returns by reference — so the
/// steady-state hot loop performs **no heap allocation** (verified by the
/// `alloc` integration test). `crate::reference::ReferenceSimulator`
/// preserves the pre-optimization engine; the golden tests require both to
/// emit byte-identical reports.
///
/// Cloning produces a simulator with identical configuration but *fresh*
/// RNG and arbitration state (call [`Simulator::reset`] with a seed before
/// use) — `StdRng` is deliberately not cloneable, and replications want
/// independent streams anyway.
#[derive(Debug)]
pub struct Simulator {
    net: BusNetwork,
    sampler: WorkloadSampler,
    rng: StdRng,
    mask: FaultMask,
    state: Stage2State,
    bus_memories: Vec<Vec<usize>>,
    resubmission: bool,
    pending: Vec<Option<Pending>>,
    /// Whether `M ≤ 64`, i.e. requested sets fit one `u64` bitmask.
    masks_valid: bool,
    // Scratch buffers reused across cycles.
    destinations: Vec<Option<usize>>,
    requesters: Vec<Vec<usize>>,
    winners: Vec<Option<usize>>,
    served: Vec<bool>,
    outcome: CycleOutcome,
}

impl Clone for Simulator {
    fn clone(&self) -> Self {
        Self {
            net: self.net.clone(),
            sampler: self.sampler.clone(),
            rng: StdRng::seed_from_u64(0),
            mask: FaultMask::none(self.net.buses()),
            state: Stage2State::new(&self.net),
            bus_memories: self.bus_memories.clone(),
            resubmission: self.resubmission,
            pending: vec![None; self.net.processors()],
            masks_valid: self.masks_valid,
            destinations: vec![None; self.net.processors()],
            requesters: (0..self.net.memories())
                .map(|_| Vec::with_capacity(self.net.processors()))
                .collect(),
            winners: vec![None; self.net.memories()],
            served: vec![false; self.net.processors()],
            outcome: CycleOutcome::with_capacity(&self.net),
        }
    }
}

impl Simulator {
    /// Builds a simulator for `net` under the workload `matrix` at request
    /// rate `r`.
    ///
    /// # Errors
    ///
    /// * dimension mismatches → [`SimError::DimensionMismatch`];
    /// * invalid `r` → [`SimError::Workload`].
    pub fn build(net: &BusNetwork, matrix: &RequestMatrix, r: f64) -> Result<Self, SimError> {
        if net.processors() != matrix.processors() {
            return Err(SimError::DimensionMismatch {
                what: "processors",
                network: net.processors(),
                workload: matrix.processors(),
            });
        }
        if net.memories() != matrix.memories() {
            return Err(SimError::DimensionMismatch {
                what: "memories",
                network: net.memories(),
                workload: matrix.memories(),
            });
        }
        let sampler = WorkloadSampler::new(matrix, r)?;
        let bus_memories = (0..net.buses())
            .map(|bus| net.memories_of_bus(bus).collect())
            .collect();
        Ok(Self {
            state: Stage2State::new(net),
            mask: FaultMask::none(net.buses()),
            bus_memories,
            sampler,
            rng: StdRng::seed_from_u64(0),
            resubmission: false,
            pending: vec![None; net.processors()],
            masks_valid: net.memories() <= 64,
            destinations: vec![None; net.processors()],
            // Worst case every processor requests the same memory, so give
            // each requester list capacity N up front: the hot loop must
            // never grow a buffer.
            requesters: (0..net.memories())
                .map(|_| Vec::with_capacity(net.processors()))
                .collect(),
            winners: vec![None; net.memories()],
            served: vec![false; net.processors()],
            outcome: CycleOutcome::with_capacity(net),
            net: net.clone(),
        })
    }

    /// The simulated network.
    pub fn network(&self) -> &BusNetwork {
        &self.net
    }

    /// The current fault mask.
    pub fn fault_mask(&self) -> &FaultMask {
        &self.mask
    }

    /// Mutable access to the fault mask, for manual fault injection between
    /// [`Simulator::step`] calls.
    pub fn fault_mask_mut(&mut self) -> &mut FaultMask {
        &mut self.mask
    }

    /// Enables or disables resubmission semantics for subsequent cycles.
    pub fn set_resubmission(&mut self, resubmission: bool) {
        self.resubmission = resubmission;
        if !resubmission {
            self.pending.iter_mut().for_each(|p| *p = None);
        }
    }

    /// Reseeds the RNG and clears all arbitration / resubmission state.
    pub fn reset(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.state.reset();
        self.mask = FaultMask::none(self.net.buses());
        self.pending.iter_mut().for_each(|p| *p = None);
    }

    /// Whether `memory` can currently be served (has an alive bus, or the
    /// scheme is a crossbar).
    fn reachable(&self, memory: usize) -> bool {
        if self.net.kind() == SchemeKind::Crossbar {
            return true;
        }
        self.net
            .buses_of_memory(memory)
            .any(|bus| self.mask.is_alive(bus))
    }

    /// Advances one cycle and reports what happened.
    ///
    /// The returned outcome borrows the simulator's reusable cycle buffer —
    /// copy out whatever must outlive the next [`Simulator::step`] call.
    /// Reusing the buffer is what keeps steady-state stepping free of heap
    /// allocation.
    pub fn step(&mut self) -> &CycleOutcome {
        self.outcome.clear();

        // 1. Per-processor destinations: resubmitted or freshly sampled.
        // Counts accumulate in locals (written back once): accumulating
        // through `self` keeps the counters in memory across the loop and
        // costs a store/reload per processor.
        let mut active = 0usize;
        let mut issued = 0usize;
        let resubmission = self.resubmission;
        let sampler = &self.sampler;
        let rng = &mut self.rng;
        for (p, (dest_slot, pending_slot)) in self
            .destinations
            .iter_mut()
            .zip(self.pending.iter())
            .enumerate()
        {
            *dest_slot = match pending_slot {
                Some(pending) if resubmission => {
                    active += 1;
                    Some(pending.memory)
                }
                _ => {
                    let dest = sampler.sample_processor(p, rng);
                    if dest.is_some() {
                        active += 1;
                        issued += 1;
                    }
                    dest
                }
            };
        }
        self.outcome.active = active;
        self.outcome.issued = issued;
        self.arbitrate();
        &self.outcome
    }

    /// Advances one cycle with externally supplied requests (`requests[p]`
    /// is processor `p`'s destination, `None` = idle) — the trace-replay
    /// entry point. Resubmission state is ignored: the caller owns the
    /// request stream.
    ///
    /// Like [`Simulator::step`], the outcome borrows the simulator's
    /// reusable cycle buffer.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != N` or any destination is out of range.
    pub fn step_with_requests(&mut self, requests: &[Option<usize>]) -> &CycleOutcome {
        let n = self.net.processors();
        assert_eq!(requests.len(), n, "one request slot per processor");
        self.outcome.clear();
        for (p, &dest) in requests.iter().enumerate() {
            if let Some(j) = dest {
                assert!(j < self.net.memories(), "memory {j} out of range");
                self.outcome.active += 1;
                self.outcome.issued += 1;
            }
            self.destinations[p] = dest;
            self.pending[p] = None;
        }
        self.arbitrate();
        &self.outcome
    }

    /// Stages 2–5 of a cycle, shared by [`Simulator::step`] and
    /// [`Simulator::step_with_requests`]: reachability filtering, the two
    /// arbitration stages, and completion bookkeeping. Accumulates into
    /// `self.outcome`; the whole path reuses simulator-owned buffers.
    fn arbitrate(&mut self) {
        let n = self.net.processors();
        // 2. Drop requests to unreachable memories (even under
        // resubmission, else a permanent failure deadlocks the processor).
        // With every bus alive nothing can be unreachable (each memory is
        // wired to at least one bus), so the scan only runs under faults.
        let all_alive = self.mask.failed_count() == 0;
        if !all_alive {
            for p in 0..n {
                if let Some(memory) = self.destinations[p] {
                    if !self.reachable(memory) {
                        self.outcome.unreachable += 1;
                        self.destinations[p] = None;
                        self.pending[p] = None;
                    }
                }
            }
        }

        // 3. Stage 1: per-memory arbiters pick one requester uniformly.
        // The requested-set bitmask rides along for stage 2's fast paths.
        for list in &mut self.requesters {
            list.clear();
        }
        let masks_valid = self.masks_valid;
        let procs_fit = n <= 64;
        let mut requested_mask = 0u64;
        // Requesting processors as a bitmask (valid when N ≤ 64), consumed
        // by stage 5's branch-free resubmission walk.
        let mut requester_bits = 0u64;
        for (p, dest) in self.destinations.iter().enumerate() {
            if let Some(memory) = *dest {
                self.requesters[memory].push(p);
                if masks_valid {
                    requested_mask |= 1 << memory;
                }
                if procs_fit {
                    requester_bits |= 1 << p;
                }
            }
        }
        let rng = &mut self.rng;
        if masks_valid {
            // Visit exactly the requested memories in ascending (= the
            // reference's memory) order: same draws, none of the
            // data-dependent `is_empty` branches of the dense scan.
            self.winners.iter_mut().for_each(|w| *w = None);
            let mut bits = requested_mask;
            while bits != 0 {
                let memory = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let list = &self.requesters[memory];
                self.winners[memory] = Some(list[rng.random_range(0..list.len())]);
            }
        } else {
            for (winner_slot, list) in self.winners.iter_mut().zip(self.requesters.iter()) {
                *winner_slot = if list.is_empty() {
                    None
                } else {
                    Some(list[rng.random_range(0..list.len())])
                };
            }
        }

        // 4. Stage 2: scheme-specific bus assignment.
        grant_buses(
            &self.net,
            &self.mask,
            &self.bus_memories,
            &self.winners,
            requested_mask,
            self.masks_valid,
            all_alive,
            &mut self.state,
            &mut self.rng,
            &mut self.outcome.grants,
        );

        // 5. Completion bookkeeping: grants finish; under resubmission every
        // other requester re-queues with age + 1. With N ≤ 64 the served set
        // lives in one register instead of the `served` byte array.
        if procs_fit {
            let mut served_bits = 0u64;
            for grant in &self.outcome.grants {
                served_bits |= 1 << grant.processor;
                let age = self.pending[grant.processor].map_or(0, |p| p.age);
                self.outcome.waits.push(age);
                self.pending[grant.processor] = None;
            }
            if self.resubmission {
                // Walk exactly the unserved requesters.
                let mut retry = requester_bits & !served_bits;
                while retry != 0 {
                    let p = retry.trailing_zeros() as usize;
                    retry &= retry - 1;
                    let Some(memory) = self.destinations[p] else {
                        debug_assert!(false, "bit set only for requesters");
                        continue;
                    };
                    let age = self.pending[p].map_or(0, |pending| pending.age) + 1;
                    self.pending[p] = Some(Pending { memory, age });
                }
            }
        } else {
            self.served.iter_mut().for_each(|s| *s = false);
            for grant in &self.outcome.grants {
                self.served[grant.processor] = true;
                let age = self.pending[grant.processor].map_or(0, |p| p.age);
                self.outcome.waits.push(age);
                self.pending[grant.processor] = None;
            }
            if self.resubmission {
                #[allow(clippy::needless_range_loop)] // p indexes parallel arrays
                for p in 0..n {
                    if self.served[p] {
                        continue;
                    }
                    if let Some(memory) = self.destinations[p] {
                        let age = self.pending[p].map_or(0, |pending| pending.age) + 1;
                        self.pending[p] = Some(Pending { memory, age });
                    }
                }
            }
        }
    }

    /// Replays a recorded [`mbus_workload::trace::Trace`] against this
    /// network and aggregates a [`SimReport`] (no warmup; arbitration
    /// randomness seeded by `seed`).
    ///
    /// Replay lets different topologies be compared under *bit-identical*
    /// request streams, removing workload sampling noise from A/B
    /// experiments.
    ///
    /// # Panics
    ///
    /// Panics if the trace references processors or memories outside this
    /// network.
    pub fn run_trace(&mut self, trace: &mbus_workload::trace::Trace, seed: u64) -> SimReport {
        self.reset(seed);
        let config = SimConfig::new(trace.cycles().max(1))
            .with_seed(seed)
            .with_batch_len((trace.cycles() / 100).max(1));
        let mut collector = Collector::new(&self.net, &config);
        let mut requests: Vec<Option<usize>> = vec![None; self.net.processors()];
        for (_, records) in trace.iter_cycles() {
            requests.iter_mut().for_each(|r| *r = None);
            for record in records {
                requests[record.processor] = Some(record.memory);
            }
            collector.record_alive(&self.mask);
            let outcome = self.step_with_requests(&requests);
            collector.record(outcome);
        }
        collector.finish(&config)
    }

    /// Runs a full configured simulation: applies the fault schedule,
    /// discards `config.warmup` cycles, measures `config.cycles` cycles,
    /// and aggregates a [`SimReport`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadFaultSchedule`] if `config.faults` references
    /// a bus outside the network or schedules conflicting same-cycle events
    /// — fault schedules come from user input (`--faults`), so an invalid
    /// one must not abort the process.
    pub fn run(&mut self, config: &SimConfig) -> Result<SimReport, SimError> {
        // The `None` observer compiles the trace hook down to a dead
        // branch: the golden tests pin this path bit-identical to the
        // pre-trace engine.
        self.run_impl(config, None::<&mut TraceWriter<std::io::Sink>>)
    }

    /// Runs like [`Simulator::run`] while streaming one binary trace
    /// record per *measured* cycle into `sink` (the `MBT1` format of
    /// `mbus-trace`). Returns the report together with the finished sink.
    ///
    /// The trace hook observes each cycle strictly *after* the engine has
    /// stepped, so a traced run consumes the RNG identically to an
    /// untraced one — same seed, same `SimReport`, bit for bit (the
    /// `trace_reconcile` differential suite enforces this).
    ///
    /// # Errors
    ///
    /// Everything [`Simulator::run`] returns, plus [`SimError::TraceIo`]
    /// when writing `sink` failed at any point during the run.
    pub fn run_traced<W: std::io::Write>(
        &mut self,
        config: &SimConfig,
        sink: W,
    ) -> Result<(SimReport, W), SimError> {
        let mut writer = TraceWriter::new(sink, &self.net, config.resubmission);
        let report = self.run_impl(config, Some(&mut writer))?;
        let sink = writer.finish().map_err(|err| SimError::TraceIo {
            message: err.to_string(),
        })?;
        Ok((report, sink))
    }

    /// The shared run loop behind [`Simulator::run`] and
    /// [`Simulator::run_traced`]. The optional trace writer is consulted
    /// once per measured cycle, after [`Simulator::step`] — it reads the
    /// cycle outcome plus the engine's post-arbitration scratch state
    /// (fault mask, per-memory requester lists) and never touches the RNG
    /// or any buffer the hot loop writes.
    fn run_impl<W: std::io::Write>(
        &mut self,
        config: &SimConfig,
        mut trace: Option<&mut TraceWriter<W>>,
    ) -> Result<SimReport, SimError> {
        config.faults.validate(self.net.buses())?;
        self.reset(config.seed);
        self.set_resubmission(config.resubmission);
        let mut collector = Collector::new(&self.net, config);
        let total = config.warmup + config.cycles;
        let mut fault_cursor = 0usize;
        let events = config.faults.events();
        for cycle in 0..total {
            while fault_cursor < events.len() && events[fault_cursor].cycle == cycle {
                let event = events[fault_cursor];
                match event.kind {
                    crate::FaultEventKind::Fail => {
                        self.mask.fail(event.bus).map_err(SimError::Topology)?;
                    }
                    crate::FaultEventKind::Repair => {
                        self.mask.repair(event.bus).map_err(SimError::Topology)?;
                    }
                }
                fault_cursor += 1;
            }
            let measured = cycle >= config.warmup;
            if measured {
                collector.record_alive(&self.mask);
            }
            // Dropping `step`'s returned reference releases its `&mut self`
            // borrow; the outcome lives in the simulator-owned cycle buffer,
            // which the collector and trace hook read alongside the fault
            // mask and requester lists.
            self.step();
            if measured {
                let outcome = &self.outcome;
                collector.record(outcome);
                if let Some(writer) = trace.as_deref_mut() {
                    writer.record_cycle(
                        outcome.issued as u64,
                        outcome.active as u64,
                        outcome.unreachable as u64,
                        self.mask.iter_failed(),
                        self.requesters
                            .iter()
                            .enumerate()
                            .filter(|(_, list)| !list.is_empty())
                            .map(|(memory, list)| (memory, list.len() as u64)),
                        outcome
                            .grants
                            .iter()
                            .zip(&outcome.waits)
                            .map(|(grant, &wait)| TraceGrant {
                                bus: grant.bus,
                                memory: grant.memory,
                                processor: grant.processor,
                                wait,
                            }),
                    );
                }
            }
        }
        Ok(collector.finish(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::{HierarchicalModel, RequestModel, UniformModel};

    fn hier_matrix(n: usize) -> RequestMatrix {
        HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix()
    }

    #[test]
    fn build_validates_dimensions() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let wrong = UniformModel::new(4, 8).unwrap().matrix();
        assert!(matches!(
            Simulator::build(&net, &wrong, 1.0),
            Err(SimError::DimensionMismatch { .. })
        ));
        let wrong = UniformModel::new(8, 4).unwrap().matrix();
        assert!(Simulator::build(&net, &wrong, 1.0).is_err());
    }

    #[test]
    fn step_counts_are_consistent() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let mut sim = Simulator::build(&net, &hier_matrix(8), 1.0).unwrap();
        sim.reset(3);
        for _ in 0..100 {
            let outcome = sim.step();
            // r = 1: every processor requests every cycle.
            assert_eq!(outcome.issued, 8);
            assert_eq!(outcome.active, 8);
            assert!(outcome.grants.len() <= 4);
            assert!(!outcome.grants.is_empty());
            assert_eq!(outcome.waits.len(), outcome.grants.len());
            // Distinct memories and buses per cycle.
            let mut mems: Vec<_> = outcome.grants.iter().map(|g| g.memory).collect();
            mems.sort_unstable();
            mems.dedup();
            assert_eq!(mems.len(), outcome.grants.len());
        }
    }

    #[test]
    fn same_seed_reproduces_run() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let matrix = hier_matrix(8);
        let config = SimConfig::new(2_000).with_seed(11);
        let r1 = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&config)
            .unwrap();
        let r2 = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&config)
            .unwrap();
        assert_eq!(r1.bandwidth.mean(), r2.bandwidth.mean());
        assert_eq!(r1.bus_utilization, r2.bus_utilization);
    }

    #[test]
    fn zero_rate_serves_nothing() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let mut sim = Simulator::build(&net, &hier_matrix(8), 0.0).unwrap();
        let report = sim.run(&SimConfig::new(500)).unwrap();
        assert_eq!(report.bandwidth.mean(), 0.0);
        assert_eq!(report.offered_load, 0.0);
    }

    #[test]
    fn all_buses_failed_serves_nothing() {
        let net = BusNetwork::new(8, 8, 2, ConnectionScheme::Full).unwrap();
        let mut sim = Simulator::build(&net, &hier_matrix(8), 1.0).unwrap();
        sim.reset(5);
        sim.fault_mask_mut().fail(0).unwrap();
        sim.fault_mask_mut().fail(1).unwrap();
        let outcome = sim.step();
        assert!(outcome.grants.is_empty());
        assert_eq!(outcome.unreachable, 8);
    }

    #[test]
    fn resubmission_retries_same_destination() {
        // One bus, two processors always requesting distinct memories: the
        // loser must retry and eventually be served with wait ≥ 1.
        let matrix = RequestMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let net = BusNetwork::new(2, 2, 1, ConnectionScheme::Full).unwrap();
        let mut sim = Simulator::build(&net, &matrix, 1.0).unwrap();
        sim.reset(1);
        sim.set_resubmission(true);
        let mut waits_seen = Vec::new();
        for _ in 0..10 {
            let outcome = sim.step();
            assert_eq!(outcome.grants.len(), 1);
            waits_seen.extend(outcome.waits.iter().copied());
        }
        assert!(waits_seen.iter().any(|&w| w >= 1), "some request waited");
    }

    #[test]
    fn run_applies_fault_schedule() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let matrix = hier_matrix(8);
        // Healthy.
        let healthy = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&SimConfig::new(20_000).with_seed(2))
            .unwrap();
        // Three of four buses die at cycle 0.
        let config = SimConfig::new(20_000).with_seed(2).with_faults(
            crate::FaultSchedule::from_events(vec![
                crate::FaultEvent {
                    cycle: 0,
                    bus: 0,
                    kind: crate::FaultEventKind::Fail,
                },
                crate::FaultEvent {
                    cycle: 0,
                    bus: 1,
                    kind: crate::FaultEventKind::Fail,
                },
                crate::FaultEvent {
                    cycle: 0,
                    bus: 2,
                    kind: crate::FaultEventKind::Fail,
                },
            ])
            .unwrap(),
        );
        let degraded = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&config)
            .unwrap();
        assert!(degraded.bandwidth.mean() <= 1.0 + 1e-9);
        assert!(healthy.bandwidth.mean() > 3.5);
        // Dead buses report zero utilization.
        assert_eq!(degraded.bus_utilization[0], 0.0);
        assert!(degraded.bus_utilization[3] > 0.9);
    }

    #[test]
    fn trace_replay_is_deterministic_and_comparable() {
        use mbus_workload::trace::Trace;
        use mbus_workload::WorkloadSampler;
        use rand::SeedableRng;
        let matrix = hier_matrix(8);
        let sampler = WorkloadSampler::new(&matrix, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let trace = Trace::generate(&sampler, 5_000, &mut rng);

        let full = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let single =
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap();
        let mut sim_full = Simulator::build(&full, &matrix, 1.0).unwrap();
        let r1 = sim_full.run_trace(&trace, 9);
        let r2 = sim_full.run_trace(&trace, 9);
        assert_eq!(r1.bandwidth.mean(), r2.bandwidth.mean(), "deterministic");
        // Identical request stream: full must beat single cycle for cycle
        // in aggregate.
        let mut sim_single = Simulator::build(&single, &matrix, 1.0).unwrap();
        let rs = sim_single.run_trace(&trace, 9);
        assert!(r1.bandwidth.mean() > rs.bandwidth.mean());
        // Offered load matches the trace exactly.
        assert!((r1.offered_load - trace.offered_load()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "memory 9 out of range")]
    fn replay_validates_destinations() {
        let matrix = hier_matrix(8);
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let mut sim = Simulator::build(&net, &matrix, 1.0).unwrap();
        let mut requests = vec![None; 8];
        requests[0] = Some(9);
        let _ = sim.step_with_requests(&requests);
    }

    #[test]
    fn run_rejects_invalid_fault_schedule() {
        let net = BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap();
        let matrix = UniformModel::new(4, 4).unwrap().matrix();
        let config = SimConfig::new(10).with_faults(crate::FaultSchedule::fail_at(0, 9));
        let err = Simulator::build(&net, &matrix, 1.0)
            .unwrap()
            .run(&config)
            .unwrap_err();
        assert!(
            matches!(err, SimError::BadFaultSchedule { ref reason } if reason.contains("bus 9")),
            "unexpected error: {err}"
        );
    }
}
