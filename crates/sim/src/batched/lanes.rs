//! The 64-lane structure-of-arrays replication engine.
//!
//! One call to [`run_batch`] advances up to [`MAX_LANES`] independent
//! replications (one seed per lane) through the *same* cycle loop. The
//! only per-lane state that persists across cycles lives in flat SoA
//! buffers — `dest_mem`/`ages` (per-processor outcome byte and retry
//! age) and the `pending_mask` of queued processors. Everything computed
//! within a cycle (requested-memory set, packed outcome words, grant
//! list) stays in registers of a single lane-major pass.
//!
//! Request issue consumes exactly one full-width RNG step per processor
//! per cycle ([`IssueTable`]: rate gate + destination in a single `u64`
//! draw, drawn for every lane and discarded where a resubmission
//! overrides it — uniform consumption is what keeps lanes steppable in
//! lock-step). After the issue rows, each cycle draws
//! `⌈capacity / 4⌉` further full-width *arbitration words* per lane.
//! All of these are generated up front into packed matrices so the
//! xoshiro step vectorizes across lanes; only the K-class Fisher–Yates
//! subset draws genuinely diverge and step one lane at a time
//! ([`LaneRngs::next_lane`]).
//!
//! Winner selection is *lazy and draw-free*: every stage-2 policy
//! depends only on the requested-memory set, never on which processor
//! won stage 1, so grants are first scanned into a fixed scratch list
//! with no winner attached. Grant `g` then selects its winner with the
//! `g`-th 16-bit chunk of the cycle's arbitration words
//! (`index = chunk · count >> 16`, a uniform pick up to a bias below
//! `count / 2^16`) — no per-grant RNG stepping, no data-dependent
//! branch. The contender-set representation switches at `N = 8`: small
//! networks pack all outcome bytes into one register word and recover
//! contenders by SWAR byte-compare ([`pick_in_word`]); larger ones
//! scatter requester bits into a per-memory table during issue and rank
//! into it with a branchless bit-select ([`select_bit`]). The per-lane
//! reference engine in [`super::reference`] implements the identical
//! spec naively — one scalar [`super::rng::LaneRng`] per seed, the
//! production `grant_buses` arbiters — and the differential suite holds
//! the two bit-identical per lane; both feed the same integer
//! [`LaneCollector`].
//!
//! Round-robin arbiter pointers are lane-*uniform*: the full scheme's
//! memory/bus pointers and the partial scheme's group pointers advance on
//! fixed, fault-dependent (never request-dependent) schedules, so one
//! copy serves all lanes. The single scheme's per-bus pointers advance on
//! grant and are therefore per-lane state.

use super::collect::LaneCollector;
use super::issue::IssueTable;
use super::rng::{reduce, LaneRngs, MAX_LANES};
use crate::{FaultEventKind, SimConfig, SimError, SimReport};
use mbus_topology::{BusNetwork, ConnectionScheme, FaultMask, SchemeKind};
use mbus_workload::RequestMatrix;

/// Bus slot marking a grant that occupies no shared bus (crossbar).
const NO_BUS: u32 = u32::MAX;

/// Immutable per-scheme topology data the grant scans need.
enum SchemeData {
    Crossbar,
    Full,
    Single {
        bus_memories: Vec<Vec<usize>>,
        bus_masks: Vec<u64>,
    },
    Partial {
        groups: usize,
        per_mem: usize,
        per_bus: usize,
        group_masks: Vec<u64>,
    },
    KClasses {
        class_masks: Vec<u64>,
        /// Buses `0..top` serve class `c`.
        class_tops: Vec<usize>,
    },
}

impl SchemeData {
    fn new(net: &BusNetwork) -> Self {
        let m = net.memories();
        match net.scheme() {
            ConnectionScheme::Crossbar => Self::Crossbar,
            ConnectionScheme::Full => Self::Full,
            ConnectionScheme::Single { .. } => Self::Single {
                bus_memories: (0..net.buses())
                    .map(|bus| net.memories_of_bus(bus).collect())
                    .collect(),
                bus_masks: (0..net.buses())
                    .map(|bus| net.memories_of_bus(bus).fold(0u64, |acc, j| acc | (1 << j)))
                    .collect(),
            },
            ConnectionScheme::PartialGroups { groups } => {
                let g = *groups;
                let per_mem = m / g;
                Self::Partial {
                    groups: g,
                    per_mem,
                    per_bus: net.buses() / g,
                    group_masks: (0..g)
                        .map(|q| {
                            (q * per_mem..(q + 1) * per_mem).fold(0u64, |acc, j| acc | (1 << j))
                        })
                        .collect(),
                }
            }
            ConnectionScheme::KClasses { class_sizes } => {
                let k = class_sizes.len();
                Self::KClasses {
                    class_masks: (0..k)
                        .map(|c| {
                            net.memories_of_class(c)
                                // lint:allow(no_panic, class ranges exist for every class index; BusNetwork::new validated the K-class layout)
                                .expect("validated K-class")
                                .fold(0u64, |acc, j| acc | (1 << j))
                        })
                        .collect(),
                    class_tops: (0..k).map(|c| net.kclass_bus_count(c)).collect(),
                }
            }
            // lint:allow(no_panic, ConnectionScheme is non_exhaustive but BusNetwork::new rejects schemes outside the paper's five)
            other => unreachable!("unsupported scheme {:?}", other.kind()),
        }
    }
}

/// Fault-dependent caches, recomputed only when the mask changes. All of
/// this is lane-uniform: every lane lives under the same fault schedule.
struct AliveCaches {
    all_alive: bool,
    /// Alive buses, ascending.
    alive: Vec<usize>,
    /// Memories with no surviving bus (always 0 for the crossbar).
    unreachable: u64,
    /// Partial groups: each group's alive buses, ascending.
    group_alive: Vec<Vec<usize>>,
    /// K classes: each class's alive buses, top-down.
    class_alive_desc: Vec<Vec<usize>>,
}

impl AliveCaches {
    fn new(net: &BusNetwork, scheme: &SchemeData, mask: &FaultMask) -> Self {
        let mut caches = Self {
            all_alive: true,
            alive: Vec::with_capacity(net.buses()),
            unreachable: 0,
            group_alive: match scheme {
                SchemeData::Partial { groups, .. } => vec![Vec::new(); *groups],
                _ => Vec::new(),
            },
            class_alive_desc: match scheme {
                SchemeData::KClasses { class_tops, .. } => vec![Vec::new(); class_tops.len()],
                _ => Vec::new(),
            },
        };
        caches.refresh(net, scheme, mask);
        caches
    }

    fn refresh(&mut self, net: &BusNetwork, scheme: &SchemeData, mask: &FaultMask) {
        self.all_alive = mask.failed_count() == 0;
        self.alive.clear();
        self.alive.extend(mask.iter_alive());
        self.unreachable = 0;
        if !self.all_alive && net.kind() != SchemeKind::Crossbar {
            for j in 0..net.memories() {
                if !net.buses_of_memory(j).any(|bus| mask.is_alive(bus)) {
                    self.unreachable |= 1 << j;
                }
            }
        }
        match scheme {
            SchemeData::Partial {
                groups, per_bus, ..
            } => {
                for (q, list) in self.group_alive.iter_mut().enumerate() {
                    debug_assert!(q < *groups);
                    list.clear();
                    list.extend((q * per_bus..(q + 1) * per_bus).filter(|&bus| mask.is_alive(bus)));
                }
            }
            SchemeData::KClasses { class_tops, .. } => {
                for (c, list) in self.class_alive_desc.iter_mut().enumerate() {
                    list.clear();
                    list.extend((0..class_tops[c]).rev().filter(|&bus| mask.is_alive(bus)));
                }
            }
            _ => {}
        }
    }
}

const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HIGH8: u64 = 0x8080_8080_8080_8080;
const ONES: u64 = 0x0101_0101_0101_0101;
const GATHER: u64 = 0x0102_0408_1020_4080;

/// Index of the `k`-th (0-based) set bit of `bits`, without a
/// data-dependent loop: six popcount-halving steps, each a conditional
/// skip expressed as arithmetic. The rank is data-random, so a
/// clear-bits loop would mispredict on nearly every multi-contender
/// grant.
#[inline]
fn select_bit(bits: u64, k: u32) -> usize {
    debug_assert!(k < bits.count_ones());
    let mut b = bits;
    let mut r = k;
    let mut pos = 0u32;
    for shift in [32u32, 16, 8, 4, 2, 1] {
        let c = (b & ((1u64 << shift) - 1)).count_ones();
        let skip = u32::from(r >= c);
        r -= c * skip;
        pos += shift * skip;
        b >>= shift * skip;
    }
    pos as usize
}

/// Per-byte equality: bit `i` of the result is set iff byte `i` of
/// `word` equals byte `i` of `needle` (a broadcast value in practice).
///
/// Exact SWAR zero-byte detection — the carry out of each 7-bit add
/// lands in that byte's own top bit, so unlike the classic
/// `(x - LO) & !x & HI` form there is no inter-byte borrow and the
/// *position* of every zero byte is reliable — followed by an MSB-gather
/// multiply that packs the eight per-byte flags into the low byte.
#[inline]
fn eq_bytes(word: u64, needle: u64) -> u64 {
    let x = word ^ needle;
    // Top bit of each byte set iff that byte of `x` is non-zero.
    let nonzero = ((x & LOW7) + LOW7) | x;
    ((!nonzero >> 7) & ONES).wrapping_mul(GATHER) >> 56
}

/// Branch-free stage-1 pick for networks with at most eight processors
/// (outcome bytes fit one word): per-byte match flags, their in-word
/// prefix sums (a `· 0x0101…` multiply accumulates byte `i` into every
/// byte above it), and a rank comparison resolve a grant in a fixed
/// handful of ALU ops regardless of the contender count.
///
/// `chunk` is the grant's 16-bit arbitration chunk; the selected rank is
/// `chunk · count >> 16` and the returned index is the position of the
/// rank-th matching byte.
#[inline]
fn pick_in_word(word: u64, needle: u64, chunk: u64) -> usize {
    let x = word ^ needle;
    let nonzero = ((x & LOW7) + LOW7) | x;
    let matches = (!nonzero >> 7) & ONES;
    let prefix = matches.wrapping_mul(ONES);
    let count = prefix >> 56;
    let rank = (chunk * count) >> 16;
    // Byte `i` gains its top bit iff `prefix_i ≥ rank + 1`; the winner
    // is the first such byte, i.e. the number of bytes strictly below
    // it (prefix bytes are ≤ 8 and `rank ≤ 7`, so the add stays within
    // each byte).
    let ge = prefix.wrapping_add((0x7f - rank).wrapping_mul(ONES)) & HIGH8;
    (8 - ge.count_ones()) as usize
}

/// Runs one replication per seed (at most [`MAX_LANES`]) in SoA lock-step
/// and returns one [`SimReport`] per lane, in seed order.
///
/// The reports follow the batched engine's sampling spec (see the module
/// docs of [`super`]): per-lane results are bit-identical to
/// [`super::reference::run_reference`] for the same seeds, and
/// statistically indistinguishable from — but not bit-identical to — the
/// scalar [`crate::Simulator`].
///
/// # Errors
///
/// Same contract as [`crate::Simulator::build`] plus
/// [`SimError::BadFaultSchedule`] for an invalid `config.faults`.
///
/// # Panics
///
/// Panics if `seeds` is empty or exceeds [`MAX_LANES`], or if the network
/// has more than 64 processors or memories — callers gate on
/// [`super::eligible`].
pub fn run_batch(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    config: &SimConfig,
    seeds: &[u64],
) -> Result<Vec<SimReport>, SimError> {
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
    config.faults.validate(net.buses())?;
    let (n, m, b) = (net.processors(), net.memories(), net.buses());
    assert!(
        n <= MAX_LANES && m <= MAX_LANES,
        "batched engine requires N ≤ {MAX_LANES} and M ≤ {MAX_LANES}"
    );
    let table = IssueTable::new(matrix, r)?;
    let mut rngs = LaneRngs::new(seeds);
    let lanes = rngs.lanes();
    let scheme = SchemeData::new(net);
    let resubmission = config.resubmission;

    let mut mask = FaultMask::none(b);
    let mut caches = AliveCaches::new(net, &scheme, &mask);
    let mut collectors: Vec<LaneCollector> = (0..lanes)
        .map(|_| LaneCollector::new(net, config))
        .collect();
    // Shared per-bus in-service counts — the fault schedule is
    // lane-uniform, so one tally serves every lane's report.
    let mut bus_alive = vec![0u64; b];

    // Lane-major SoA state that persists across cycles.
    let mut pending_mask = [0u64; MAX_LANES];
    let mut dest_mem = vec![0u8; lanes * n];
    let mut ages = vec![0u64; lanes * n];
    // Single scheme: per-lane per-bus rotating pointers (< M ≤ 64).
    let mut rr_per_bus = vec![0u8; lanes * b];
    // Lane-uniform rotating pointers (full / partial schemes).
    let mut rr_memory = 0usize;
    let mut rr_bus = 0usize;
    let mut rr_group = match &scheme {
        SchemeData::Partial { groups, .. } => vec![0usize; *groups],
        _ => Vec::new(),
    };
    // Full scheme: the alive-bus list rotated by rr_bus, shared per cycle.
    let mut alive_rot: Vec<usize> = Vec::with_capacity(b);
    // K classes: per-lane scratch, reused.
    let mut fy_list: Vec<u8> = Vec::with_capacity(m);
    let mut contenders: Vec<Vec<u8>> = match &scheme {
        SchemeData::KClasses { class_masks, .. } => (0..b)
            .map(|_| Vec::with_capacity(class_masks.len()))
            .collect(),
        _ => Vec::new(),
    };
    // Per-cycle draw matrix, processor-major: `draw_buf[p·lanes + l]`.
    let mut draw_buf = vec![0u64; n * lanes];
    // Per-cycle arbitration words, word-major: grant `g` of lane `l`
    // reads 16-bit chunk `g & 3` of `arb_buf[(g >> 2)·lanes + l]`. The
    // network's capacity bounds the grants of any cycle, so
    // `⌈capacity / 4⌉` words cover every grant.
    let warb = net.capacity().div_ceil(4);
    let mut arb_buf = vec![0u64; warb * lanes];
    // Contender-set representation: with N ≤ 8 a lane's outcome bytes
    // pack into one register word and the winner loop recovers contender
    // sets by SWAR byte-compare; larger networks scatter requester bits
    // into a per-memory table instead (index `m` is a sentinel slot that
    // absorbs idle processors' masked-to-zero writes, so the issue loop
    // never branches on "did this processor request at all").
    let small = n <= 8;
    let mut requesters = if small {
        Vec::new()
    } else {
        vec![0u64; lanes * (m + 1)]
    };
    // Per-lane grant scratch: at most one grant per distinct requested
    // memory, and M ≤ 64.
    let mut grant_mem = [0u8; MAX_LANES];
    let mut grant_bus = [NO_BUS; MAX_LANES];

    let total = config.warmup + config.cycles;
    let events = config.faults.events();
    let mut fault_cursor = 0usize;
    for cycle in 0..total {
        let mut faults_changed = false;
        while fault_cursor < events.len() && events[fault_cursor].cycle == cycle {
            let event = events[fault_cursor];
            match event.kind {
                FaultEventKind::Fail => mask.fail(event.bus).map_err(SimError::Topology)?,
                FaultEventKind::Repair => mask.repair(event.bus).map_err(SimError::Topology)?,
            }
            faults_changed = true;
            fault_cursor += 1;
        }
        if faults_changed {
            caches.refresh(net, &scheme, &mask);
        }
        let measured = cycle >= config.warmup;
        if measured {
            if caches.all_alive {
                for alive in &mut bus_alive {
                    *alive += 1;
                }
            } else {
                for (bus, alive) in bus_alive.iter_mut().enumerate() {
                    *alive += u64::from(mask.is_alive(bus));
                }
            }
        }

        // 1. Issue draws (one full-width RNG step per processor) followed
        // by the cycle's arbitration words, all lanes advanced together
        // so the xoshiro recurrence vectorizes.
        for chunk in draw_buf.chunks_exact_mut(lanes) {
            rngs.fill_into(chunk);
        }
        for chunk in arb_buf.chunks_exact_mut(lanes) {
            rngs.fill_into(chunk);
        }

        // Full scheme: one rotated alive list serves every lane this cycle.
        // The list is padded to `b` entries so the per-lane scan can run a
        // fixed trip count with masked writes — padding slots are only
        // read for discarded scratch entries.
        let mut alive_len = 0usize;
        if matches!(scheme, SchemeData::Full) && !caches.alive.is_empty() {
            alive_rot.clear();
            alive_rot.extend_from_slice(&caches.alive);
            let rot = rr_bus % alive_rot.len();
            alive_rot.rotate_left(rot);
            alive_len = alive_rot.len();
            alive_rot.resize(b, 0);
        }

        // 2–5. One pass per lane: decode issues, drop unreachable targets,
        // scan grants, draw winners lazily, retire/resubmit, collect.
        for l in 0..lanes {
            let dest = &mut dest_mem[l * n..(l + 1) * n];
            let age = &mut ages[l * n..(l + 1) * n];
            let reqm = if small {
                &mut [] as &mut [u64]
            } else {
                &mut requesters[l * (m + 1)..(l + 1) * (m + 1)]
            };
            let collector = &mut collectors[l];
            let mut pending = pending_mask[l];
            let mut req = 0u64; // memories with at least one requester
            let mut active = 0u64; // requesting processors
            let mut issued = 0u32;
            // Packed outcome bytes (small networks only): byte `p` is 0
            // for idle, `1 + j` for a request to memory `j`.
            let mut packed = 0u64;

            // Issue: a lane's draw is discarded when a resubmitted request
            // overrides it (uniform consumption keeps lanes in lock-step).
            // Every step is a mask select or a masked write — the
            // idle/request and accept/alias outcomes are data-random, and
            // branching on them would mispredict half the time.
            match (small, resubmission) {
                (true, true) => {
                    for (p, slot) in dest.iter_mut().enumerate() {
                        let bit = 1u64 << p;
                        let decoded = table.decode_raw(p, draw_buf[p * lanes + l]);
                        let qmask = usize::from(pending & bit != 0).wrapping_neg();
                        // A queued processor re-issues last cycle's outcome.
                        let outcome = (usize::from(*slot) & qmask) | (decoded & !qmask);
                        let amask = u64::from(outcome != 0).wrapping_neg();
                        req |= (1u64 << (outcome.wrapping_sub(1) & 63)) & amask;
                        active |= bit & amask;
                        // lint:allow(lossy_cast, outcomes are ≤ M ≤ 64)
                        *slot = outcome as u8;
                        packed |= (outcome as u64) << (p * 8);
                    }
                    // Fresh issues are the active requesters that were not
                    // carried over from the retry queue.
                    issued = (active & !pending).count_ones();
                }
                (true, false) => {
                    // Without resubmission nothing reads `dest` or the
                    // retry bookkeeping: decode + pack only, and `active`
                    // stays 0 (nothing downstream reads it).
                    for p in 0..n {
                        let outcome = table.decode_raw(p, draw_buf[p * lanes + l]);
                        let amask = u64::from(outcome != 0).wrapping_neg();
                        req |= (1u64 << (outcome.wrapping_sub(1) & 63)) & amask;
                        // lint:allow(lossy_cast, amask & 1 is 0 or 1)
                        issued += (amask & 1) as u32;
                        packed |= (outcome as u64) << (p * 8);
                    }
                }
                (false, true) => {
                    for (p, slot) in dest.iter_mut().enumerate() {
                        let bit = 1u64 << p;
                        let decoded = table.decode_raw(p, draw_buf[p * lanes + l]);
                        let qmask = usize::from(pending & bit != 0).wrapping_neg();
                        let outcome = (usize::from(*slot) & qmask) | (decoded & !qmask);
                        let amask = u64::from(outcome != 0).wrapping_neg();
                        // Idle processors scatter onto the sentinel slot
                        // with an all-zero write mask.
                        let j = outcome.wrapping_sub(1).min(m);
                        reqm[j] |= bit & amask;
                        req |= (1u64 << (j & 63)) & amask;
                        active |= bit & amask;
                        // lint:allow(lossy_cast, outcomes are ≤ M ≤ 64)
                        *slot = outcome as u8;
                    }
                    issued = (active & !pending).count_ones();
                }
                (false, false) => {
                    for p in 0..n {
                        let outcome = table.decode_raw(p, draw_buf[p * lanes + l]);
                        let amask = u64::from(outcome != 0).wrapping_neg();
                        let j = outcome.wrapping_sub(1).min(m);
                        reqm[j] |= (1u64 << p) & amask;
                        req |= (1u64 << (j & 63)) & amask;
                        // lint:allow(lossy_cast, amask & 1 is 0 or 1)
                        issued += (amask & 1) as u32;
                    }
                }
            }

            // Drop requests to unreachable memories (the unreachable set is
            // lane-uniform, the victims are not). Victims' outcome bytes
            // are zeroed so they never surface as contenders; their stale
            // `dest` bytes are harmless because `pending` is cleared.
            let mut unreachable = 0u32;
            // lint:allow(no_panic, `unreachable` here is a bitmask field compared with !=, not the macro)
            if caches.unreachable != 0 {
                let mut dropped = req & caches.unreachable;
                if dropped != 0 {
                    req &= !caches.unreachable;
                    while dropped != 0 {
                        let j = dropped.trailing_zeros() as usize;
                        dropped &= dropped - 1;
                        let victims = if small {
                            let needle = (j as u64 + 1).wrapping_mul(ONES);
                            let victims = eq_bytes(packed, needle);
                            let mut bits = victims;
                            while bits != 0 {
                                let p = bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                packed &= !(0xffu64 << (p * 8));
                            }
                            victims
                        } else {
                            let victims = reqm[j];
                            reqm[j] = 0;
                            victims
                        };
                        unreachable += victims.count_ones();
                        active &= !victims;
                        pending &= !victims;
                    }
                }
            }

            // Grant scan (no winner drawn yet) into the fixed scratch list.
            let mut grants = 0usize;
            match &scheme {
                SchemeData::Crossbar => {
                    let mut bits = req;
                    while bits != 0 {
                        // lint:allow(lossy_cast, memory indices are < M ≤ 64)
                        grant_mem[grants] = bits.trailing_zeros() as u8;
                        grant_bus[grants] = NO_BUS;
                        grants += 1;
                        bits &= bits - 1;
                    }
                }
                SchemeData::Full => {
                    if alive_len != 0 && req != 0 {
                        // Cyclic visit from the scan pointer: rotating the
                        // request word right by `rr_memory` puts the
                        // memories at or above the pointer (ascending)
                        // below the wrapped-around ones, so one scan
                        // replaces a two-part mask split. The trip count is
                        // fixed at `b` (an exhausted word parks at zero and
                        // its slots are discarded), keeping the loop exit
                        // off the data-dependent request population.
                        let take = (req.count_ones() as usize).min(alive_len);
                        // lint:allow(lossy_cast, rr_memory < M ≤ 64 fits u32)
                        let rot = rr_memory as u32;
                        let mut bits = req.rotate_right(rot);
                        for (g, &bus) in alive_rot.iter().enumerate() {
                            // lint:allow(lossy_cast, memory indices are < M ≤ 64; bus indices fit u32)
                            grant_mem[g] = (bits.trailing_zeros().wrapping_add(rot) & 63) as u8;
                            // lint:allow(lossy_cast, memory indices are < M ≤ 64; bus indices fit u32)
                            grant_bus[g] = bus as u32;
                            bits &= bits.wrapping_sub(1);
                        }
                        grants = take;
                    }
                }
                SchemeData::Single {
                    bus_memories,
                    bus_masks,
                } => {
                    for &bus in &caches.alive {
                        if bus_masks[bus] & req == 0 {
                            continue;
                        }
                        let mems = &bus_memories[bus];
                        let start = usize::from(rr_per_bus[l * b + bus]) % mems.len();
                        for offset in 0..mems.len() {
                            let idx = (start + offset) % mems.len();
                            let memory = mems[idx];
                            if req & (1 << memory) != 0 {
                                // lint:allow(lossy_cast, memory indices are < M ≤ 64; bus indices fit u32)
                                grant_mem[grants] = memory as u8;
                                // lint:allow(lossy_cast, memory indices are < M ≤ 64; bus indices fit u32)
                                grant_bus[grants] = bus as u32;
                                grants += 1;
                                // lint:allow(lossy_cast, per-bus pointer values are < M ≤ 64)
                                rr_per_bus[l * b + bus] = ((idx + 1) % mems.len()) as u8;
                                break;
                            }
                        }
                    }
                }
                SchemeData::Partial {
                    groups,
                    per_mem,
                    group_masks,
                    ..
                } => {
                    for q in 0..*groups {
                        let alive_q = &caches.group_alive[q];
                        if alive_q.is_empty() || group_masks[q] & req == 0 {
                            continue;
                        }
                        let mut granted = 0usize;
                        for offset in 0..*per_mem {
                            if granted == alive_q.len() {
                                break;
                            }
                            let memory = q * per_mem + (rr_group[q] + offset) % per_mem;
                            if req & (1 << memory) != 0 {
                                // lint:allow(lossy_cast, memory indices are < M ≤ 64; bus indices fit u32)
                                grant_mem[grants] = memory as u8;
                                // lint:allow(lossy_cast, memory indices are < M ≤ 64; bus indices fit u32)
                                grant_bus[grants] = alive_q[granted] as u32;
                                grants += 1;
                                granted += 1;
                            }
                        }
                    }
                }
                SchemeData::KClasses { class_masks, .. } => {
                    // The only per-lane RNG consumer in stage 2: subset
                    // selection and cross-class contention are genuinely
                    // divergent, so this path mirrors `grant_buses` draw
                    // for draw on a single lane.
                    for list in &mut contenders {
                        list.clear();
                    }
                    for (c, &class_mask) in class_masks.iter().enumerate() {
                        let creq = class_mask & req;
                        if creq == 0 {
                            continue;
                        }
                        let alive_desc = &caches.class_alive_desc[c];
                        if alive_desc.is_empty() {
                            continue;
                        }
                        fy_list.clear();
                        let mut bits = creq;
                        while bits != 0 {
                            // lint:allow(lossy_cast, memory indices are < M ≤ 64)
                            fy_list.push(bits.trailing_zeros() as u8);
                            bits &= bits - 1;
                        }
                        let cap = alive_desc.len().min(fy_list.len());
                        for i in 0..cap {
                            let pick = i + reduce(rngs.next_lane(l), fy_list.len() - i);
                            fy_list.swap(i, pick);
                        }
                        for slot in 0..cap {
                            contenders[alive_desc[slot]].push(fy_list[slot]);
                        }
                    }
                    for (bus, list) in contenders.iter().enumerate() {
                        if list.is_empty() {
                            continue;
                        }
                        grant_mem[grants] = list[reduce(rngs.next_lane(l), list.len())];
                        // lint:allow(lossy_cast, memory indices are < M ≤ 64; bus indices fit u32)
                        grant_bus[grants] = bus as u32;
                        grants += 1;
                    }
                }
            }

            // Lazy stage-1 winners, resolved per grant in grant order from
            // the pre-drawn arbitration chunks: recover the contender set
            // by byte-compare, then pick contender `chunk · count >> 16`.
            // A single contender degenerates to index 0 — no branch, no
            // divergent RNG stepping.
            let mut served_bits = 0u64;
            // The first arbitration word covers four grants; hoisting it
            // keeps the common small-capacity case to one load per lane.
            let arb0 = arb_buf[l];
            for g in 0..grants {
                let memory = usize::from(grant_mem[g]);
                let aword = if g < 4 {
                    arb0
                } else {
                    arb_buf[(g >> 2) * lanes + l]
                };
                let chunk = aword >> ((g & 3) * 16) & 0xffff;
                let processor = if small {
                    let needle = (u64::from(grant_mem[g]) + 1).wrapping_mul(ONES);
                    pick_in_word(packed, needle, chunk)
                } else {
                    let cont = reqm[memory];
                    let count = cont.count_ones();
                    // `chunk · count >> 16 < count`, so the rank is in range.
                    // lint:allow(lossy_cast, chunk·count >> 16 is < count ≤ 64)
                    select_bit(cont, ((chunk * u64::from(count)) >> 16) as u32)
                };
                let pbit = 1u64 << processor;
                served_bits |= pbit;
                if measured {
                    // Branch-free: a non-queued winner contributes wait 0.
                    let wait = (pending >> processor & 1) * age[processor];
                    let bus = (grant_bus[g] != NO_BUS).then(|| grant_bus[g] as usize);
                    collector.grant(processor, memory, bus, wait);
                }
                pending &= !pbit;
            }

            if resubmission {
                let retry = active & !served_bits;
                let mut bits = retry;
                while bits != 0 {
                    let p = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // Branch-free age bump: fresh entrants restart at 1.
                    age[p] = age[p] * (pending >> p & 1) + 1;
                }
                pending = retry;
            } else {
                pending = 0;
            }

            if measured {
                // lint:allow(lossy_cast, at most 64 grants per cycle)
                collector.end_cycle(grants as u32, issued, unreachable);
            }
            if !small {
                // Selective clear: only the requested slots were dirtied
                // (the sentinel slot is write-only and can stay stale).
                let mut bits = req;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    reqm[j] = 0;
                }
            }
            pending_mask[l] = pending;
        }

        // Lane-uniform pointer advance, matching the scalar arbiters'
        // schedule: the full scheme rotates whenever any bus is alive, the
        // partial scheme rotates each group with an alive bus.
        match &scheme {
            SchemeData::Full if !caches.alive.is_empty() => {
                rr_memory = (rr_memory + 1) % m;
                rr_bus = (rr_bus + 1) % b;
            }
            SchemeData::Partial {
                groups, per_mem, ..
            } => {
                for (q, rr) in rr_group.iter_mut().enumerate().take(*groups) {
                    if !caches.group_alive[q].is_empty() {
                        *rr = (*rr + 1) % per_mem;
                    }
                }
            }
            _ => {}
        }
    }

    Ok(collectors
        .into_iter()
        .map(|collector| collector.finish(config, &bus_alive))
        .collect())
}
