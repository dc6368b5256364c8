//! Seeded request generators for the three workloads.
//!
//! Every request is built from [`SimRequest::ooo_default`] by struct
//! update and varies only machine axes the paper sweeps: physical
//! vector registers (Figure 5), issue-queue slots (OOOVA-16 vs
//! OOOVA-128), memory latency (Figure 8), the commit model (Figure 9)
//! and load elimination (Figures 11–12), plus the program and the
//! choice of machine. Engine knobs (`stepper`, `frontend_batch`,
//! `stage_masking`), fault injection and deadlines are never set, so
//! the generated traffic stays the same when those knobs leave the
//! wire.

use std::collections::HashSet;

use oov_isa::{CommitMode, LoadElimMode, MachineConfig, OooConfig, RefConfig};
use oov_kernels::{Program, Scale};
use oov_serve::SimRequest;

/// SplitMix64: a tiny, seedable, well-mixed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed` and a `stream` label,
    /// so each workload and client draws independently of the others.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The point every setup simulates first to force the lazy suite
/// compile: index 0 of every workload's pool, never drawn again by the
/// `serve_cold` and `serve_churn` generators.
pub fn warmup_point(scale: Scale) -> SimRequest {
    SimRequest::ooo_default(Program::Swm256, scale)
}

/// `serve_hot`'s warm set: the ten programs on loadgen's six machines.
pub fn hot_set(scale: Scale) -> Vec<SimRequest> {
    let machines = [
        MachineConfig::Ooo(OooConfig::default()),
        MachineConfig::Ooo(OooConfig::default().with_queue_slots(128)),
        MachineConfig::Ooo(OooConfig::default().with_memory_latency(100)),
        MachineConfig::Ooo(OooConfig::default().with_commit(CommitMode::Late)),
        MachineConfig::Ooo(OooConfig::default().with_load_elim(LoadElimMode::SleVle)),
        MachineConfig::Ref(RefConfig::default()),
    ];
    Program::ALL
        .iter()
        .flat_map(|&program| {
            machines.iter().map(move |&machine| SimRequest {
                machine,
                ..SimRequest::ooo_default(program, scale)
            })
        })
        .collect()
}

/// Memory latencies drawn for both machines. The paper's Figure 8 runs
/// 1 to 100 cycles; the range is doubled so the reference machine,
/// whose only swept axis is latency, has enough distinct points.
const MAX_LATENCY: usize = 200;
/// One request in `REF_SHARE` goes to the reference machine.
const REF_SHARE: usize = 16;
const QUEUE_SLOTS: [usize; 5] = [8, 16, 32, 64, 128];
const LOAD_ELIM: [LoadElimMode; 3] = [LoadElimMode::Off, LoadElimMode::Sle, LoadElimMode::SleVle];

/// One seeded-random point on the paper's machine axes.
fn random_point(rng: &mut Rng, program: Program, scale: Scale) -> SimRequest {
    let latency = 1 + rng.below(MAX_LATENCY) as u32;
    let machine = if rng.below(REF_SHARE) == 0 {
        MachineConfig::Ref(RefConfig::default().with_memory_latency(latency))
    } else {
        let commit = if rng.below(2) == 0 {
            CommitMode::Early
        } else {
            CommitMode::Late
        };
        let mut cfg = OooConfig::default()
            .with_phys_v_regs(9 + rng.below(56))
            .with_queue_slots(QUEUE_SLOTS[rng.below(QUEUE_SLOTS.len())])
            .with_memory_latency(latency)
            .with_commit(commit);
        if commit == CommitMode::Late {
            cfg = cfg.with_load_elim(LOAD_ELIM[rng.below(LOAD_ELIM.len())]);
        }
        MachineConfig::Ooo(cfg)
    };
    SimRequest {
        machine,
        ..SimRequest::ooo_default(program, scale)
    }
}

/// An endless stream of distinct points. Index 0 is the warm-up point;
/// every later draw that repeats an earlier point is redrawn, so on
/// `serve_cold` every request misses the result cache. Point `i` runs
/// program `i mod 10`: simulation cost depends most on the program, and
/// an even mix keeps one seed's traffic as costly as another's.
pub struct DistinctGen {
    rng: Rng,
    scale: Scale,
    seen: HashSet<u64>,
    /// Every point emitted so far, in emission order.
    pub points: Vec<SimRequest>,
}

impl DistinctGen {
    pub fn new(seed: u64, stream: u64, scale: Scale) -> Self {
        let warm = warmup_point(scale);
        DistinctGen {
            rng: Rng::new(seed, stream),
            scale,
            seen: HashSet::from([warm.fingerprint()]),
            points: vec![warm],
        }
    }

    /// Emits the next distinct point and returns its index.
    pub fn next_index(&mut self) -> u32 {
        let program = Program::ALL[self.points.len() % Program::ALL.len()];
        loop {
            let p = random_point(&mut self.rng, program, self.scale);
            if self.seen.insert(p.fingerprint()) {
                self.points.push(p);
                return u32::try_from(self.points.len() - 1).expect("fewer than 2^32 points");
            }
        }
    }
}

/// `serve_churn`'s pool: the warm-up point at index 0, then `n`
/// distinct points.
pub fn distinct_pool(seed: u64, stream: u64, scale: Scale, n: usize) -> Vec<SimRequest> {
    let mut g = DistinctGen::new(seed, stream, scale);
    for _ in 0..n {
        g.next_index();
    }
    g.points
}

/// A skewed draw from a pool of `n`: index `⌊n·u³⌋`, so the lowest
/// eighth of the pool gets half of all draws and the tail is still
/// reached.
pub fn skewed(rng: &mut Rng, n: usize) -> u32 {
    let u = rng.unit();
    let i = ((n as f64) * u * u * u) as usize;
    u32::try_from(i.min(n - 1)).expect("pool fits u32")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        let a = distinct_pool(7, 1, Scale::Smoke, 200);
        let b = distinct_pool(7, 1, Scale::Smoke, 200);
        let c = distinct_pool(8, 1, Scale::Smoke, 200);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 201);
        assert_eq!(a[0], warmup_point(Scale::Smoke));
        let fps: HashSet<u64> = a.iter().map(SimRequest::fingerprint).collect();
        assert_eq!(fps.len(), a.len(), "pool points are distinct");
    }

    #[test]
    fn generated_points_leave_engine_knobs_at_their_defaults() {
        let base = SimRequest::ooo_default(Program::Trfd, Scale::Paper);
        let default_cfg = OooConfig::default();
        for p in distinct_pool(3, 2, Scale::Paper, 500) {
            assert_eq!(p.stepper, base.stepper);
            assert_eq!(p.fault_at, None);
            if let MachineConfig::Ooo(c) = p.machine {
                assert_eq!(c.frontend_batch, default_cfg.frontend_batch);
                assert_eq!(c.stage_masking, default_cfg.stage_masking);
            }
        }
    }

    #[test]
    fn hot_set_is_sixty_distinct_points() {
        let set = hot_set(Scale::Paper);
        let fps: HashSet<u64> = set.iter().map(SimRequest::fingerprint).collect();
        assert_eq!(fps.len(), 60);
    }
}
