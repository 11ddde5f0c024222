//! Benchmark-owned inputs: arrival sequences and fault plans made from the
//! seed, plus the FNV-1a digests that pin them and the simulator's output.
//!
//! The arrival generators live here rather than reusing the repository's
//! workload generators, so a change to those cannot silently change what
//! the benchmark measures. The task pool and the fault-plan renewal
//! process still come from the stack; [`input_digest`] covers them, so a
//! change there shows as a new digest.

use vfpga_sim::{FaultPlan, LinkFaultKind, Rng, SimTime};
use vfpga_workload::{deepbench_tasks, RnnKind, RnnTask, SizeClass, TaskArrival};

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a little-endian `u64` into the hash.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of a string's bytes.
pub fn fnv1a(text: &str) -> u64 {
    Fnv::default().bytes(text.as_bytes()).finish()
}

/// Draw weights of the three Table 1 size classes, in the order small,
/// medium, large.
#[derive(Debug, Clone, Copy)]
pub struct Mix(pub f64, pub f64, pub f64);

impl Mix {
    /// Table 1 set 5: half small, half large.
    pub const SET5: Mix = Mix(0.5, 0.0, 0.5);
    /// The bursty mix: large tasks at 30%, so greedy single-unit
    /// placements stream weights and promotion has something to win.
    pub const BURSTY: Mix = Mix(0.5, 0.2, 0.3);
}

/// Samples tasks of a [`Mix`] from `deepbench_tasks()`.
struct TaskDraw {
    classes: [Vec<RnnTask>; 3],
    mix: Mix,
}

impl TaskDraw {
    fn new(mix: Mix) -> Self {
        let pool = deepbench_tasks();
        let class = |c: SizeClass| -> Vec<RnnTask> {
            pool.iter()
                .copied()
                .filter(|t| t.size_class() == c)
                .collect()
        };
        TaskDraw {
            classes: [
                class(SizeClass::Small),
                class(SizeClass::Medium),
                class(SizeClass::Large),
            ],
            mix,
        }
    }

    fn draw(&self, rng: &mut Rng) -> RnnTask {
        let u = rng.next_f64();
        let pool = if u < self.mix.0 {
            &self.classes[0]
        } else if u < self.mix.0 + self.mix.1 {
            &self.classes[1]
        } else {
            &self.classes[2]
        };
        pool[rng.below(pool.len())]
    }
}

/// An open-loop Poisson arrival sequence: `count` tasks with exponential
/// gaps of mean `mean_gap`.
pub fn poisson_arrivals(seed: u64, count: usize, mean_gap: SimTime, mix: Mix) -> Vec<TaskArrival> {
    let draw = TaskDraw::new(mix);
    let mut rng = Rng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    (0..count)
        .map(|_| {
            let task = draw.draw(&mut rng);
            now += SimTime::from_secs(rng.exp(mean_gap.as_secs()));
            TaskArrival { at: now, task }
        })
        .collect()
}

/// A bursty open-loop arrival sequence: bursts of `burst` tasks spaced
/// `intra_gap` apart, separated by lulls of `lull`. Only the task mix is
/// random: with random gaps the depth of the backlogs, and with it the host
/// cost of a trace, swung by several percent from seed to seed.
pub fn bursty_arrivals(
    seed: u64,
    count: usize,
    burst: usize,
    intra_gap: SimTime,
    lull: SimTime,
    mix: Mix,
) -> Vec<TaskArrival> {
    let draw = TaskDraw::new(mix);
    let mut rng = Rng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        for _ in 0..burst.min(count - out.len()) {
            let task = draw.draw(&mut rng);
            now += intra_gap;
            out.push(TaskArrival { at: now, task });
        }
        now += lull;
    }
    out
}

fn kind_code(kind: RnnKind) -> u64 {
    match kind {
        RnnKind::Gru => 0,
        RnnKind::Lstm => 1,
    }
}

fn link_kind_code(kind: LinkFaultKind) -> u64 {
    match kind {
        LinkFaultKind::Recovered => 0,
        LinkFaultKind::Degraded => 1,
        LinkFaultKind::Failed => 2,
    }
}

/// FNV-1a over the arrival vector and the fault plan's device and link
/// event vectors.
pub fn input_digest(arrivals: &[TaskArrival], faults: &FaultPlan) -> u64 {
    let mut h = Fnv::default();
    for a in arrivals {
        h = h
            .u64(a.at.as_ps())
            .u64(kind_code(a.task.kind))
            .u64(a.task.hidden as u64)
            .u64(a.task.timesteps as u64);
    }
    for e in faults.events() {
        h = h
            .u64(e.at.as_ps())
            .u64(e.device as u64)
            .u64(u64::from(e.fail));
    }
    for e in faults.link_events() {
        h = h
            .u64(e.at.as_ps())
            .u64(e.link as u64)
            .u64(link_kind_code(e.kind));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn arrivals_repeat_per_seed_and_differ_across_seeds() {
        let gap = SimTime::from_us(20.0);
        let a = poisson_arrivals(7, 500, gap, Mix::SET5);
        assert_eq!(a, poisson_arrivals(7, 500, gap, Mix::SET5));
        assert_ne!(a, poisson_arrivals(8, 500, gap, Mix::SET5));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|x| x.task.size_class() != SizeClass::Medium));
        let none = FaultPlan::none();
        assert_eq!(input_digest(&a, &none), input_digest(&a.clone(), &none));
    }

    #[test]
    fn bursts_have_the_requested_length() {
        let b = bursty_arrivals(
            3,
            110,
            25,
            SimTime::from_us(2.0),
            SimTime::from_ms(5.0),
            Mix::BURSTY,
        );
        assert_eq!(b.len(), 110);
        // The gap after every 25th task includes a lull.
        let gaps: Vec<SimTime> = b
            .windows(2)
            .map(|w| w[1].at.saturating_sub(w[0].at))
            .collect();
        assert!(gaps[24] > gaps[23]);
    }
}
