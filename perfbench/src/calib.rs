//! Host-speed calibration. The reference VM shares its physical cores with
//! other tenants, and for tens of minutes at a time their load makes the
//! same code run about twice as slowly, CPU time included (a UW fold that
//! learned in 1.15 s of CPU took 2.3–2.6 s for the next hour, steal
//! accounted apart). A run therefore times a fixed kernel that is not the
//! program's code many times, spread over the run, and divides its timings
//! by how much slower than in the reference runs that kernel ran. A change
//! to the program moves its timings, never the kernel's.

use crate::measure::median;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// [`Calibration::kernel_s`] on the reference VM when the reference figures
/// of `README.md` were taken (its run medians read 6.2–7.0 ms), in seconds.
pub const REFERENCE_KERNEL_S: f64 = 0.0069;

/// The fixed work, in three parts that respond differently to the
/// neighbours' load (see `README.md`), each about a third of its time:
///
/// 0. *far*: 32K probes of a 2 MB hash table, which miss the private caches;
/// 1. *near*: build a 4K-entry hash table and probe it 16K times, sort 32K
///    words, AND/popcount two 32 KiB bitsets 16 times over, all in the
///    private caches;
/// 2. *search*: backtracking search for every embedding of three labelled
///    4-edge paths in a 512-node graph, each embedding's sorted bindings
///    deduplicated through a hash set — branchy, recursive and
///    allocation-heavy, as θ-subsumption and clause canonicalisation are.
///
/// Buffers and the graph are kept from one call to the next, so no call
/// pays for fresh pages; inputs come from fixed xorshift streams, so every
/// call does the same work.
pub struct Kernel {
    /// 64K entries over 2 MB of buckets, built once.
    big: HashMap<u64, u64>,
    table: HashMap<u64, u64>,
    words: Vec<u64>,
    a: Vec<u64>,
    b: Vec<u64>,
    /// Per node, its 6 out-edges as (label 0..4, target).
    graph: Vec<Vec<(u8, u32)>>,
    binding: Vec<u32>,
    seen: HashSet<Vec<u32>>,
}

/// Parts of [`Kernel::run`].
pub const PARTS: usize = 3;

/// A fixed xorshift stream.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

impl Default for Kernel {
    fn default() -> Self {
        let mut next = stream(0x2545_f491_4f6c_dd1d);
        let big = (0..1 << 16).map(|i| (next() & 0xf_ffff, i)).collect();
        let graph = (0..512)
            .map(|_| {
                (0..6)
                    .map(|_| ((next() % 4) as u8, (next() % 512) as u32))
                    .collect()
            })
            .collect();
        Kernel {
            big,
            table: HashMap::new(),
            words: Vec::new(),
            a: Vec::new(),
            b: Vec::new(),
            graph,
            binding: Vec::new(),
            seen: HashSet::new(),
        }
    }
}

impl Kernel {
    /// Runs the kernel once; `parts_s` receives each part's wall time.
    pub fn run(&mut self, parts_s: &mut [f64; PARTS]) -> u64 {
        let mut t = Instant::now();
        let mut lap = |part: usize| {
            parts_s[part] = t.elapsed().as_secs_f64();
            t = Instant::now();
        };
        let mut next = stream(0x9e37_79b9_7f4a_7c15);
        let far = (0..1 << 15)
            .filter(|_| self.big.contains_key(&(next() & 0xf_ffff)))
            .count() as u64;
        lap(0);
        self.table.clear();
        for _ in 0..1 << 12 {
            *self.table.entry(next() & 0x3fff).or_default() += 1;
        }
        let hits = (0..1 << 14)
            .filter(|_| self.table.contains_key(&(next() & 0x3fff)))
            .count() as u64;
        self.words.clear();
        self.words.extend((0..1 << 15).map(|_| next()));
        self.words.sort_unstable();
        self.a.clear();
        self.a.extend((0..4096).map(|_| next()));
        self.b.clear();
        self.b.extend((0..4096).map(|_| next()));
        let (a, b) = (&self.a, &self.b);
        let popcount: u64 = (0..16)
            .flat_map(|r| (0..4096).map(move |i| (i, (i + r) % 4096)))
            .map(|(i, j)| u64::from((a[i] & b[j]).count_ones()))
            .sum();
        lap(1);
        self.seen.clear();
        let mut embeddings = 0;
        for rotate in 0..3 {
            let labels: Vec<u8> = (0..4).map(|i| (i + rotate) % 4).collect();
            for start in 0..self.graph.len() as u32 {
                self.binding.clear();
                self.binding.push(start);
                embeddings += self.embed(&labels);
            }
        }
        lap(2);
        black_box(far + hits + self.words[17] + popcount + embeddings + self.seen.len() as u64)
    }

    /// Extends the path bound so far along edges labelled `labels[depth]`,
    /// never revisiting a node; counts and records the complete embeddings.
    fn embed(&mut self, labels: &[u8]) -> u64 {
        let depth = self.binding.len() - 1;
        if depth == labels.len() {
            let mut key = self.binding.clone();
            key.sort_unstable();
            self.seen.insert(key);
            return 1;
        }
        let at = self.binding[depth] as usize;
        let mut found = 0;
        for e in 0..self.graph[at].len() {
            let (label, to) = self.graph[at][e];
            if label == labels[depth] && !self.binding.contains(&to) {
                self.binding.push(to);
                found += self.embed(labels);
                self.binding.pop();
            }
        }
        found
    }
}

/// Kernel timings of one run.
#[derive(Default)]
pub struct Calibration {
    kernel: Kernel,
    samples_s: Vec<f64>,
    parts_s: Vec<[f64; PARTS]>,
}

impl Calibration {
    /// Runs the kernel once on the calling thread and records its wall
    /// time. (The thread CPU clock the learning metrics use moves in 4 ms
    /// scheduler ticks, too coarse for a few-millisecond kernel.)
    pub fn sample(&mut self) {
        let mut parts = [0.0; PARTS];
        let t0 = Instant::now();
        black_box(self.kernel.run(&mut parts));
        self.samples_s.push(t0.elapsed().as_secs_f64());
        self.parts_s.push(parts);
    }

    /// The run's kernel time in seconds: the median of its samples.
    pub fn kernel_s(&self) -> f64 {
        median(&self.samples_s)
    }

    /// How many times slower than in the reference runs this run's host ran
    /// the kernel.
    pub fn slowdown(&self) -> f64 {
        self.kernel_s() / REFERENCE_KERNEL_S
    }

    /// Median time of each part of the kernel over the run, in seconds.
    pub fn parts_s(&self) -> [f64; PARTS] {
        std::array::from_fn(|part| {
            median(&self.parts_s.iter().map(|p| p[part]).collect::<Vec<_>>())
        })
    }

    /// Every kernel time of the run, in the order taken.
    pub fn samples(&self) -> &[f64] {
        &self.samples_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut parts = [0.0; PARTS];
        let mut k = Kernel::default();
        let first = k.run(&mut parts);
        assert_eq!(k.run(&mut parts), first);
        assert_eq!(Kernel::default().run(&mut parts), first);
        assert!(parts.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn slowdown_is_median_over_reference() {
        let c = Calibration {
            samples_s: vec![0.0138, 0.1, 0.0069],
            ..Calibration::default()
        };
        assert_eq!(c.kernel_s(), 0.0138);
        assert!((c.slowdown() - 2.0).abs() < 1e-12);
    }
}
