//! The sweep planner: an `(n, k, seed)` grid sharded into content-addressed
//! chunks.
//!
//! A chunk is a run of whole `(n, seed)` **cells** (each cell expands to
//! its full `k` row), taken in the engine's canonical grid order — `ns ×
//! seeds` row-major, `k` innermost within a cell. Cutting on cell
//! boundaries keeps every `k` row inside one chunk, so the engine's
//! reference-layer cache (keyed by instance, shared across a cell's `k`s)
//! amortizes exactly as it does in a streaming sweep, and a chunk's rows
//! are a pure function of the chunk alone.
//!
//! Content addressing: each chunk's [`key`](ChunkPlan::key) folds the
//! [`task_key`](pobp_engine::task_key) of every task it contains — the same
//! content keys the cache and the chaos layer use — and the whole spec has
//! a canonical [`spec_string`](SweepSpec::spec_string) + digest. The
//! checkpoint manifest records both, which is how `--resume` detects a
//! changed grid (hard error) or a changed chunk (recomputed) instead of
//! silently merging rows from two different sweeps.

use std::fmt::{self, Write};

use pobp_core::JobSet;
use pobp_engine::{instance_hash, splitmix64, task_key_with, Algo, SolveTask};
use pobp_instances::RandomWorkload;

/// A sharded sweep specification: the grid axes plus the chunk size.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Instance sizes.
    pub ns: Vec<usize>,
    /// Preemption budgets (the `k` row of every cell).
    pub ks: Vec<u32>,
    /// Workload seeds.
    pub seeds: Vec<u64>,
    /// The algorithm every task runs.
    pub algo: Algo,
    /// Machines per task.
    pub machines: usize,
    /// Whether tasks use the exact `OPT_∞` reference.
    pub exact_ref: bool,
    /// `(n, seed)` cells per chunk (≥ 1; the last chunk may be smaller).
    pub chunk_cells: usize,
}

impl SweepSpec {
    /// Total `(n, seed)` cells in the grid.
    pub fn cells(&self) -> usize {
        self.ns.len() * self.seeds.len()
    }

    /// Total rows (tasks) the grid expands to.
    pub fn rows(&self) -> usize {
        self.cells() * self.ks.len()
    }

    /// Whether the grid is empty along any axis.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// The canonical one-line description of the spec. Everything that
    /// changes the output bytes or the chunking is in here; the manifest
    /// stores it (plus its digest) and `--resume` refuses a mismatch.
    pub fn spec_string(&self) -> String {
        fn list<T: fmt::Display>(out: &mut String, key: &str, xs: &[T]) {
            out.push_str(key);
            out.push('=');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{x}");
            }
            out.push(';');
        }
        let mut out = String::with_capacity(64 + 12 * self.seeds.len());
        out.push_str("v1;");
        list(&mut out, "ns", &self.ns);
        list(&mut out, "ks", &self.ks);
        list(&mut out, "seeds", &self.seeds);
        let _ = write!(
            out,
            "alg={};machines={};exact_ref={};chunk_cells={}",
            self.algo.name(),
            self.machines,
            self.exact_ref,
            self.chunk_cells,
        );
        out
    }

    /// FNV-1a digest of [`spec_string`](SweepSpec::spec_string).
    pub fn digest(&self) -> u64 {
        fnv1a(self.spec_string().as_bytes())
    }

    /// Splits the grid into chunks of `chunk_cells` whole cells, in grid
    /// order. Panics on an empty grid or `chunk_cells == 0` (the CLI
    /// validates both first).
    pub fn chunks(&self) -> Vec<ChunkPlan> {
        assert!(!self.is_empty(), "empty sweep grid");
        assert!(self.chunk_cells > 0, "chunk_cells must be >= 1");
        let mut cells = Vec::with_capacity(self.cells());
        for &n in &self.ns {
            for &seed in &self.seeds {
                cells.push((n, seed));
            }
        }
        cells
            .chunks(self.chunk_cells)
            .enumerate()
            .map(|(index, cells)| ChunkPlan {
                index,
                cells: cells.to_vec(),
                ks: self.ks.clone(),
                algo: self.algo,
                machines: self.machines,
                exact_ref: self.exact_ref,
            })
            .collect()
    }
}

/// One chunk: a run of whole `(n, seed)` cells and the shared solving
/// parameters. Expands to `cells × ks` tasks, in grid order.
#[derive(Clone, Debug)]
pub struct ChunkPlan {
    /// Position in the chunk sequence (shard file names use it).
    pub index: usize,
    /// The `(n, seed)` cells, in grid order.
    pub cells: Vec<(usize, u64)>,
    /// The `k` row of every cell.
    pub ks: Vec<u32>,
    /// The algorithm every task runs.
    pub algo: Algo,
    /// Machines per task.
    pub machines: usize,
    /// Whether tasks use the exact `OPT_∞` reference.
    pub exact_ref: bool,
}

impl ChunkPlan {
    /// Rows this chunk emits.
    pub fn rows(&self) -> usize {
        self.cells.len() * self.ks.len()
    }

    /// The `(n, k, seed)` coordinates of every row, parallel to
    /// [`tasks`](ChunkPlan::tasks).
    pub fn coords(&self) -> Vec<(usize, u32, u64)> {
        let mut out = Vec::with_capacity(self.rows());
        for &(n, seed) in &self.cells {
            for &k in &self.ks {
                out.push((n, k, seed));
            }
        }
        out
    }

    /// Expands the chunk into solver tasks (the standard random workload;
    /// each cell's instance generated once and shared across its `k` row —
    /// the same expansion as [`GridSpec::tasks`](pobp_engine::GridSpec)).
    pub fn tasks(&self) -> Vec<SolveTask> {
        let mut out = Vec::with_capacity(self.rows());
        for &(n, seed) in &self.cells {
            let instance = RandomWorkload::standard(n).generate(seed);
            for &k in &self.ks {
                out.push(SolveTask {
                    instance: instance.clone(),
                    k,
                    machines: self.machines,
                    algo: self.algo,
                    exact_ref: self.exact_ref,
                    label: format!("n={n} k={k} seed={seed}"),
                });
            }
        }
        out
    }

    /// The chunk's content key: a fold of every task's content key (the
    /// same [`task_key`](pobp_engine::task_key) the cache and chaos layers
    /// use), mixed with the chunk's position. Recorded in the manifest; a resume recomputes it
    /// and recomputes any chunk whose key changed.
    pub fn key(&self) -> u64 {
        self.key_of(&self.tasks())
    }

    /// [`key`](ChunkPlan::key) over an already-expanded task list (the
    /// runner expands once and reuses it). A task whose instance equals
    /// (`==`) the previous task's reuses that task's [`instance_hash`], so
    /// each cell of a chunk is hashed once, not once per `k`. For the
    /// positive, finite job values the hash reads, `==` is bit equality.
    pub fn key_of(&self, tasks: &[SolveTask]) -> u64 {
        let mut h = splitmix64(self.index as u64 ^ 0x6368_756e_6b30_3031);
        let mut last: Option<(&JobSet, u64)> = None;
        for t in tasks {
            let inst = match last {
                Some((seen, inst)) if *seen == t.instance => inst,
                _ => instance_hash(&t.instance),
            };
            last = Some((&t.instance, inst));
            h = splitmix64(h ^ task_key_with(inst, t));
        }
        h
    }
}

/// FNV-1a over bytes — the digest used for spec strings and shard files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Extends a running FNV-1a digest (`fnv1a(b) == fnv1a_extend(OFFSET, b)`),
/// so the shard writer can fold line after line without buffering the file.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            ns: vec![6, 8],
            ks: vec![0, 1, 2],
            seeds: vec![0, 1, 2],
            algo: Algo::Reduction,
            machines: 1,
            exact_ref: false,
            chunk_cells: 4,
        }
    }

    #[test]
    fn chunks_cover_the_grid_in_order_without_splitting_cells() {
        let s = spec();
        let chunks = s.chunks();
        assert_eq!(chunks.len(), 2, "6 cells at 4 per chunk");
        assert_eq!(chunks[0].cells.len(), 4);
        assert_eq!(chunks[1].cells.len(), 2);
        assert_eq!(chunks.iter().map(ChunkPlan::rows).sum::<usize>(), s.rows());
        // Grid order: n outer, seed inner.
        assert_eq!(chunks[0].cells, vec![(6, 0), (6, 1), (6, 2), (8, 0)]);
        assert_eq!(chunks[1].cells, vec![(8, 1), (8, 2)]);
        // Coords are parallel to tasks, k innermost.
        let coords = chunks[1].coords();
        assert_eq!(coords[0], (8, 0, 1));
        assert_eq!(coords[1], (8, 1, 1));
        assert_eq!(coords.len(), chunks[1].tasks().len());
    }

    /// Every checkpoint on disk records these keys, so a change to
    /// `instance_hash`, `task_key` or `key_of` that moves one makes every
    /// existing checkpoint fail `--resume` with "chunk key mismatch".
    #[test]
    fn chunk_keys_and_spec_digest_are_pinned() {
        let s = spec();
        assert_eq!(s.digest(), 0x17de_71e7_3bd1_30ac);
        let keys: Vec<u64> = s.chunks().iter().map(ChunkPlan::key).collect();
        assert_eq!(keys, [0x99c9_9cc8_ddba_a14b, 0xf248_b9b6_c7f5_851c]);
    }

    /// The chunk key as first written, one `task_key` (and so one instance
    /// hash) per task: the oracle for the once-per-cell hashing of `key_of`.
    fn key_by_task_fold(chunk: &ChunkPlan, tasks: &[SolveTask]) -> u64 {
        let mut h = splitmix64(chunk.index as u64 ^ 0x6368_756e_6b30_3031);
        for t in tasks {
            h = splitmix64(h ^ pobp_engine::task_key(t));
        }
        h
    }

    proptest::proptest! {
        #[test]
        fn key_of_matches_the_per_task_fold(
            index in 0usize..50,
            picks in proptest::collection::vec(
                (0usize..3, 0u32..5, 0usize..4, 1usize..3, proptest::prelude::AnyBool),
                0..16,
            ),
            seed in 0u64..1000,
        ) {
            // Three instances: A, B, and A with its last job's value
            // moved, so an equality check that stops early would merge
            // two instances that hash differently.
            let a = RandomWorkload::standard(6).generate(seed);
            let b = RandomWorkload::standard(6).generate(seed + 1);
            let mut jobs: Vec<pobp_core::Job> = a.iter().map(|(_, j)| *j).collect();
            jobs.last_mut().expect("n = 6").value += 1.0;
            let near_a: JobSet = jobs.into_iter().collect();
            let pool = [a, b, near_a];
            let algos = [Algo::Reduction, Algo::Combined, Algo::LsaCs, Algo::K0];
            let tasks: Vec<SolveTask> = picks
                .iter()
                .map(|&(inst, k, algo, machines, exact_ref)| SolveTask {
                    instance: pool[inst].clone(),
                    k,
                    machines,
                    algo: algos[algo],
                    exact_ref,
                    label: String::new(),
                })
                .collect();
            let chunk = ChunkPlan {
                index,
                cells: Vec::new(),
                ks: Vec::new(),
                algo: Algo::Reduction,
                machines: 1,
                exact_ref: false,
            };
            proptest::prop_assert_eq!(chunk.key_of(&tasks), key_by_task_fold(&chunk, &tasks));
        }
    }

    #[test]
    fn chunk_keys_are_content_addressed() {
        let s = spec();
        let a = s.chunks();
        let b = s.chunks();
        assert_eq!(a[0].key(), b[0].key(), "same plan, same keys");
        assert_ne!(a[0].key(), a[1].key(), "different chunks, different keys");
        // Changing the grid changes the keys of the chunks it reaches.
        let mut s2 = spec();
        s2.ks = vec![0, 1, 4];
        assert_ne!(s2.chunks()[0].key(), a[0].key());
    }

    /// The spec string as it was first built, one `String` per list
    /// element joined with commas: the oracle for the one-buffer writer.
    fn spec_string_by_join(s: &SweepSpec) -> String {
        let list = |xs: &[u64]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",");
        format!(
            "v1;ns={};ks={};seeds={};alg={};machines={};exact_ref={};chunk_cells={}",
            list(&s.ns.iter().map(|&n| n as u64).collect::<Vec<_>>()),
            list(&s.ks.iter().map(|&k| k as u64).collect::<Vec<_>>()),
            list(&s.seeds),
            s.algo.name(),
            s.machines,
            s.exact_ref,
            s.chunk_cells,
        )
    }

    proptest::proptest! {
        #[test]
        fn spec_string_matches_the_join_oracle(
            ns in proptest::collection::vec(0usize..5000, 0..4),
            ks in proptest::collection::vec(0u32..64, 0..5),
            seeds in proptest::collection::vec(0u64..u64::MAX, 0..30),
            algo in 0usize..4,
            machines in 1usize..9,
            exact_ref in proptest::prelude::AnyBool,
            chunk_cells in 0usize..100,
        ) {
            let s = SweepSpec {
                ns,
                ks,
                seeds,
                algo: [Algo::Reduction, Algo::Combined, Algo::LsaCs, Algo::K0][algo],
                machines,
                exact_ref,
                chunk_cells,
            };
            proptest::prop_assert_eq!(s.spec_string(), spec_string_by_join(&s));
        }
    }

    #[test]
    fn spec_string_pins_every_output_affecting_field() {
        let s = spec();
        let d = s.digest();
        for (mutate, _why) in [
            (Box::new(|x: &mut SweepSpec| x.ns.push(10)) as Box<dyn Fn(&mut SweepSpec)>, "ns"),
            (Box::new(|x: &mut SweepSpec| x.ks.pop().map(|_| ()).unwrap_or(())), "ks"),
            (Box::new(|x: &mut SweepSpec| x.seeds[0] = 9), "seeds"),
            (Box::new(|x: &mut SweepSpec| x.algo = Algo::K0), "algo"),
            (Box::new(|x: &mut SweepSpec| x.machines = 2), "machines"),
            (Box::new(|x: &mut SweepSpec| x.exact_ref = true), "exact_ref"),
            (Box::new(|x: &mut SweepSpec| x.chunk_cells = 1), "chunk_cells"),
        ] {
            let mut m = spec();
            mutate(&mut m);
            assert_ne!(m.digest(), d, "digest must move when the spec does");
        }
    }
}
