//! Seeded inputs: datasets, query pools and the fixed operation sequence.
//!
//! The generators live here, frozen, rather than in the program's
//! `spb_metric::dataset`: the program receives only the generated objects,
//! and a change to the program's own generators cannot change what the
//! benchmark measures. Each workload indexes one fixed dataset; the seed
//! draws what is sent to it, and the same seed always gives the same
//! inputs.

use std::collections::HashSet;

use spb_metric::{FloatVec, Word};

/// SplitMix64: small, fast and fully specified, so the inputs do not
/// depend on any RNG crate's version.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// English letter frequencies (per mille): generated words look like
/// dictionary words, not uniform noise.
const LETTER_WEIGHTS: [u32; 26] = [
    82, 15, 28, 43, 127, 22, 20, 61, 70, 2, 8, 40, 24, 67, 75, 19, 1, 60, 63, 91, 28, 10, 24, 2,
    20, 1,
];

fn letter(rng: &mut Rng) -> u8 {
    let total: u32 = LETTER_WEIGHTS.iter().sum();
    let mut x = rng.below(total as usize) as u32;
    for (i, &w) in LETTER_WEIGHTS.iter().enumerate() {
        if x < w {
            return b'a' + i as u8;
        }
        x -= w;
    }
    b'e'
}

/// Longest generated word; the edit-distance metric's `d⁺`.
pub const MAX_WORD_LEN: usize = 34;

/// `n` distinct words grown from shared roots by up to two random edits,
/// which gives the clustered edit-distance structure of a dictionary.
pub fn words(n: usize, rng: &mut Rng) -> Vec<Word> {
    let n_roots = (3 * n / 5).max(1);
    let roots: Vec<Vec<u8>> = (0..n_roots)
        .map(|_| {
            let len = 4 + (rng.unit().powf(1.4) * 14.0) as usize;
            (0..len).map(|_| letter(rng)).collect()
        })
        .collect();
    let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut w = roots[rng.below(n_roots)].clone();
        for _ in 0..rng.below(3) {
            match rng.below(3) {
                0 if w.len() < MAX_WORD_LEN => {
                    let pos = rng.below(w.len() + 1);
                    w.insert(pos, letter(rng));
                }
                1 if w.len() > 1 => {
                    w.remove(rng.below(w.len()));
                }
                _ => {
                    let pos = rng.below(w.len());
                    w[pos] = letter(rng);
                }
            }
        }
        if !seen.contains(&w) {
            seen.insert(w.clone());
            out.push(Word(String::from_utf8(w).expect("ascii letters")));
        }
    }
    out
}

/// Dimensionality of the vector dataset.
pub const VECTOR_DIM: usize = 20;

/// `n` points of a 20-d Gaussian mixture near a 3-d latent manifold,
/// clamped to the unit cube (L₂ `d⁺ = √20`).
pub fn vectors(n: usize, rng: &mut Rng) -> Vec<FloatVec> {
    const LATENT: usize = 3;
    const CLUSTERS: usize = 6;
    const SPREAD: f64 = 0.22;
    const NOISE: f64 = 0.008;
    let centers: Vec<Vec<f64>> = (0..CLUSTERS)
        .map(|_| (0..VECTOR_DIM).map(|_| 0.25 + 0.5 * rng.unit()).collect())
        .collect();
    let a: Vec<Vec<f64>> = (0..VECTOR_DIM)
        .map(|_| {
            (0..LATENT)
                .map(|_| rng.normal() / (LATENT as f64).sqrt())
                .collect()
        })
        .collect();
    (0..n)
        .map(|_| {
            let c = &centers[rng.below(CLUSTERS)];
            let z: Vec<f64> = (0..LATENT).map(|_| SPREAD * rng.normal()).collect();
            FloatVec(
                (0..VECTOR_DIM)
                    .map(|i| {
                        let l: f64 = a[i].iter().zip(&z).map(|(x, y)| x * y).sum();
                        (c[i] + l + NOISE * rng.normal()).clamp(0.0, 1.0) as f32
                    })
                    .collect(),
            )
        })
        .collect()
}

/// One operation of a workload. Indices point into [`Plan::queries`]
/// (reads) or [`Plan::inserts`] (writes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Range(usize),
    Knn(usize),
    Insert(usize),
    Delete(usize),
}

impl Op {
    pub fn is_read(self) -> bool {
        matches!(self, Op::Range(_) | Op::Knn(_))
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Range(_) => "range",
            Op::Knn(_) => "knn",
            Op::Insert(_) => "insert",
            Op::Delete(_) => "delete",
        }
    }
}

/// Everything one run feeds the program, fixed by the seed.
pub struct Plan<O> {
    /// The indexed objects; object `i` gets id `i`.
    pub data: Vec<O>,
    /// Query objects: half drawn from `data`, half fresh.
    pub queries: Vec<O>,
    /// Fresh objects to insert (ids `data.len()..` in insertion order).
    pub inserts: Vec<O>,
    /// The measured sequence.
    pub ops: Vec<Op>,
    /// Read-only warm-up sequence (indices into `warmup_queries`).
    pub warmup: Vec<Op>,
    pub warmup_queries: Vec<O>,
}

impl<O: Clone> Plan<O> {
    /// The object with id `id`: a bulk-loaded one or an insert.
    pub fn object(&self, id: u32) -> Option<&O> {
        let id = id as usize;
        match id.checked_sub(self.data.len()) {
            None => self.data.get(id),
            Some(j) => self.inserts.get(j),
        }
    }
}

/// Seed of the datasets. Each workload indexes one fixed dataset; the run's
/// `--seed` draws everything sent to it (queries, fresh objects, inserts).
pub const DATASET_SEED: u64 = 0x5eed_da7a;

/// Builds a plan. `gen(count, rng)` yields distinct objects; one call
/// yields the `n` indexed objects and an equally large pool of fresh ones
/// from the same distribution, from which the seed draws fresh queries
/// and inserts. `writes` selects the cycle range → insert → kNN → delete
/// (each insert deleted again in its own cycle, so the live set stays at
/// n..n+1); otherwise reads alternate range and kNN.
pub fn plan<O: Clone>(
    n: usize,
    reads: usize,
    writes: bool,
    warmup_reads: usize,
    seed: u64,
    gen: impl Fn(usize, &mut Rng) -> Vec<O>,
) -> Plan<O> {
    let mut data = gen(2 * n, &mut Rng::new(DATASET_SEED, 1));
    let pool = data.split_off(n);
    let inserts_n = if writes { reads / 2 } else { 0 };
    let fresh_n = (reads + 3) / 2;
    let draws = inserts_n + fresh_n + warmup_reads;
    assert!(
        draws <= pool.len(),
        "{draws} fresh objects wanted, the pool holds {}",
        pool.len()
    );
    // A partial Fisher–Yates shuffle draws distinct pool objects.
    let mut rng = Rng::new(seed, 1);
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in 0..draws {
        let j = i + rng.below(idx.len() - i);
        idx.swap(i, j);
    }
    let mut drawn = idx[..draws].iter().map(|&i| pool[i].clone());
    let inserts: Vec<O> = drawn.by_ref().take(inserts_n).collect();
    let fresh: Vec<O> = drawn.by_ref().take(fresh_n).collect();
    let warmup_fresh: Vec<O> = drawn.collect();

    // Reads come in range/kNN pairs; every other pair queries fresh
    // objects, so each op type gets half indexed and half fresh queries.
    let mut pick = Rng::new(seed, 2);
    let mut queries_from = |count: usize, fresh: &[O]| -> Vec<O> {
        let mut fresh = fresh.iter();
        (0..count)
            .map(|i| {
                if i / 2 % 2 == 1 {
                    if let Some(f) = fresh.next() {
                        return f.clone();
                    }
                }
                data[pick.below(data.len())].clone()
            })
            .collect()
    };
    let queries = queries_from(reads, &fresh);
    let warmup_queries = queries_from(warmup_reads, &warmup_fresh);
    let read_op = |i: usize| {
        if i.is_multiple_of(2) {
            Op::Range(i)
        } else {
            Op::Knn(i)
        }
    };
    let ops = if writes {
        (0..reads / 2)
            .flat_map(|c| {
                [
                    Op::Range(2 * c),
                    Op::Insert(c),
                    Op::Knn(2 * c + 1),
                    Op::Delete(c),
                ]
            })
            .collect()
    } else {
        (0..reads).map(read_op).collect()
    };
    Plan {
        queries,
        inserts,
        ops,
        warmup: (0..warmup_reads).map(read_op).collect(),
        warmup_queries,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, writes: bool) -> Plan<Word> {
        plan(500, 40, writes, 6, seed, words)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (small(7, true), small(7, true), small(8, true));
        assert_eq!(a.data, b.data);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.inserts, b.inserts);
        assert_eq!(a.ops, b.ops);
        assert_eq!(
            a.data, c.data,
            "the dataset is the workload's, not the seed's"
        );
        assert_ne!(a.queries, c.queries);
        assert_ne!(a.inserts, c.inserts);
    }

    #[test]
    fn inserts_are_fresh_and_each_is_deleted_in_its_cycle() {
        let p = small(3, true);
        let data: HashSet<&Word> = p.data.iter().collect();
        assert!(p.inserts.iter().all(|w| !data.contains(w)));
        assert_eq!(p.ops.len(), 80);
        for cycle in p.ops.chunks(4) {
            match cycle {
                [Op::Range(_), Op::Insert(i), Op::Knn(_), Op::Delete(d)] => assert_eq!(i, d),
                other => panic!("bad cycle {other:?}"),
            }
        }
    }

    #[test]
    fn reads_alternate_and_half_the_queries_are_fresh() {
        let p = small(5, false);
        assert!(p.ops.iter().step_by(2).all(|o| matches!(o, Op::Range(_))));
        assert!(p
            .ops
            .iter()
            .skip(1)
            .step_by(2)
            .all(|o| matches!(o, Op::Knn(_))));
        let data: HashSet<&Word> = p.data.iter().collect();
        let fresh = p.queries.iter().filter(|q| !data.contains(q)).count();
        assert_eq!(fresh, 20);
    }

    #[test]
    fn vectors_stay_in_the_unit_cube() {
        let v = vectors(200, &mut Rng::new(1, 1));
        assert!(v.iter().all(|p| p.0.len() == VECTOR_DIM));
        assert!(v
            .iter()
            .flat_map(|p| &p.0)
            .all(|&x| (0.0..=1.0).contains(&x)));
    }
}
