//! Brute-force correctness oracle.
//!
//! Answers are reduced to ids and distances as they arrive (outside the
//! timed intervals) and checked after the run against a linear scan over
//! the live set, which follows every insert and delete. Distances are
//! recomputed with the benchmark's own metric code, never the program's.

use spb_metric::{FloatVec, Word};

use crate::data::{Op, Plan};

/// The benchmark's own distance for one object type.
pub trait OracleObject: Clone {
    /// Slack when comparing distances: zero for an integer metric, a
    /// little for a float one (the program may sum in another order).
    const EPS: f64;
    fn oracle_dist(&self, other: &Self) -> f64;
    /// A cheap lower bound on `oracle_dist`, used to skip exact work.
    fn lower_bound(&self, _other: &Self) -> f64 {
        0.0
    }
}

impl OracleObject for Word {
    const EPS: f64 = 0.0;

    fn oracle_dist(&self, other: &Self) -> f64 {
        let (a, b) = (self.0.as_bytes(), other.0.as_bytes());
        let mut row: Vec<usize> = (0..=b.len()).collect();
        for (i, &x) in a.iter().enumerate() {
            let mut diag = row[0];
            row[0] = i + 1;
            for (j, &y) in b.iter().enumerate() {
                let sub = diag + usize::from(x != y);
                diag = row[j + 1];
                row[j + 1] = sub.min(row[j] + 1).min(row[j + 1] + 1);
            }
        }
        row[b.len()] as f64
    }

    fn lower_bound(&self, other: &Self) -> f64 {
        self.0.len().abs_diff(other.0.len()) as f64
    }
}

impl OracleObject for FloatVec {
    const EPS: f64 = 1e-9;

    fn oracle_dist(&self, other: &Self) -> f64 {
        let s: f64 = self
            .0
            .iter()
            .zip(&other.0)
            .map(|(&x, &y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum();
        s.sqrt()
    }
}

/// A read's answer as the program gave it: ids, and for kNN distances.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Answer {
    pub ids: Vec<u32>,
    pub dists: Vec<f64>,
}

/// Checks every read of `ops` against the live set. `answers[i]` is the
/// answer to `ops[i]` (`None` for writes and failed ops, which are
/// counted elsewhere). Returns the indices of wrong answers. The two
/// halves of the sequence are checked on two threads; the second starts
/// from the live set the first half's writes leave.
pub fn check<O: OracleObject + Sync>(
    plan: &Plan<O>,
    ops: &[Op],
    answers: &[Option<Answer>],
    radius: f64,
    k: usize,
) -> Vec<usize> {
    let mut live: Vec<Option<&O>> = plan.data.iter().map(Some).collect();
    live.extend(plan.inserts.iter().map(|_| None));
    let mid = ops.len() / 2;
    let mut second = live.clone();
    for &op in &ops[..mid] {
        apply_write(plan, &mut second, op);
    }
    std::thread::scope(|s| {
        let later = s.spawn(|| check_from(plan, &ops[mid..], &answers[mid..], second, radius, k));
        let mut wrong = check_from(plan, &ops[..mid], &answers[..mid], live, radius, k);
        let later = later.join().expect("oracle thread does not panic");
        wrong.extend(later.into_iter().map(|i| i + mid));
        wrong
    })
}

/// Applies `op` to the live set if it is a write.
fn apply_write<'a, O>(plan: &'a Plan<O>, live: &mut [Option<&'a O>], op: Op) {
    let n = plan.data.len();
    match op {
        Op::Insert(j) => live[n + j] = Some(&plan.inserts[j]),
        Op::Delete(j) => live[n + j] = None,
        Op::Range(_) | Op::Knn(_) => {}
    }
}

fn check_from<'a, O: OracleObject>(
    plan: &'a Plan<O>,
    ops: &[Op],
    answers: &[Option<Answer>],
    mut live: Vec<Option<&'a O>>,
    radius: f64,
    k: usize,
) -> Vec<usize> {
    let mut wrong = Vec::new();
    for (i, (&op, answer)) in ops.iter().zip(answers).enumerate() {
        apply_write(plan, &mut live, op);
        let ok = match (op, answer) {
            (Op::Range(q), Some(a)) => range_ok(&live, &plan.queries[q], radius, a),
            (Op::Knn(q), Some(a)) => knn_ok(&live, &plan.queries[q], k, a),
            _ => true,
        };
        if !ok {
            wrong.push(i);
        }
    }
    wrong
}

fn live_dist<O: OracleObject>(live: &[Option<&O>], q: &O, id: u32) -> Option<f64> {
    live.get(id as usize)
        .copied()
        .flatten()
        .map(|o| q.oracle_dist(o))
}

fn distinct(ids: &[u32]) -> bool {
    let mut s = ids.to_vec();
    s.sort_unstable();
    s.windows(2).all(|w| w[0] != w[1])
}

/// Every returned id is live and within `r`; every live object strictly
/// inside `r` (by more than the slack) is returned.
fn range_ok<O: OracleObject>(live: &[Option<&O>], q: &O, r: f64, a: &Answer) -> bool {
    if !distinct(&a.ids) {
        return false;
    }
    if !a
        .ids
        .iter()
        .all(|&id| live_dist(live, q, id).is_some_and(|d| d <= r + O::EPS))
    {
        return false;
    }
    let mut got = a.ids.clone();
    got.sort_unstable();
    live.iter().enumerate().all(|(id, o)| match o {
        Some(o) if q.lower_bound(o) <= r && q.oracle_dist(o) <= r - O::EPS => {
            got.binary_search(&(id as u32)).is_ok()
        }
        _ => true,
    })
}

/// The answer holds `min(k, live)` distinct live ids, each reported with
/// its true distance, and its distance profile equals the true k nearest.
fn knn_ok<O: OracleObject>(live: &[Option<&O>], q: &O, k: usize, a: &Answer) -> bool {
    let truth = k_nearest(live, q, k);
    if a.ids.len() != truth.len() || a.dists.len() != a.ids.len() || !distinct(&a.ids) {
        return false;
    }
    let reported_true = a
        .ids
        .iter()
        .zip(&a.dists)
        .all(|(&id, &d)| live_dist(live, q, id).is_some_and(|t| (t - d).abs() <= O::EPS));
    let mut got = a.dists.clone();
    got.sort_by(f64::total_cmp);
    reported_true && got.iter().zip(&truth).all(|(g, t)| (g - t).abs() <= O::EPS)
}

/// The k smallest true distances from `q` to the live set, ascending.
fn k_nearest<O: OracleObject>(live: &[Option<&O>], q: &O, k: usize) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::with_capacity(k + 1);
    for o in live.iter().flatten() {
        if best.len() == k && q.lower_bound(o) > best[k - 1] {
            continue;
        }
        let d = q.oracle_dist(o);
        if best.len() < k || d < best[k - 1] {
            let pos = best.partition_point(|&b| b <= d);
            best.insert(pos, d);
            best.truncate(k);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{plan, words};

    /// Exact answers for a plan, computed by the oracle's own scan.
    fn exact(p: &Plan<Word>, radius: f64, k: usize) -> Vec<Option<Answer>> {
        let mut live: Vec<Option<&Word>> = p.data.iter().map(Some).collect();
        live.extend(p.inserts.iter().map(|_| None));
        let n = p.data.len();
        p.ops
            .iter()
            .map(|op| match *op {
                Op::Insert(j) => {
                    live[n + j] = Some(&p.inserts[j]);
                    None
                }
                Op::Delete(j) => {
                    live[n + j] = None;
                    None
                }
                Op::Range(q) => {
                    let q = &p.queries[q];
                    let ids = (0..live.len() as u32)
                        .filter(|&id| live_dist(&live, q, id).is_some_and(|d| d <= radius))
                        .collect();
                    Some(Answer {
                        ids,
                        dists: Vec::new(),
                    })
                }
                Op::Knn(q) => {
                    let q = &p.queries[q];
                    let mut all: Vec<(f64, u32)> = (0..live.len() as u32)
                        .filter_map(|id| live_dist(&live, q, id).map(|d| (d, id)))
                        .collect();
                    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    all.truncate(k);
                    Some(Answer {
                        ids: all.iter().map(|x| x.1).collect(),
                        dists: all.iter().map(|x| x.0).collect(),
                    })
                }
            })
            .collect()
    }

    #[test]
    fn exact_answers_pass_and_one_corrupted_answer_is_counted() {
        let p = plan(400, 24, true, 0, 11, words);
        let answers = exact(&p, 2.0, 8);
        assert!(check(&p, &p.ops, &answers, 2.0, 8).is_empty());

        // Drop one neighbour from a kNN answer, in either half of the
        // sequence (the halves are checked on different threads).
        for victim in [
            p.ops.iter().position(|o| matches!(o, Op::Knn(_))).unwrap(),
            p.ops.iter().rposition(|o| matches!(o, Op::Knn(_))).unwrap(),
        ] {
            let mut corrupted = answers.clone();
            let a = corrupted[victim].as_mut().unwrap();
            a.ids.pop();
            a.dists.pop();
            assert_eq!(check(&p, &p.ops, &corrupted, 2.0, 8), vec![victim]);
        }
    }

    #[test]
    fn range_mismatches_are_caught() {
        let p = plan(400, 24, false, 0, 12, words);
        let answers = exact(&p, 2.0, 8);
        let range_at = |i: usize| answers[i].clone().unwrap();
        // A missing hit (every range answer has its query if indexed) and
        // an extra far-away id are both wrong.
        let i = (0..p.ops.len())
            .step_by(2)
            .find(|&i| !range_at(i).ids.is_empty())
            .unwrap();
        let mut missing = answers.clone();
        missing[i].as_mut().unwrap().ids.pop();
        assert_eq!(check(&p, &p.ops, &missing, 2.0, 8), vec![i]);
        let mut extra = answers.clone();
        let far = (0..400u32)
            .find(|&id| p.queries[0].oracle_dist(&p.data[id as usize]) > 5.0)
            .unwrap();
        extra[0].as_mut().unwrap().ids.push(far);
        assert_eq!(check(&p, &p.ops, &extra, 2.0, 8), vec![0]);
    }

    #[test]
    fn deleted_objects_may_not_be_returned() {
        let p = plan(300, 8, true, 0, 13, words);
        let mut answers = exact(&p, 2.0, 8);
        // Cycle 1's range runs after cycle 0 deleted its insert.
        let deleted = p.data.len() as u32;
        answers[4].as_mut().unwrap().ids.push(deleted);
        assert_eq!(check(&p, &p.ops, &answers, 2.0, 8), vec![4]);
    }
}
