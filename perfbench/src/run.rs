//! Set-up, the measured pass, and the metrics computed from it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use spb_core::{PivotTable, SpbTree};
use spb_metric::{Distance, EditDistance, LpNorm, MetricObject};
use spb_server::{Response, Schema, WireStats};
use spb_storage::RafPtr;

use crate::data::{self, Op, Plan};
use crate::hostspeed::{Reference, Rounds, Sample};
use crate::oracle::{self, Answer, OracleObject};
use crate::report::{peak_rss_mb, quantile, ratio, Metrics};
use crate::target::{Local, Raw, Remote, Sharded, Spec, Target};
use crate::trace::{self, Probe, ProbeCounters, Tracer, SETUP_REQ};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `SpbTree` called in-process.
    Local,
    /// One server, one client connection.
    Remote,
    /// A sharded cluster behind its router.
    Cluster,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    Words,
    Vectors,
}

/// End-to-end metrics reported by every workload with `--trace 0`.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "read_ops_s",
    "range_p50_ms",
    "range_p99_ms",
    "knn_p50_ms",
    "knn_p99_ms",
    "compdists_per_query",
    "pa_per_query",
    "bytes_per_object",
    "peak_rss_mb",
];

/// Per-layer metrics reported by every workload with `--trace 1`.
pub const PER_LAYER: [&str; 30] = [
    "host_speed",
    "trace_overhead_frac",
    "metric.dist_ns",
    "metric.dist_share",
    "pivots.select_s",
    "pivots.phi_us",
    "core.build_s",
    "core.range_self_ms",
    "core.knn_self_ms",
    "core.insert_ms",
    "core.delete_ms",
    "sfc.encode_ns",
    "sfc.decode_ns",
    "bptree.pa_per_query",
    "bptree.read_node_us",
    "bptree.height",
    "storage.raf_pa_per_query",
    "storage.raf_get_us",
    "storage.cache_hit_ratio",
    "storage.wal_bytes_per_write",
    "storage.fsync_ms",
    "storage.fsyncs_per_write",
    "server.start_s",
    "server.overhead_us",
    "server.queue_wait_us",
    "server.encode_us",
    "wire.reply_bytes",
    "wire.decode_us",
    "cluster.fanout",
    "cluster.router_overhead_us",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub dataset: Dataset,
    pub n: usize,
    /// Reads per second of `--seconds`: fixes the length of the operation
    /// sequence, never a time limit. At 20 s every op type gets at least
    /// 1,000 reads, enough for a p99.
    pub reads_per_second: f64,
    pub writes: bool,
    pub warmup_reads: usize,
    pub spec: Spec,
}

/// The benchmark's workloads (README.md says why each was chosen).
pub fn workloads() -> Vec<Workload> {
    let words_spec = Spec {
        radius: 2.0,
        k: 8,
        cache_pages: 32,
        shards: 1,
        schema: Schema::Words {
            max_len: data::MAX_WORD_LEN,
        },
    };
    vec![
        Workload {
            name: "words-local",
            kind: Kind::Local,
            dataset: Dataset::Words,
            n: 20_000,
            reads_per_second: 100.0,
            writes: false,
            warmup_reads: 40,
            spec: words_spec.clone(),
        },
        Workload {
            name: "vectors-cluster",
            kind: Kind::Cluster,
            dataset: Dataset::Vectors,
            n: 100_000,
            reads_per_second: 200.0,
            writes: false,
            warmup_reads: 100,
            spec: Spec {
                radius: 0.08 * (data::VECTOR_DIM as f64).sqrt(),
                k: 8,
                cache_pages: 2048,
                shards: 2,
                schema: Schema::Vectors {
                    p: 2,
                    dim: data::VECTOR_DIM,
                },
            },
        },
        Workload {
            name: "words-remote-write",
            kind: Kind::Remote,
            dataset: Dataset::Words,
            n: 20_000,
            reads_per_second: 100.0,
            writes: true,
            warmup_reads: 40,
            spec: words_spec,
        },
    ]
}

/// Per-operation cost counters, as the program reported them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost {
    pub compdists: u64,
    pub pa: u64,
    pub btree_pa: u64,
    pub raf_pa: u64,
    pub fsyncs: u64,
    /// The index's own reported time (summed over shards for a cluster).
    pub index_ns: u64,
}

impl From<&WireStats> for Cost {
    fn from(s: &WireStats) -> Cost {
        Cost {
            compdists: s.compdists,
            pa: s.page_accesses,
            btree_pa: s.btree_pa,
            raf_pa: s.raf_pa,
            fsyncs: s.fsyncs,
            index_ns: s.duration_nanos,
        }
    }
}

/// Program counters read before and after the traced pass.
#[derive(Clone, Debug, Default)]
struct Obs {
    pool_hits: u64,
    pool_misses: u64,
    /// `(count, sum)` of each histogram in [`OBS_HISTS`].
    hists: Vec<(u64, u64)>,
}

const OBS_HISTS: [&str; 7] = [
    "phase.queue_wait",
    "phase.encode",
    "phase.wal_fsync",
    "wal.commit_bytes",
    "cluster.fanout",
    "cluster.shard_latency_ns",
    "cluster.straggler_ns",
];

impl Obs {
    fn now() -> Obs {
        let snap = spb_obs::snapshot();
        let pool = |suffix: &str| -> u64 {
            snap.counters
                .iter()
                .filter(|(n, _)| n.starts_with("pool.") && n.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        Obs {
            pool_hits: pool(".hits"),
            pool_misses: pool(".misses"),
            hists: OBS_HISTS
                .iter()
                .map(|h| snap.hist(h).map_or((0, 0), |s| (s.count, s.sum)))
                .collect(),
        }
    }

    fn since(&self, before: &Obs) -> Obs {
        Obs {
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            hists: self
                .hists
                .iter()
                .zip(&before.hists)
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                .collect(),
        }
    }

    /// `(count, sum)` of histogram `name`.
    fn hist(&self, name: &str) -> (f64, f64) {
        let i = OBS_HISTS
            .iter()
            .position(|h| *h == name)
            .expect("known histogram");
        (self.hists[i].0 as f64, self.hists[i].1 as f64)
    }
}

/// What the traced pass adds to a [`Pass`].
#[derive(Default)]
struct Layers {
    /// Distance time and calls inside each op's interval.
    dist_ns: Vec<u64>,
    dist_calls: Vec<u64>,
    /// Duration of each op's call into the program (the op's first
    /// child span).
    call_ns: Vec<u64>,
    /// Encoded reply size of each wire read.
    reply_bytes: Vec<u64>,
    obs: Obs,
    btree_height: u32,
    clock_pair_ns: f64,
}

/// One measured pass over the operation sequence.
pub struct Pass {
    samples: Vec<Sample>,
    answers: Vec<Option<Answer>>,
    costs: Vec<Cost>,
    failed: Vec<bool>,
    host_speed: f64,
    setups: Vec<Sample>,
    bytes_per_object: f64,
    peak_rss_mb: f64,
    layers: Option<Layers>,
}

/// Object mismatch, refusal or error: the op failed.
fn digest<O: MetricObject>(raw: &Raw<O>, plan: &Plan<O>) -> (Option<Answer>, Cost, bool) {
    let known = |id: u32, o: &O| plan.object(id) == Some(o);
    let decoded = |id: u32, bytes: &[u8]| O::try_decode(bytes).is_some_and(|o| known(id, &o));
    let local = |s: &spb_core::QueryStats| Cost {
        compdists: s.compdists,
        pa: s.page_accesses,
        btree_pa: s.btree_pa,
        raf_pa: s.raf_pa,
        fsyncs: s.fsyncs,
        index_ns: s.duration.as_nanos() as u64,
    };
    match raw {
        Raw::Range(hits, s) => {
            let ids = hits.iter().map(|h| h.0).collect();
            let ok = hits.iter().all(|(id, o)| known(*id, o));
            (
                Some(Answer {
                    ids,
                    dists: Vec::new(),
                }),
                local(s),
                ok,
            )
        }
        Raw::Knn(hits, s) => {
            let answer = Answer {
                ids: hits.iter().map(|h| h.0).collect(),
                dists: hits.iter().map(|h| h.2).collect(),
            };
            let ok = hits.iter().all(|(id, o, _)| known(*id, o));
            (Some(answer), local(s), ok)
        }
        Raw::Wire(Response::Range { hits, stats }) => {
            let ids = hits.iter().map(|h| h.0).collect();
            let ok = hits.iter().all(|(id, b)| decoded(*id, b));
            (
                Some(Answer {
                    ids,
                    dists: Vec::new(),
                }),
                stats.into(),
                ok,
            )
        }
        Raw::Wire(Response::Knn { hits, stats }) => {
            let answer = Answer {
                ids: hits.iter().map(|h| h.0).collect(),
                dists: hits.iter().map(|h| h.1).collect(),
            };
            let ok = hits.iter().all(|(id, _, b)| decoded(*id, b));
            (Some(answer), stats.into(), ok)
        }
        Raw::Wire(Response::Insert { stats }) => (None, stats.into(), true),
        Raw::Wire(Response::Delete { found, stats }) => (None, stats.into(), *found),
        Raw::Wire(_) => (None, Cost::default(), false),
    }
}

fn open_target<O, D>(
    w: &Workload,
    dir: &Path,
    data: &[O],
    metric: D,
    tr: &mut Tracer,
) -> io::Result<(Box<dyn Target<O>>, Vec<O>)>
where
    O: MetricObject,
    D: Distance<O> + Clone + 'static,
{
    Ok(match w.kind {
        Kind::Local => {
            let (t, p) = Local::setup(dir, data, metric, &w.spec, tr)?;
            (Box::new(t), p)
        }
        Kind::Remote => {
            let (t, p) = Remote::setup(dir, data, metric, &w.spec, tr)?;
            (Box::new(t), p)
        }
        Kind::Cluster => {
            let (t, p) = Sharded::setup(dir, data, metric, &w.spec, tr)?;
            (Box::new(t), p)
        }
    })
}

fn query_of<O>(plan: &Plan<O>, op: Op) -> &O {
    match op {
        Op::Range(q) | Op::Knn(q) => &plan.queries[q],
        Op::Insert(j) | Op::Delete(j) => &plan.inserts[j],
    }
}

/// Set-up: build (or launch), start, connect and warm up; `setups` times,
/// keeping the last. Each set-up is timed between two kernel runs.
#[allow(clippy::type_complexity)]
fn set_up<O, D>(
    w: &Workload,
    plan: &Plan<O>,
    metric: &D,
    setups: usize,
    tr: &mut Tracer,
    work: &Path,
) -> io::Result<(Box<dyn Target<O>>, Vec<O>, PathBuf, Vec<Sample>)>
where
    O: MetricObject,
    D: Distance<O> + Clone + 'static,
{
    let reference = Reference::new();
    let mut samples = Vec::new();
    let mut kept: Option<(Box<dyn Target<O>>, Vec<O>, PathBuf)> = None;
    for i in 0..setups {
        if let Some((t, _, dir)) = kept.take() {
            t.close()?;
            std::fs::remove_dir_all(dir)?;
        }
        let dir = work.join(format!("setup{i}"));
        let (opened, sample) = reference.timed(|| {
            tr.span("setup", SETUP_REQ, |tr| -> io::Result<_> {
                let (mut t, pivots) = open_target(w, &dir, &plan.data, metric.clone(), tr)?;
                tr.span("warmup", SETUP_REQ, |tr| -> io::Result<()> {
                    for &op in &plan.warmup {
                        let q = match op {
                            Op::Range(q) | Op::Knn(q) => &plan.warmup_queries[q],
                            _ => unreachable!("warm-up is read-only"),
                        };
                        t.call(op, q, tr, SETUP_REQ)?;
                    }
                    Ok(())
                })?;
                Ok((t, pivots))
            })
        });
        let (t, pivots) = opened?;
        samples.push(sample);
        kept = Some((t, pivots, dir));
    }
    let (t, pivots, dir) = kept.expect("at least one set-up");
    Ok((t, pivots, dir, samples))
}

/// Repetitions per SFC probe, so one probe lasts well above the clock's
/// resolution.
const SFC_REPS: u32 = 64;

/// Runs `setups` set-ups and one measured pass. With `probe`, the pass
/// is traced: spans go to `tr`, the metric is timed, and the layer probes
/// run between operations (outside every timed interval).
pub fn execute<O, D>(
    w: &Workload,
    plan: &Plan<O>,
    metric: D,
    probe: Option<Arc<ProbeCounters>>,
    setups: usize,
    tr: &mut Tracer,
    work: &Path,
) -> io::Result<Pass>
where
    O: MetricObject,
    D: Distance<O> + Clone + 'static,
{
    let (mut target, pivots, dir, setup_samples) = set_up(w, plan, &metric, setups, tr, work)?;
    let ops = &plan.ops;
    let sfc = (!pivots.is_empty() && probe.is_some()).then(|| {
        let table = PivotTable::new(pivots, &metric, w.spec.config().delta);
        let curve = table.curve(w.spec.config().curve);
        (table, curve)
    });
    let mut layers = probe.as_ref().map(|_| Layers {
        dist_ns: vec![0; ops.len()],
        dist_calls: vec![0; ops.len()],
        call_ns: vec![0; ops.len()],
        reply_bytes: Vec::new(),
        clock_pair_ns: trace::clock_pair_ns(),
        ..Layers::default()
    });
    let mut keys = Vec::new();
    let mut answers = vec![None; ops.len()];
    let mut costs = vec![Cost::default(); ops.len()];
    let mut failed = vec![false; ops.len()];
    let obs_before = Obs::now();
    if let Some(p) = &probe {
        p.set_timing(true);
    }

    let reference = Reference::new();
    let mut rounds = Rounds::new(ops.len(), || reference.sample());
    for (i, &op) in ops.iter().enumerate() {
        let obj = query_of(plan, op);
        let before = probe.as_ref().map(|p| p.snapshot());
        let root = tr.spans.len();
        let t = Instant::now();
        let raw = tr.span(op.name(), i as u64, |tr| target.call(op, obj, tr, i as u64));
        rounds.record(i, t.elapsed().as_nanos() as f64);

        // Everything below runs outside the op's timed interval.
        if let (Some(p), Some(l), Some((c0, n0))) = (&probe, layers.as_mut(), before) {
            let (c1, n1) = p.snapshot();
            l.dist_calls[i] = c1 - c0;
            l.dist_ns[i] = n1 - n0;
            l.call_ns[i] = tr.spans.get(root + 1).map_or(0, |s| s.dur_ns());
        }
        match raw {
            Ok(raw) => {
                let (answer, cost, ok) = digest(&raw, plan);
                answers[i] = answer;
                costs[i] = cost;
                failed[i] = !ok;
                if let (Some(l), Raw::Wire(reply), true) = (layers.as_mut(), &raw, op.is_read()) {
                    let bytes = reply.encode();
                    l.reply_bytes.push(bytes.len() as u64);
                    let decoded = tr.span("wire.decode", i as u64, |_| Response::decode(&bytes));
                    failed[i] |= !matches!(&decoded, Ok(d) if d == reply);
                }
            }
            Err(e) => {
                eprintln!("perfbench: op {i} ({}) failed: {e}", op.name());
                failed[i] = true;
            }
        }
        if let (Some((table, curve)), true) = (&sfc, op.is_read()) {
            let phi = tr.span("pivots.phi", i as u64, |_| table.phi(&metric, obj));
            let cell = table.cell_of_phi(&phi);
            let key = tr.span("sfc.encode", i as u64, |_| {
                (0..SFC_REPS).fold(0, |_, _| curve.encode(std::hint::black_box(&cell)))
            });
            let mut out = vec![0u32; cell.len()];
            tr.span("sfc.decode", i as u64, |_| {
                for _ in 0..SFC_REPS {
                    curve.decode_into(std::hint::black_box(key), &mut out);
                }
            });
            keys.push((i, key));
        }
    }
    rounds.close();
    if let Some(p) = &probe {
        p.set_timing(false);
    }
    if let Some(l) = layers.as_mut() {
        l.obs = Obs::now().since(&obs_before);
    }

    let dirs = target.index_dirs();
    target.close()?;
    let live = plan.data.len() as f64
        + ops.iter().filter(|o| matches!(o, Op::Insert(_))).count() as f64
        - ops.iter().filter(|o| matches!(o, Op::Delete(_))).count() as f64;
    let mut bytes = 0u64;
    for d in &dirs {
        for f in ["index.bpt", "objects.raf"] {
            bytes += std::fs::metadata(d.join(f))?.len();
        }
    }
    let peak = peak_rss_mb();

    // Storage probes on the closed index: reopen it (shard 0 of a
    // cluster) and time one B⁺-tree search and one RAF fetch per read.
    if let Some(l) = layers.as_mut() {
        let tree = SpbTree::<O, D>::open_with(&dirs[0], metric.clone(), w.spec.cache_pages, false)?;
        l.btree_height = tree.btree().height();
        for &(i, key) in &keys {
            let offsets = tr.span("bptree.search", i as u64, |_| tree.btree().search(key))?;
            if let Some(&offset) = offsets.first() {
                tr.span("storage.raf_get", i as u64, |_| {
                    tree.raf().get(RafPtr { offset })
                })?;
            }
        }
    }
    std::fs::remove_dir_all(&dir)?;

    Ok(Pass {
        samples: rounds
            .samples
            .iter()
            .map(|s| s.expect("every op sampled"))
            .collect(),
        host_speed: rounds.host_speed(),
        answers,
        costs,
        failed,
        setups: setup_samples,
        bytes_per_object: bytes as f64 / live,
        peak_rss_mb: peak,
        layers,
    })
}

impl Pass {
    /// Checks every answer with the oracle; returns the failed-op count.
    fn check<O: OracleObject + Sync>(&mut self, plan: &Plan<O>, spec: &Spec) -> usize {
        for i in oracle::check(plan, &plan.ops, &self.answers, spec.radius, spec.k) {
            self.failed[i] = true;
        }
        self.failed.iter().filter(|&&f| f).count()
    }

    fn ops_of<'a>(
        &'a self,
        ops: &'a [Op],
        pick: fn(Op) -> bool,
    ) -> impl Iterator<Item = usize> + 'a {
        ops.iter()
            .enumerate()
            .filter(move |(_, o)| pick(**o))
            .map(|(i, _)| i)
    }

    fn latencies_ms(&self, ops: &[Op], pick: fn(Op) -> bool, raw: bool) -> Vec<f64> {
        self.ops_of(ops, pick)
            .map(|i| if raw { self.samples[i].raw_ns } else { self.samples[i].corrected_ns } / 1e6)
            .collect()
    }

    fn mean_cost(&self, ops: &[Op], pick: fn(Op) -> bool, f: fn(&Cost) -> u64) -> f64 {
        let (sum, n) = self
            .ops_of(ops, pick)
            .fold((0u64, 0u64), |(s, n), i| (s + f(&self.costs[i]), n + 1));
        ratio(sum as f64, n as f64)
    }

    fn total_ns(&self, corrected: bool) -> f64 {
        self.samples
            .iter()
            .map(|s| if corrected { s.corrected_ns } else { s.raw_ns })
            .sum()
    }
}

fn is_range(o: Op) -> bool {
    matches!(o, Op::Range(_))
}
fn is_knn(o: Op) -> bool {
    matches!(o, Op::Knn(_))
}
fn is_read(o: Op) -> bool {
    o.is_read()
}
fn is_write(o: Op) -> bool {
    !o.is_read()
}

/// End-to-end metrics of an untraced pass. Times are host-speed
/// corrected; `raw.*` twins are kept for the report file.
fn end_to_end(pass: &Pass, ops: &[Op], m: &mut Metrics) {
    for raw in [false, true] {
        let prefix = if raw { "raw." } else { "" };
        let setup: Vec<f64> = pass
            .setups
            .iter()
            .map(|s| if raw { s.raw_ns } else { s.corrected_ns } / 1e9)
            .collect();
        m.put(&format!("{prefix}setup_s"), quantile(&setup, 0.5), "s");
        let reads = pass.latencies_ms(ops, is_read, raw);
        let read_s = reads.iter().sum::<f64>() / 1e3;
        m.put(
            &format!("{prefix}read_ops_s"),
            ratio(reads.len() as f64, read_s),
            "1/s",
        );
        for (name, pick) in [
            ("range", is_range as fn(Op) -> bool),
            ("knn", is_knn),
            ("write", is_write),
        ] {
            let lat = pass.latencies_ms(ops, pick, raw);
            if lat.is_empty() {
                continue;
            }
            if name == "write" {
                let secs = lat.iter().sum::<f64>() / 1e3;
                m.put(
                    &format!("{prefix}write_ops_s"),
                    ratio(lat.len() as f64, secs),
                    "1/s",
                );
            }
            m.put(&format!("{prefix}{name}_p50_ms"), quantile(&lat, 0.5), "ms");
            m.put(
                &format!("{prefix}{name}_p99_ms"),
                quantile(&lat, 0.99),
                "ms",
            );
        }
    }
    m.put(
        "compdists_per_query",
        pass.mean_cost(ops, is_read, |c| c.compdists),
        "count",
    );
    m.put(
        "pa_per_query",
        pass.mean_cost(ops, is_read, |c| c.pa),
        "count",
    );
    if ops.iter().any(|o| is_write(*o)) {
        m.put(
            "fsyncs_per_write",
            pass.mean_cost(ops, is_write, |c| c.fsyncs),
            "count",
        );
    }
    m.put("bytes_per_object", pass.bytes_per_object, "B");
    m.put("peak_rss_mb", pass.peak_rss_mb, "MB");
}

/// Per-layer metrics of a traced pass; `base` is the untraced pass of the
/// same run.
fn per_layer(w: &Workload, base: &Pass, traced: &Pass, tr: &Tracer, ops: &[Op], m: &mut Metrics) {
    let l = traced.layers.as_ref().expect("traced pass");
    // Per-layer times are scaled by the traced pass's host speed, so they
    // read on the same reference host as the end-to-end times.
    let scale = traced.host_speed;
    let span_ns = |name: &str| tr.totals(name);
    let mean_span = |name: &str, per: f64| {
        let (dur, count) = span_ns(name);
        ratio(dur as f64 * scale, count as f64 * per)
    };
    let reads: Vec<usize> = traced.ops_of(ops, is_read).collect();
    let writes: Vec<usize> = traced.ops_of(ops, is_write).collect();

    m.put(
        "trace_overhead_frac",
        traced.total_ns(true) / base.total_ns(true) - 1.0,
        "ratio",
    );

    let calls: u64 = l.dist_calls.iter().sum();
    let dist_ns =
        |i: usize| (l.dist_ns[i] as f64 - l.dist_calls[i] as f64 * l.clock_pair_ns).max(0.0);
    let dist_total: f64 = (0..ops.len()).map(dist_ns).sum();
    m.put(
        "metric.dist_ns",
        ratio(dist_total * scale, calls as f64),
        "ns",
    );
    m.put(
        "metric.dist_share",
        ratio(dist_total, traced.total_ns(false)),
        "ratio",
    );

    m.put(
        "pivots.select_s",
        span_ns("pivots.select").0 as f64 * scale / 1e9,
        "s",
    );
    let build = if w.kind == Kind::Cluster {
        "cluster.launch"
    } else {
        "core.build"
    };
    m.put("core.build_s", span_ns(build).0 as f64 * scale / 1e9, "s");
    m.put(
        "server.start_s",
        span_ns("server.start").0 as f64 * scale / 1e9,
        "s",
    );
    m.put("pivots.phi_us", mean_span("pivots.phi", 1e3), "us");
    m.put(
        "sfc.encode_ns",
        mean_span("sfc.encode", f64::from(SFC_REPS)),
        "ns",
    );
    m.put(
        "sfc.decode_ns",
        mean_span("sfc.decode", f64::from(SFC_REPS)),
        "ns",
    );

    m.put(
        "bptree.pa_per_query",
        traced.mean_cost(ops, is_read, |c| c.btree_pa),
        "count",
    );
    m.put(
        "bptree.read_node_us",
        mean_span("bptree.search", 1e3 * f64::from(l.btree_height.max(1))),
        "us",
    );
    m.put("bptree.height", f64::from(l.btree_height), "count");
    m.put(
        "storage.raf_pa_per_query",
        traced.mean_cost(ops, is_read, |c| c.raf_pa),
        "count",
    );
    m.put(
        "storage.raf_get_us",
        mean_span("storage.raf_get", 1e3),
        "us",
    );
    let o = &l.obs;
    m.put(
        "storage.cache_hit_ratio",
        ratio(o.pool_hits as f64, (o.pool_hits + o.pool_misses) as f64),
        "ratio",
    );
    let n_writes = writes.len() as f64;
    m.put(
        "storage.wal_bytes_per_write",
        ratio(o.hist("wal.commit_bytes").1, n_writes),
        "B",
    );
    let (fsyncs, fsync_ns) = o.hist("phase.wal_fsync");
    m.put(
        "storage.fsync_ms",
        ratio(fsync_ns * scale, fsyncs * 1e6),
        "ms",
    );
    m.put(
        "storage.fsyncs_per_write",
        traced.mean_cost(ops, is_write, |c| c.fsyncs),
        "count",
    );

    // Core self time: the index's own reported time minus the distance
    // time spent inside the op.
    let core_self = |pick: fn(Op) -> bool| {
        let idx: Vec<usize> = traced.ops_of(ops, pick).collect();
        let own: f64 = idx
            .iter()
            .map(|&i| (traced.costs[i].index_ns as f64 - dist_ns(i)).max(0.0))
            .sum();
        ratio(own * scale, idx.len() as f64 * 1e6)
    };
    m.put("core.range_self_ms", core_self(is_range), "ms");
    m.put("core.knn_self_ms", core_self(is_knn), "ms");
    let write_ms = |pick: fn(Op) -> bool| traced.mean_cost(ops, pick, |c| c.index_ns) * scale / 1e6;
    m.put(
        "core.insert_ms",
        write_ms(|o| matches!(o, Op::Insert(_))),
        "ms",
    );
    m.put(
        "core.delete_ms",
        write_ms(|o| matches!(o, Op::Delete(_))),
        "ms",
    );

    // Server overhead: the caller's time for the program call minus the
    // time the index reports. For a cluster the caller is the router and
    // the call is one shard request.
    let call_sum: f64 = reads.iter().map(|&i| l.call_ns[i] as f64).sum();
    let index_sum: f64 = reads.iter().map(|&i| traced.costs[i].index_ns as f64).sum();
    let overhead_us = match w.kind {
        Kind::Cluster => {
            let (requests, latency) = o.hist("cluster.shard_latency_ns");
            ratio((latency - index_sum) * scale, requests * 1e3)
        }
        _ => ratio((call_sum - index_sum) * scale, reads.len() as f64 * 1e3),
    };
    m.put("server.overhead_us", overhead_us, "us");
    let hist_mean_us = |name: &str| {
        let (count, sum) = o.hist(name);
        ratio(sum * scale, count * 1e3)
    };
    m.put(
        "server.queue_wait_us",
        hist_mean_us("phase.queue_wait"),
        "us",
    );
    m.put("server.encode_us", hist_mean_us("phase.encode"), "us");
    m.put(
        "wire.reply_bytes",
        ratio(
            l.reply_bytes.iter().sum::<u64>() as f64,
            l.reply_bytes.len() as f64,
        ),
        "B",
    );
    m.put("wire.decode_us", mean_span("wire.decode", 1e3), "us");
    let (fanout_ops, fanout) = o.hist("cluster.fanout");
    m.put(
        "cluster.fanout",
        if w.kind == Kind::Cluster {
            ratio(fanout, fanout_ops)
        } else {
            1.0
        },
        "count",
    );
    let router_us = if w.kind == Kind::Cluster {
        let slowest = o.hist("cluster.straggler_ns").1;
        ratio((call_sum - slowest) * scale, reads.len() as f64 * 1e3)
    } else {
        0.0
    };
    m.put("cluster.router_overhead_us", router_us, "us");
}

/// A finished run.
pub struct Outcome {
    /// Every metric computed, end-to-end or per-layer, plus raw twins.
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub tracer: Tracer,
}

/// Runs one workload: untraced, or (with `trace`) an untraced pass
/// followed by a traced one.
pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool, work: &Path) -> io::Result<Outcome> {
    let reads = ((seconds as f64 * w.reads_per_second) as usize / 2 * 2).max(4);
    run_sized(w, w.n, reads, seed, trace, work)
}

/// [`run`] with explicit sizes (tests use small ones).
pub fn run_sized(
    w: &Workload,
    n: usize,
    reads: usize,
    seed: u64,
    trace: bool,
    work: &Path,
) -> io::Result<Outcome> {
    match w.dataset {
        Dataset::Words => {
            let plan = data::plan(n, reads, w.writes, w.warmup_reads, seed, data::words);
            run_typed(w, &plan, EditDistance::new(data::MAX_WORD_LEN), trace, work)
        }
        Dataset::Vectors => {
            let plan = data::plan(n, reads, w.writes, w.warmup_reads, seed, data::vectors);
            run_typed(w, &plan, LpNorm::l2(data::VECTOR_DIM), trace, work)
        }
    }
}

fn run_typed<O, D>(
    w: &Workload,
    plan: &Plan<O>,
    metric: D,
    trace: bool,
    work: &Path,
) -> io::Result<Outcome>
where
    O: MetricObject + OracleObject,
    D: Distance<O> + Clone + 'static,
{
    std::fs::create_dir_all(work)?;
    let mut metrics = Metrics::default();
    let setups = if trace { 1 } else { SETUPS };
    let mut off = Tracer::new(false);
    let mut base = execute(w, plan, metric.clone(), None, setups, &mut off, work)?;
    let mut failed = base.check(plan, &w.spec);
    let mut attempted = plan.ops.len();
    end_to_end(&base, &plan.ops, &mut metrics);
    metrics.put("host_speed", base.host_speed, "ratio");

    let mut tracer = Tracer::new(trace);
    if trace {
        let probe = Probe::new(metric);
        let counters = Arc::clone(&probe.counters);
        let mut traced = execute(w, plan, probe, Some(counters), 1, &mut tracer, work)?;
        failed += traced.check(plan, &w.spec);
        attempted += plan.ops.len();
        let mut layers = Metrics::default();
        per_layer(w, &base, &traced, &tracer, &plan.ops, &mut layers);
        metrics.0.extend(layers.0);
    }
    metrics.put("failed_frac", failed as f64 / attempted as f64, "ratio");
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts that must repeat exactly for one seed.
    const COUNTS: [&str; 6] = [
        "compdists_per_query",
        "pa_per_query",
        "fsyncs_per_write",
        "bytes_per_object",
        "bptree.pa_per_query",
        "wire.reply_bytes",
    ];

    fn small(name: &str) -> (Workload, usize) {
        let mut w = workloads().into_iter().find(|w| w.name == name).unwrap();
        w.warmup_reads = 4;
        let n = if w.dataset == Dataset::Words {
            1500
        } else {
            4000
        };
        (w, n)
    }

    fn traced(w: &Workload, n: usize, seed: u64, tag: &str) -> Outcome {
        let work =
            std::env::temp_dir().join(format!("perfbench-{}-{}-{tag}", w.name, std::process::id()));
        let out = run_sized(w, n, 24, seed, true, &work).unwrap();
        std::fs::remove_dir_all(&work).unwrap();
        out
    }

    #[test]
    fn one_seed_repeats_every_count_and_another_seed_changes_the_inputs() {
        for name in ["words-local", "vectors-cluster", "words-remote-write"] {
            let (w, n) = small(name);
            let a = traced(&w, n, 5, "a");
            let b = traced(&w, n, 5, "b");
            let c = traced(&w, n, 6, "c");
            for o in [&a, &b, &c] {
                assert_eq!(o.failed, 0, "{name}: every answer matches the oracle");
                for m in END_TO_END.iter().chain(&PER_LAYER) {
                    assert!(o.metrics.get(m).is_some(), "{name} reports {m}");
                }
            }
            for m in COUNTS {
                assert_eq!(a.metrics.get(m), b.metrics.get(m), "{name}: {m} repeats");
            }
            assert_ne!(
                a.metrics.get("compdists_per_query"),
                c.metrics.get("compdists_per_query"),
                "{name}: another seed, other queries"
            );
        }
    }
}
