//! The three ways the benchmark drives the program: an in-process tree,
//! one server behind one client connection, and a two-shard cluster
//! behind its router. Each target times nothing itself; it only opens a
//! span around its call into the program.

use std::io;
use std::path::{Path, PathBuf};

use spb_cluster::{Cluster, ClusterConfig, Router};
use spb_core::{QueryStats, SpbConfig, SpbTree};
use spb_metric::{Distance, MetricObject};
use spb_server::{
    serve, Client, Request, Response, Schema, ServerConfig, ServerHandle, TreeService,
};

use crate::data::Op;
use crate::trace::{Tracer, SETUP_REQ};

/// What a call returned, before the benchmark looks at it.
pub enum Raw<O> {
    Range(Vec<(u32, O)>, QueryStats),
    Knn(Vec<(u32, O, f64)>, QueryStats),
    /// A reply as it crossed the wire (server and cluster targets).
    Wire(Response),
}

/// Everything a workload fixes about how the program is driven.
#[derive(Clone, Debug)]
pub struct Spec {
    pub radius: f64,
    pub k: usize,
    pub cache_pages: usize,
    pub shards: usize,
    pub schema: Schema,
}

impl Spec {
    pub fn config(&self) -> SpbConfig {
        SpbConfig {
            cache_pages: self.cache_pages,
            ..SpbConfig::default()
        }
    }
}

pub trait Target<O> {
    /// Runs one operation against the program.
    fn call(&mut self, op: Op, obj: &O, tr: &mut Tracer, req: u64) -> io::Result<Raw<O>>;
    /// Index directories whose B⁺-tree and RAF files hold the data.
    fn index_dirs(&self) -> Vec<PathBuf>;
    /// Stops servers and closes files, so the directories are final.
    fn close(self: Box<Self>) -> io::Result<()>;
}

fn select<O: MetricObject, D: Distance<O>>(data: &[O], metric: &D, cfg: &SpbConfig) -> Vec<O> {
    spb_pivots::select_pivots(
        cfg.pivot_method,
        data,
        metric,
        cfg.num_pivots,
        &cfg.pivot_config,
    )
    .into_iter()
    .map(|i| data[i].clone())
    .collect()
}

/// Selects pivots and bulk-loads a tree, each in its own span.
fn build<O: MetricObject, D: Distance<O>>(
    dir: &Path,
    data: &[O],
    metric: D,
    spec: &Spec,
    tr: &mut Tracer,
) -> io::Result<SpbTree<O, D>> {
    let cfg = spec.config();
    let pivots = tr.span("pivots.select", SETUP_REQ, |_| select(data, &metric, &cfg));
    tr.span("core.build", SETUP_REQ, |_| {
        SpbTree::build_with_pivots(dir, data, metric, pivots, &cfg, 0)
    })
}

/// `SpbTree` called in-process.
pub struct Local<O: MetricObject, D: Distance<O>> {
    tree: SpbTree<O, D>,
    dir: PathBuf,
    spec: Spec,
}

impl<O: MetricObject, D: Distance<O>> Local<O, D> {
    pub fn setup(
        dir: &Path,
        data: &[O],
        metric: D,
        spec: &Spec,
        tr: &mut Tracer,
    ) -> io::Result<(Self, Vec<O>)> {
        let tree = build(dir, data, metric, spec, tr)?;
        let pivots = tree.table().pivots().to_vec();
        let local = Local {
            tree,
            dir: dir.to_owned(),
            spec: spec.clone(),
        };
        Ok((local, pivots))
    }
}

impl<O: MetricObject, D: Distance<O>> Target<O> for Local<O, D> {
    fn call(&mut self, op: Op, obj: &O, tr: &mut Tracer, req: u64) -> io::Result<Raw<O>> {
        let tree = &self.tree;
        match op {
            Op::Range(_) => tr
                .span("core.range", req, |_| tree.range(obj, self.spec.radius))
                .map(|(h, s)| Raw::Range(h, s)),
            Op::Knn(_) => tr
                .span("core.knn", req, |_| tree.knn(obj, self.spec.k))
                .map(|(h, s)| Raw::Knn(h, s)),
            Op::Insert(_) | Op::Delete(_) => Err(io::Error::other("read-only target")),
        }
    }

    fn index_dirs(&self) -> Vec<PathBuf> {
        vec![self.dir.clone()]
    }

    fn close(self: Box<Self>) -> io::Result<()> {
        drop(self.tree);
        Ok(())
    }
}

/// One `spb-server` on loopback, driven through one `Client`.
pub struct Remote {
    client: Client,
    server: ServerHandle,
    dir: PathBuf,
    spec: Spec,
}

impl Remote {
    pub fn setup<O: MetricObject, D: Distance<O> + 'static>(
        dir: &Path,
        data: &[O],
        metric: D,
        spec: &Spec,
        tr: &mut Tracer,
    ) -> io::Result<(Self, Vec<O>)> {
        let tree = build(dir, data, metric, spec, tr)?;
        let pivots = tree.table().pivots().to_vec();
        let service = TreeService::new(tree, spec.schema.clone());
        let (server, client) = tr.span("server.start", SETUP_REQ, |_| -> io::Result<_> {
            let server = serve(Box::new(service), "127.0.0.1:0", ServerConfig::default())?;
            let mut client = Client::connect(server.addr()).map_err(io::Error::other)?;
            client.ping().map_err(io::Error::other)?;
            Ok((server, client))
        })?;
        let remote = Remote {
            client,
            server,
            dir: dir.to_owned(),
            spec: spec.clone(),
        };
        Ok((remote, pivots))
    }
}

impl<O: MetricObject> Target<O> for Remote {
    fn call(&mut self, op: Op, obj: &O, tr: &mut Tracer, req: u64) -> io::Result<Raw<O>> {
        let obj = obj.encoded();
        let (name, request) = match op {
            Op::Range(_) => (
                "client.range",
                Request::Range {
                    deadline_ms: 0,
                    radius: self.spec.radius,
                    obj,
                },
            ),
            Op::Knn(_) => (
                "client.knn",
                Request::Knn {
                    deadline_ms: 0,
                    k: self.spec.k as u32,
                    obj,
                },
            ),
            Op::Insert(_) => (
                "client.insert",
                Request::Insert {
                    deadline_ms: 0,
                    obj,
                },
            ),
            Op::Delete(_) => (
                "client.delete",
                Request::Delete {
                    deadline_ms: 0,
                    obj,
                },
            ),
        };
        let client = &mut self.client;
        tr.span(name, req, |_| client.request(&request))
            .map(Raw::Wire)
            .map_err(io::Error::other)
    }

    fn index_dirs(&self) -> Vec<PathBuf> {
        vec![self.dir.clone()]
    }

    fn close(self: Box<Self>) -> io::Result<()> {
        let Remote { client, server, .. } = *self;
        drop(client);
        server.shutdown();
        server.join()
    }
}

/// A two-shard in-process cluster queried through its `Router`.
pub struct Sharded<O: MetricObject, D: Distance<O> + Clone + 'static> {
    router: Router<O, D>,
    cluster: Cluster<O, D>,
    base: PathBuf,
    spec: Spec,
}

impl<O: MetricObject, D: Distance<O> + Clone + 'static> Sharded<O, D> {
    /// Launches the cluster. A traced setup first selects the pivots once
    /// more on its own, as `Cluster::launch` does inside, so the pivot
    /// selection shows as a span and the probes know the pivots; an
    /// untraced setup returns no pivots.
    pub fn setup(
        base: &Path,
        data: &[O],
        metric: D,
        spec: &Spec,
        tr: &mut Tracer,
    ) -> io::Result<(Self, Vec<O>)> {
        let pivots = if tr.enabled() {
            tr.span("pivots.select", SETUP_REQ, |_| {
                select(data, &metric, &spec.config())
            })
        } else {
            Vec::new()
        };
        let cfg = ClusterConfig {
            shards: spec.shards,
            replicas: 0,
            cache_pages: spec.cache_pages,
            spb: spec.config(),
            ..ClusterConfig::default()
        };
        let cluster = tr.span("cluster.launch", SETUP_REQ, |_| {
            Cluster::launch(base, data, metric, spec.schema.clone(), &cfg)
        })?;
        let router = tr.span("server.start", SETUP_REQ, |_| -> io::Result<_> {
            for shard in 0..cluster.num_shards() {
                let mut c =
                    Client::connect(cluster.primary_addr(shard)).map_err(io::Error::other)?;
                c.ping().map_err(io::Error::other)?;
            }
            Ok(cluster.router())
        })?;
        let sharded = Sharded {
            router,
            cluster,
            base: base.to_owned(),
            spec: spec.clone(),
        };
        Ok((sharded, pivots))
    }
}

impl<O: MetricObject, D: Distance<O> + Clone + 'static> Target<O> for Sharded<O, D> {
    fn call(&mut self, op: Op, obj: &O, tr: &mut Tracer, req: u64) -> io::Result<Raw<O>> {
        let router = &self.router;
        let reply = match op {
            Op::Range(_) => tr
                .span("router.range", req, |_| router.range(obj, self.spec.radius))
                .map(|(hits, stats)| Response::Range { hits, stats }),
            Op::Knn(_) => tr
                .span("router.knn", req, |_| router.knn(obj, self.spec.k))
                .map(|(hits, stats)| Response::Knn { hits, stats }),
            Op::Insert(_) | Op::Delete(_) => return Err(io::Error::other("read-only target")),
        };
        reply
            .map(Raw::Wire)
            .map_err(|e| io::Error::other(format!("{e:?}")))
    }

    fn index_dirs(&self) -> Vec<PathBuf> {
        (0..self.cluster.num_shards())
            .map(|i| self.base.join(format!("shard{i}")))
            .collect()
    }

    fn close(self: Box<Self>) -> io::Result<()> {
        let Sharded {
            router, cluster, ..
        } = *self;
        drop(router);
        cluster.shutdown()
    }
}
