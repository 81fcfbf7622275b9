//! The three workloads, their pinned engine and connection
//! configuration, and the per-session state a run carries: the
//! pre-generated payload pool and the log the output check replays.

use dbi_core::{CostBreakdown, InversionMask, Scheme};
use dbi_service::{
    CostModel, EncodeBatchRequest, EncodeReply, EncodeRequest, Engine, VerifyMode, MAX_BURST_LEN,
};
use dbi_workloads::LoadProfile;

/// Shard workers every workload runs with.
pub const SHARDS: usize = 2;
/// Connection-plane I/O threads (pipelined workload only).
pub const IO_THREADS: usize = 2;
/// Jobs a shard queue admits. Above the deepest closed loop (two
/// pipelined connections × 64 in flight), so no workload is refused.
pub const QUEUE_CAPACITY: usize = 256;
/// Payloads pre-generated per session and cycled through in order.
pub const POOL: usize = 32;
/// Every `MASK_EVERY`-th request of a session asks for its masks, for
/// the first `MASK_SAMPLES` such requests; the output check compares
/// them with the serial reference.
pub const MASK_EVERY: u64 = 512;
pub const MASK_SAMPLES: u64 = 8;

/// Names accepted by `--workload`, in reporting order.
pub const WORKLOADS: [&str; 3] = ["bulk-x64", "pipelined-small", "durable-mixed"];

/// How requests reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One blocking [`dbi_service::LocalClient`] per producer thread: one
    /// request outstanding per producer.
    Local,
    /// One pump thread over one [`dbi_service::PipelinedClient`] per
    /// producer, each holding `window` requests outstanding.
    Pipelined { window: usize },
}

/// One session a producer cycles over.
#[derive(Debug, Clone, Copy)]
pub struct SessionShape {
    pub scheme: Scheme,
    pub cost_model: CostModel,
    /// The shard the session's id is chosen to route to.
    pub shard: usize,
}

/// A workload: geometry, transport and the sessions of each producer.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub groups: u16,
    pub burst_len: u8,
    /// Accesses (bursts per lane group) in one request.
    pub accesses: usize,
    pub transport: Transport,
    pub verify: bool,
    pub persist: bool,
    /// One entry per producer (a client thread or a pipelined
    /// connection): the sessions it cycles over, in order.
    pub producers: Vec<Vec<SessionShape>>,
}

fn opt_fixed(shard: usize) -> SessionShape {
    SessionShape {
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        shard,
    }
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "bulk-x64" => Spec {
                name: "bulk-x64",
                groups: 8,
                burst_len: 8,
                accesses: 128,
                transport: Transport::Local,
                verify: false,
                persist: false,
                producers: vec![vec![opt_fixed(0)], vec![opt_fixed(1)]],
            },
            "pipelined-small" => Spec {
                name: "pipelined-small",
                groups: 4,
                burst_len: 8,
                accesses: 16,
                transport: Transport::Pipelined { window: 64 },
                verify: false,
                persist: false,
                producers: (0..2)
                    .map(|_| (0..8).map(|s| opt_fixed(s % SHARDS)).collect())
                    .collect(),
            },
            "durable-mixed" => {
                let pod12: CostModel = "pod12@3.2".parse().expect("a known operating point");
                let mixed = |shard| {
                    vec![
                        SessionShape {
                            scheme: Scheme::OptFixed,
                            cost_model: pod12,
                            shard,
                        },
                        SessionShape {
                            scheme: Scheme::Dc,
                            cost_model: CostModel::Inline,
                            shard,
                        },
                        SessionShape {
                            scheme: Scheme::Ac,
                            cost_model: CostModel::Inline,
                            shard,
                        },
                    ]
                };
                Spec {
                    name: "durable-mixed",
                    groups: 4,
                    burst_len: 16,
                    accesses: 32,
                    transport: Transport::Local,
                    verify: true,
                    persist: true,
                    producers: vec![mixed(0), mixed(1)],
                }
            }
            _ => return None,
        };
        debug_assert!(spec.burst_len <= MAX_BURST_LEN);
        Some(spec)
    }

    /// Local producers send `EncodeBatch` requests; the pipelined
    /// pump sends plain encode requests.
    pub fn batch(&self) -> bool {
        self.transport == Transport::Local
    }

    /// Payload bytes of one request.
    pub fn payload_len(&self) -> usize {
        self.accesses * usize::from(self.groups) * usize::from(self.burst_len)
    }

    /// Bursts (all lane groups) one request encodes.
    pub fn bursts_per_request(&self) -> u64 {
        (self.accesses * usize::from(self.groups)) as u64
    }

    pub fn verify_mode(&self) -> VerifyMode {
        if self.verify {
            VerifyMode::RoundTrip
        } else {
            VerifyMode::Off
        }
    }

    /// Builds every producer's sessions with their payload pools. Pools
    /// depend only on the workload and `seed`.
    pub fn sessions(&self, seed: u64) -> Vec<Vec<Session>> {
        let mut index = 0u64;
        self.producers
            .iter()
            .map(|shapes| {
                shapes
                    .iter()
                    .map(|shape| {
                        index += 1;
                        Session::new(self, *shape, seed, index)
                    })
                    .collect()
            })
            .collect()
    }
}

/// The scheme the engine encodes a session with once its cost model is
/// applied (the serial reference must use the same one).
fn resolve(scheme: Scheme, cost_model: CostModel) -> Scheme {
    let weights = match cost_model {
        CostModel::Inline => return scheme,
        CostModel::Weights(weights) => weights,
        CostModel::Named(point) => point
            .quantised_weights()
            .expect("a named operating point quantises"),
        other => panic!("the benchmark does not model cost model {other:?}"),
    };
    match scheme {
        Scheme::Opt(_) | Scheme::OptFixed => Scheme::Opt(weights),
        Scheme::Greedy(_) => Scheme::Greedy(weights),
        other => other,
    }
}

/// One session of a run: its identity, payloads and reply log.
#[derive(Debug)]
pub struct Session {
    pub shape: SessionShape,
    /// The scheme after the cost model is applied.
    pub resolved: Scheme,
    /// Chosen at set-up so the session routes to `shape.shard`.
    pub id: u64,
    pub pool: Vec<Vec<u8>>,
    pub log: SessionLog,
}

impl Session {
    fn new(spec: &Spec, shape: SessionShape, seed: u64, index: u64) -> Session {
        let profile_seed = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Odd sessions carry GPU traffic, even ones server traffic.
        let mut profile = if index % 2 == 1 {
            LoadProfile::gpu(profile_seed)
        } else {
            LoadProfile::server(profile_seed)
        };
        let pool = (0..POOL)
            .map(|_| {
                let mut payload = Vec::with_capacity(spec.payload_len());
                for _ in 0..spec.accesses {
                    profile.fill_access(
                        usize::from(spec.groups),
                        usize::from(spec.burst_len),
                        &mut payload,
                    );
                }
                payload
            })
            .collect();
        Session {
            shape,
            resolved: resolve(shape.scheme, shape.cost_model),
            id: 0,
            pool,
            log: SessionLog::default(),
        }
    }

    /// Takes the next sequence number; the request carries
    /// `pool[seq % POOL]` and asks for masks on sampled sequence numbers
    /// (or always, for a probe).
    pub fn next_request(&mut self, probe: bool) -> (u64, bool) {
        let seq = self.log.next_seq;
        self.log.next_seq += 1;
        let sampled = seq.is_multiple_of(MASK_EVERY) && seq / MASK_EVERY < MASK_SAMPLES;
        (seq, probe || sampled)
    }

    pub fn batch_request(&self, spec: &Spec, seq: u64, want_masks: bool) -> EncodeBatchRequest<'_> {
        let payload = &self.pool[seq as usize % POOL];
        EncodeBatchRequest {
            session_id: self.id,
            scheme: self.shape.scheme,
            cost_model: self.shape.cost_model,
            groups: spec.groups,
            burst_len: spec.burst_len,
            want_masks,
            verify: spec.verify_mode(),
            count: u16::try_from(payload.len() / usize::from(spec.burst_len))
                .expect("a request's burst count fits the batch field"),
            payload,
        }
    }

    pub fn plain_request(&self, spec: &Spec, seq: u64, want_masks: bool) -> EncodeRequest<'_> {
        EncodeRequest {
            session_id: self.id,
            scheme: self.shape.scheme,
            cost_model: self.shape.cost_model,
            groups: spec.groups,
            burst_len: spec.burst_len,
            want_masks,
            verify: spec.verify_mode(),
            payload: &self.pool[seq as usize % POOL],
        }
    }
}

/// Picks session ids with [`Engine::shard_of`] so every session lands on
/// the shard its shape names: the shard split is fixed, not hash luck.
/// Candidates start at `first`; returns the first id not considered, so
/// a later call hands out ids no earlier session had.
pub fn assign_ids(engine: &Engine, producers: &mut [Vec<Session>], first: u64) -> u64 {
    let mut candidate = first;
    for session in producers.iter_mut().flatten() {
        while engine.shard_of(candidate) != session.shape.shard {
            candidate += 1;
        }
        session.id = candidate;
        candidate += 1;
    }
    candidate
}

/// What a session's replies were, in sequence order, for the output
/// check.
#[derive(Debug, Default)]
pub struct SessionLog {
    /// Sequence numbers handed out (requests submitted).
    pub next_seq: u64,
    /// Sequence numbers that were refused and never executed.
    pub skipped: Vec<u64>,
    pub completed: u64,
    /// Running hash of every reply's per-group costs, in completion
    /// order.
    pub hash: u64,
    /// Replies that arrived out of submission order (must stay 0).
    pub fifo_violations: u64,
    last_done: Option<u64>,
    /// `(seq, masks)` of every reply that carried masks.
    pub masks: Vec<(u64, Vec<InversionMask>)>,
}

impl SessionLog {
    pub fn record(&mut self, seq: u64, reply: &EncodeReply, want_masks: bool) {
        if self.last_done.is_some_and(|last| seq <= last) {
            self.fifo_violations += 1;
        }
        self.last_done = Some(seq);
        self.completed += 1;
        self.hash = fold_costs(self.hash, &reply.per_group);
        if want_masks {
            self.masks.push((seq, reply.masks.clone()));
        }
    }
}

/// Folds one reply's per-group costs into a running FNV-style hash.
pub fn fold_costs(mut hash: u64, per_group: &[CostBreakdown]) -> u64 {
    for cost in per_group {
        for word in [cost.zeros, cost.transitions] {
            hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (hash ^ per_group.len() as u64).wrapping_mul(0x0000_0100_0000_01B3)
}
