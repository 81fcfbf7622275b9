//! End-to-end tests of the cost-model plane: one process, one
//! engine, TCP clients opening sessions whose (α, β) come from different
//! sources — raw runtime coefficients and a named phy operating point —
//! with every stream checked bit-identically against a serial
//! [`BusSession`] driven by the resolved plan, and the shared plan-cache
//! counters visible in the metrics JSON.

use dbi_core::{CostWeights, InversionMask, Scheme};
use dbi_mem::BusSession;
use dbi_phy::OperatingPoint;
use dbi_service::{
    CostModel, EncodeReply, EncodeRequest, Engine, ServiceConfig, ServiceError, TcpClient,
    TcpServer, VerifyMode,
};

const GROUPS: u16 = 4;
const BURST_LEN: u8 = 8;

fn pseudo_random(len: usize, mut seed: u32) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

/// Serial reference: the same stream through a `BusSession` built on the
/// scheme the engine resolves the cost model to.
fn reference_masks(scheme: Scheme, data: &[u8]) -> (Vec<InversionMask>, u64) {
    let mut session =
        BusSession::with_plan_geometry(usize::from(GROUPS), usize::from(BURST_LEN), scheme.plan());
    let mut per_group = Vec::new();
    let mut masks = Vec::new();
    let bursts = session
        .encode_stream_into(data, &mut per_group, Some(&mut masks))
        .unwrap();
    (masks, bursts)
}

#[test]
fn two_sessions_with_different_cost_models_carry_independent_streams() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();

    // Session A: the optimal scheme re-weighted by raw runtime α,β.
    let raw_weights = CostWeights::new(3, 1).unwrap();
    let model_a = CostModel::Weights(raw_weights);
    let resolved_a = Scheme::Opt(raw_weights);
    // Session B: a named phy operating point (DDR4's POD-1.2 at 3.2 Gbps).
    let point: OperatingPoint = "pod12@3.2".parse().unwrap();
    let model_b = CostModel::Named(point);
    let resolved_b = Scheme::Opt(point.quantised_weights().unwrap());
    assert_ne!(resolved_a, resolved_b, "the two models must differ");

    let data_a = pseudo_random(usize::from(GROUPS) * usize::from(BURST_LEN) * 24, 0xA);
    let data_b = pseudo_random(usize::from(GROUPS) * usize::from(BURST_LEN) * 24, 0xB);

    let mut client_a = TcpClient::connect(server.addr()).unwrap();
    let mut client_b = TcpClient::connect(server.addr()).unwrap();
    let mut reply = EncodeReply::new();
    let request = |session_id, cost_model, payload| EncodeRequest {
        session_id,
        scheme: Scheme::OptFixed,
        cost_model,
        groups: GROUPS,
        burst_len: BURST_LEN,
        want_masks: true,
        verify: VerifyMode::Off,
        payload,
    };

    // Interleave the two sessions' halves so their carried states have
    // every chance to interfere if the engine mixed them up.
    let (mut masks_a, mut masks_b) = (Vec::new(), Vec::new());
    let (mut bursts_a, mut bursts_b) = (0u64, 0u64);
    let half_a = data_a.len() / 2;
    let half_b = data_b.len() / 2;
    for (slice_a, slice_b) in [
        (&data_a[..half_a], &data_b[..half_b]),
        (&data_a[half_a..], &data_b[half_b..]),
    ] {
        client_a
            .encode(&request(1, model_a, slice_a), &mut reply)
            .unwrap();
        masks_a.extend_from_slice(&reply.masks);
        bursts_a += reply.bursts;
        client_b
            .encode(&request(2, model_b, slice_b), &mut reply)
            .unwrap();
        masks_b.extend_from_slice(&reply.masks);
        bursts_b += reply.bursts;
    }

    let (expected_a, expected_bursts_a) = reference_masks(resolved_a, &data_a);
    let (expected_b, expected_bursts_b) = reference_masks(resolved_b, &data_b);
    assert_eq!(bursts_a, expected_bursts_a);
    assert_eq!(bursts_b, expected_bursts_b);
    assert_eq!(masks_a, expected_a, "raw-weights session diverged");
    assert_eq!(masks_b, expected_b, "named-point session diverged");

    // The shared plan cache built each resolved plan exactly once, and
    // the counters are visible in the wire metrics JSON.
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.misses, 2, "one build per distinct cost model");
    assert_eq!(stats.entries, 2);
    let json = client_a.metrics_json().unwrap();
    assert!(json.contains("\"plan_cache\":{\"hits\":"), "{json}");
    assert!(json.contains("\"misses\":2"), "{json}");
    // The wire snapshot additionally carries the live connection-plane
    // counters, which the engine-side registry cannot see; both TCP
    // clients must show up in it. Splice the block down to the zeroed
    // engine-side shape before comparing the rest byte-for-byte.
    let start = json.find("\"connections\":{").expect("connections block");
    let end = start + json[start..].find('}').expect("flat object") + 1;
    assert!(json[start..end].contains("\"active\":2"), "{json}");
    assert!(json[start..end].contains("\"accepted\":2"), "{json}");
    // Every exchange so far crossed the plane: four encodes and this
    // metrics request were read, the four encode answers written.
    let counter = |name: &str| -> u64 {
        let key = format!("\"{name}\":");
        let at = start + json[start..end].find(&key).expect("counter") + key.len();
        let digits = json[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.unwrap().parse().unwrap()
    };
    assert!(counter("socket_reads") >= 5, "{json}");
    assert!(counter("socket_writes") >= 4, "{json}");
    let neutral = format!(
        "{}\"connections\":{{\"active\":0,\"accepted\":0,\"closed\":0,\"dropped_slow\":0,\
         \"read_buf_high_watermark\":0,\"write_buf_high_watermark\":0,\"socket_reads\":0,\
         \"socket_writes\":0}}{}",
        &json[..start],
        &json[end..]
    );
    assert_eq!(engine.metrics().to_json(), neutral);

    drop(client_a);
    drop(client_b);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn sessions_resolving_to_the_same_plan_share_one_cache_entry() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(usize::from(GROUPS) * usize::from(BURST_LEN) * 4, 7);
    let weights = CostWeights::new(2, 5).unwrap();

    // Three routes to the same resolved scheme: inline weights, an
    // explicit cost model on OptFixed, and an explicit model on Opt.
    let routes = [
        (10, Scheme::Opt(weights), CostModel::Inline),
        (11, Scheme::OptFixed, CostModel::Weights(weights)),
        (
            12,
            Scheme::Opt(CostWeights::FIXED),
            CostModel::Weights(weights),
        ),
    ];
    for (session_id, scheme, cost_model) in routes {
        client
            .encode(
                &EncodeRequest {
                    session_id,
                    scheme,
                    cost_model,
                    groups: GROUPS,
                    burst_len: BURST_LEN,
                    want_masks: false,
                    verify: VerifyMode::Off,
                    payload: &payload,
                },
                &mut reply,
            )
            .unwrap();
    }
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one plan serves all three sessions");
    assert_eq!(stats.hits, 2);
    engine.shutdown();
}

#[test]
fn cost_models_on_weightless_schemes_are_rejected() {
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = [0u8; 32];
    for scheme in [Scheme::Raw, Scheme::Dc, Scheme::Ac, Scheme::AcDc] {
        let err = client
            .encode(
                &EncodeRequest {
                    session_id: 1,
                    scheme,
                    cost_model: CostModel::Weights(CostWeights::new(2, 1).unwrap()),
                    groups: GROUPS,
                    burst_len: BURST_LEN,
                    want_masks: false,
                    verify: VerifyMode::Off,
                    payload: &payload,
                },
                &mut reply,
            )
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::BadCostModel { .. }),
            "{scheme}: got {err:?}"
        );
    }
    // Greedy *is* parametric: an explicit model is accepted.
    client
        .encode(
            &EncodeRequest {
                session_id: 2,
                scheme: Scheme::Greedy(CostWeights::FIXED),
                cost_model: CostModel::Weights(CostWeights::new(2, 1).unwrap()),
                groups: GROUPS,
                burst_len: BURST_LEN,
                want_masks: false,
                verify: VerifyMode::Off,
                payload: &payload,
            },
            &mut reply,
        )
        .unwrap();
    assert_eq!(engine.metrics().totals().rejected, 4);
    engine.shutdown();
}

#[test]
fn one_session_id_with_diverging_cost_models_is_a_mismatch() {
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = [0u8; 32];
    let request = |cost_model| EncodeRequest {
        session_id: 9,
        scheme: Scheme::OptFixed,
        cost_model,
        groups: GROUPS,
        burst_len: BURST_LEN,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    client
        .encode(
            &request(CostModel::Weights(CostWeights::new(4, 1).unwrap())),
            &mut reply,
        )
        .unwrap();
    // Same id, different resolved weights: rejected, state untouched.
    assert_eq!(
        client.encode(
            &request(CostModel::Weights(CostWeights::new(1, 4).unwrap())),
            &mut reply
        ),
        Err(ServiceError::SessionMismatch { session_id: 9 })
    );
    // The original model keeps working.
    client
        .encode(
            &request(CostModel::Weights(CostWeights::new(4, 1).unwrap())),
            &mut reply,
        )
        .unwrap();
    engine.shutdown();
}
