//! The corruption battery: every checkpoint kind, corrupted every way a
//! disk or a wire can corrupt it, must come back as an error — never as a
//! silently different state, a panic or an abort.
//!
//! Fixtures are real mid-stream checkpoints of all five kinds: a merger
//! (`TMCK`) and a fleet (`TMFL`) killed mid-outage under a `tm-chaos`
//! hard-down plan, a global merger (`TMGL`) killed mid-outage, an anytime
//! stream (`TMAQ`) and a serve daemon (`TMSV`) whose tenant carries a
//! global overlay. For each one:
//!
//! * every single-bit flip is an `Err` (every bit of the `TMCK`, `TMGL`
//!   and `TMAQ` fixtures; every header and trailer bit plus a fixed
//!   stride through the body of the larger `TMFL` and `TMSV` fixtures);
//! * every proper prefix and suffix, each header byte inverted, trailing
//!   bytes, and the body sealed under any other kind are `Err`s;
//! * body flips re-sealed with a valid checksum — what reaches the
//!   decoders behind the checksum — are `Ok` or `Err`, never a panic.

use tmerge::chaos::{FaultPlan, FaultyModel};
use tmerge::core::checkpoint::{seal, Kind};
use tmerge::core::{
    DecisionMode, FleetIngester, GlobalConfig, GlobalMerger, StreamConfig, StreamingMerger, TMerge,
    TMergeConfig,
};
use tmerge::query::{AnytimeConfig, AnytimeStream, Query};
use tmerge::reid::{AppearanceConfig, AppearanceModel, CostModel, Device, InferenceBackend};
use tmerge::serve::{AdmissionConfig, ServeConfig, TenantSpec, TmServe};
use tmerge::synth::{MultiCameraWorld, WorldConfig};
use tmerge::types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Result, Track, TrackBox, TrackId, TrackSet,
};

/// Envelope header: magic, kind, version and body length words.
const HEADER: usize = 32;
/// Envelope trailer: the checksum word.
const TRAILER: usize = 8;
/// Bit stride through the bodies of the fleet and serve fixtures. Odd, so
/// the flipped bit walks through every position of a byte and of a word.
const BODY_STRIDE: usize = 61;
/// Bits flipped in every body word for the re-sealed pass: low, middle
/// and high bits of lengths, counts, ids and float exponents.
const RESEAL_BITS: [usize; 6] = [0, 5, 31, 33, 52, 60];
/// The unoptimised test profile runs the battery about fifty times
/// slower, so there it samples: every fixture's body bits at
/// `BODY_STRIDE`, and re-sealed flips at `RESEAL_STRIDE`. Release builds
/// (how CI runs this suite) cover everything the module docs promise.
const SAMPLED: bool = cfg!(debug_assertions);
const RESEAL_STRIDE: usize = 499;
const KINDS: [Kind; 5] = [
    Kind::Merger,
    Kind::Fleet,
    Kind::Global,
    Kind::Anytime,
    Kind::Serve,
];

fn track(id: u64, actor: u64, start: u64, n: usize, x0: f64) -> Track {
    Track::with_boxes(
        TrackId(id),
        classes::PEDESTRIAN,
        (0..n)
            .map(|i| {
                TrackBox::new(
                    FrameIdx(start + i as u64),
                    BBox::new(x0 + i as f64 * 5.0, 100.0, 40.0, 80.0),
                )
                .with_provenance(GtObjectId(actor))
            })
            .collect(),
    )
}

/// A small feature dimension keeps the fixtures small: the every-bit
/// passes cost time quadratic in checkpoint size.
fn model() -> AppearanceModel {
    AppearanceModel::new(AppearanceConfig {
        dim: 8,
        ..AppearanceConfig::default()
    })
}

/// Fragmented tracker output over seven windows, with admissible pairs in
/// every full window.
fn feed() -> TrackSet {
    TrackSet::from_tracks(vec![
        track(1, 10, 0, 15, 0.0),
        track(2, 10, 80, 15, 160.0),
        track(3, 11, 0, 150, 400.0),
        track(4, 12, 100, 150, 800.0),
        track(5, 13, 250, 30, 1200.0),
        track(6, 13, 330, 20, 1360.0),
        track(7, 14, 420, 30, 0.0),
        track(8, 14, 500, 25, 160.0),
        track(9, 15, 350, 150, 400.0),
    ])
}

fn selector() -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: 1_500,
        seed: 4,
        ..TMergeConfig::default()
    })
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        window_len: 200,
        k: 0.2,
        gate: tmerge::reid::GatePolicy::Off,
        voi: tmerge::core::VoiMode::Off,
    }
}

fn merger(model: &AppearanceModel) -> StreamingMerger<'_, TMerge> {
    StreamingMerger::new(
        model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        stream_config(),
    )
    .unwrap()
}

/// Three cameras sharing two actors: the global merger's and the serve
/// daemon's feeds.
fn camera_world() -> MultiCameraWorld {
    MultiCameraWorld::new(WorldConfig {
        cameras: 3,
        actors: 2,
        hops: 2,
        dwell_frames: 120,
        fragment_frames: 45,
        ..WorldConfig::default()
    })
}

/// Rounds of 100 frames, so the hard-down epochs 2–3 fall inside frames
/// 200–400 of the world.
fn global_config() -> GlobalConfig {
    GlobalConfig {
        round_len: 100,
        ..GlobalConfig::default()
    }
}

fn flip(bytes: &mut [u8], bit: usize) {
    bytes[bit / 8] ^= 1 << (bit % 8);
}

/// The body of a sealed envelope, checked to re-seal to the same bytes.
fn body_of(kind: Kind, envelope: &[u8]) -> Vec<u8> {
    let body = envelope[HEADER..envelope.len() - TRAILER].to_vec();
    assert_eq!(seal(kind, body.clone()), envelope, "envelope layout");
    body
}

/// Runs every corruption against one real checkpoint. `every_bit` flips
/// every bit; otherwise every header and trailer bit and each
/// `BODY_STRIDE`-th body bit.
fn battery(kind: Kind, envelope: &[u8], every_bit: bool, resume: impl Fn(&[u8]) -> Result<()>) {
    resume(envelope).expect("the uncorrupted checkpoint resumes");
    let body = body_of(kind, envelope);
    let bits = envelope.len() * 8;

    let body_bits = HEADER * 8..bits - TRAILER * 8;
    let step = if every_bit && !SAMPLED {
        1
    } else {
        BODY_STRIDE
    };
    let mut buf = envelope.to_vec();
    for bit in (0..bits).filter(|b| !body_bits.contains(b) || b % step == 0) {
        flip(&mut buf, bit);
        assert!(
            resume(&buf).is_err(),
            "{kind:?}: flipping bit {bit} of {bits} resumed successfully"
        );
        flip(&mut buf, bit);
    }

    for byte in 0..HEADER {
        buf[byte] ^= 0xff;
        assert!(
            resume(&buf).is_err(),
            "{kind:?}: header byte {byte} inverted"
        );
        buf[byte] ^= 0xff;
    }
    for len in 0..envelope.len() {
        assert!(
            resume(&envelope[..len]).is_err(),
            "{kind:?}: a {len}-byte prefix resumed successfully"
        );
        assert!(
            resume(&envelope[envelope.len() - len..]).is_err(),
            "{kind:?}: a {len}-byte suffix resumed successfully"
        );
    }
    for extra in [1, 8] {
        let mut long = envelope.to_vec();
        long.resize(envelope.len() + extra, 0);
        assert!(resume(&long).is_err(), "{kind:?}: {extra} trailing bytes");
    }
    for other in KINDS.into_iter().filter(|&k| k != kind) {
        assert!(
            resume(&seal(other, body.clone())).is_err(),
            "{kind:?}: the body sealed as {other:?} resumed"
        );
    }

    // Behind a valid checksum, a corrupt body is the decoders' problem:
    // any verdict is fine, a panic (or an abort) is not.
    let resealed: Vec<usize> = if SAMPLED {
        (0..body.len() * 8).step_by(RESEAL_STRIDE).collect()
    } else {
        (0..body.len() / 8)
            .flat_map(|word| RESEAL_BITS.map(|b| word * 64 + b))
            .collect()
    };
    let mut body = body;
    for bit in resealed {
        flip(&mut body, bit);
        let _ = resume(&seal(kind, body.clone()));
        flip(&mut body, bit);
    }
}

#[test]
fn merger_checkpoint_mid_outage_rejects_every_corruption() {
    let model = model();
    let tracks = feed();
    let wrapper = FaultyModel::new(&model, FaultPlan::none().with_hard_down(2, 4));
    let mut m = merger(&model).with_backend(&wrapper);
    m.advance(&tracks, 250).unwrap();
    m.advance(&tracks, 420).unwrap();
    assert!(
        m.decisions()
            .iter()
            .any(|d| d.mode == DecisionMode::Degraded),
        "the fixture must be mid-outage"
    );
    battery(Kind::Merger, &m.checkpoint(), true, |bytes| {
        StreamingMerger::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            bytes,
        )
        .map(drop)
    });
}

#[test]
fn fleet_checkpoint_mid_outage_rejects_every_corruption() {
    let model = model();
    let tracks = feed();
    let faulty = [
        FaultyModel::new(&model, FaultPlan::none()),
        FaultyModel::new(&model, FaultPlan::none().with_hard_down(2, 4)),
    ];
    let backends: Vec<&dyn InferenceBackend> =
        faulty.iter().map(|f| f as &dyn InferenceBackend).collect();
    let mut fleet = FleetIngester::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        stream_config(),
        |_| selector(),
        &backends,
    )
    .unwrap();
    for frames in [250, 420] {
        fleet
            .advance(&[(&tracks, frames), (&tracks, frames)])
            .unwrap();
    }
    assert!(fleet
        .shard(1)
        .decisions()
        .iter()
        .any(|d| d.mode == DecisionMode::Degraded));
    let envelope = fleet.checkpoint();
    let resume_onto = |backends: &[&dyn InferenceBackend], bytes: &[u8]| {
        FleetIngester::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            |_| selector(),
            backends,
            bytes,
        )
        .map(drop)
    };
    battery(Kind::Fleet, &envelope, false, |bytes| {
        resume_onto(&backends, bytes)
    });

    // A corrupt shard count behind a valid checksum, resumed onto fewer
    // backends (the superset path), is an error, not a capacity panic.
    let mut body = body_of(Kind::Fleet, &envelope);
    assert_eq!(body[..8], 2u64.to_le_bytes(), "shard count leads the body");
    flip(&mut body, 60);
    assert!(resume_onto(&backends[..1], &seal(Kind::Fleet, body)).is_err());
}

#[test]
fn global_checkpoint_mid_outage_rejects_every_corruption() {
    let model = model();
    let feeds = camera_world().all_camera_tracks(420);
    let at = |frames: u64| -> Vec<(&TrackSet, u64)> { feeds.iter().map(|t| (t, frames)).collect() };
    let wrapper = FaultyModel::new(&model, FaultPlan::none().with_hard_down(2, 4));
    let mut global = GlobalMerger::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        selector(),
        global_config(),
    )
    .unwrap()
    .with_backend(&wrapper);
    global.advance(&at(250)).unwrap();
    global.advance(&at(420)).unwrap();
    assert!(global.stash_len() > 0, "the fixture must be mid-outage");
    battery(Kind::Global, &global.checkpoint(), true, |bytes| {
        GlobalMerger::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            bytes,
        )
        .map(drop)
    });
}

#[test]
fn anytime_checkpoint_rejects_every_corruption() {
    let model = model();
    let tracks = feed();
    let mut stream = AnytimeStream::new(
        merger(&model),
        Query::Count { min_frames: 100 },
        AnytimeConfig::default(),
    );
    for frames in [300, 500] {
        stream.advance(&tracks, frames).unwrap();
    }
    battery(Kind::Anytime, &stream.checkpoint(), true, |bytes| {
        AnytimeStream::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            selector(),
            bytes,
        )
        .map(drop)
    });
}

#[test]
fn serve_checkpoint_with_a_global_overlay_rejects_every_corruption() {
    let model = model();
    let world = camera_world();
    let cameras = world.config().cameras as usize;
    let serve_config = ServeConfig {
        stream: stream_config(),
        slo_window_ms: f64::INFINITY,
        shed_cooldown: 2,
        retention_horizon_windows: None,
    };
    let mut serve = TmServe::new(
        &model,
        CostModel::calibrated(),
        Device::Cpu,
        serve_config,
        |_, _| selector(),
    );
    let open = AdmissionConfig {
        max_queue: 64,
        bytes_per_window: u64::MAX / 4,
        quota_window_ms: 1_000.0,
        rate_capacity: 1_000.0,
        rate_per_ms: 100.0,
        retry_hint_ms: 10,
    };
    let backends = vec![&model as &dyn InferenceBackend; cameras];
    serve
        .register(
            TenantSpec {
                id: 3,
                streams: cameras,
                admission: open,
            },
            &backends,
        )
        .unwrap();
    serve.enable_global(3, global_config()).unwrap();
    for (t, frames) in [(0.0, 250), (100.0, 420)] {
        for (stream, tracks) in world.all_camera_tracks(frames).into_iter().enumerate() {
            assert!(serve.submit(t, 3, stream, tracks, frames).is_admitted());
        }
        serve.run_once(t + 1.0).unwrap();
    }
    assert!(serve.global(3).is_some(), "the TMSV must carry a TMGL");
    let envelope = serve.checkpoint();
    let resume = |bytes: &[u8]| {
        TmServe::resume(
            &model,
            CostModel::calibrated(),
            Device::Cpu,
            serve_config,
            |_, _| selector(),
            |_, streams| Some(vec![&model as &dyn InferenceBackend; streams]),
            bytes,
        )
        .map(drop)
    };
    battery(Kind::Serve, &envelope, false, resume);

    // A corrupt stream count behind a valid checksum is an error, not an
    // aborting allocation: words are now_ms, cycles, rejected_unknown,
    // tenant count, then the first tenant's id and stream count.
    let mut body = body_of(Kind::Serve, &envelope);
    assert_eq!(body[40..48], (cameras as u64).to_le_bytes());
    flip(&mut body, 40 * 8 + 33);
    assert!(resume(&seal(Kind::Serve, body)).is_err());
}
