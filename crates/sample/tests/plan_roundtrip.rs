//! `.sdbs` container robustness: round trips are bit-exact, and every
//! corruption — byte flips anywhere, truncation at every length — yields
//! a typed [`PlanError`], never a panic.

use sdbp_sample::{PlanError, SamplingPlan, PLAN_VERSION};

fn fixture() -> SamplingPlan {
    SamplingPlan {
        source: "roundtrip.fixture".into(),
        source_len: 50_000,
        window: 2048,
        warmup_windows: 2,
        seed: 0xdead_beef,
        k: 4,
        bound: 0.031_25,
        representatives: vec![1, 0, 7, 18],
        assignment: (0..25).map(|w| [1u32, 0, 2, 3, 2][w % 5]).collect(),
    }
}

#[test]
fn save_load_round_trips_through_disk() {
    let plan = fixture();
    plan.validate().expect("fixture is valid");
    let dir = std::env::temp_dir().join(format!("sdbs-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fixture.sdbs");
    plan.save(&path).expect("save");
    let back = SamplingPlan::load(&path).expect("load");
    assert_eq!(back, plan);
    #[expect(
        clippy::unused_result_ok,
        reason = "best-effort temp cleanup; a leftover file is harmless"
    )]
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_is_a_typed_io_error() {
    let err = SamplingPlan::load(std::path::Path::new("/nonexistent/nope.sdbs"))
        .expect_err("missing file");
    assert!(matches!(err, PlanError::Io(_)));
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let bytes = fixture().to_bytes();
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[i] ^= bit;
            let result = SamplingPlan::from_bytes(&bad);
            assert!(
                result.is_err(),
                "flip of bit {bit:#04x} at byte {i} went undetected"
            );
        }
    }
}

#[test]
fn every_truncation_is_rejected() {
    let bytes = fixture().to_bytes();
    for len in 0..bytes.len() {
        let result = SamplingPlan::from_bytes(&bytes[..len]);
        assert!(result.is_err(), "truncation to {len} bytes went undetected");
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = fixture().to_bytes();
    bytes.push(0);
    assert!(SamplingPlan::from_bytes(&bytes).is_err());
}

#[test]
fn error_variants_name_the_failure_site() {
    let good = fixture().to_bytes();

    let mut foreign = good.clone();
    foreign[..8].copy_from_slice(b"NOTAPLAN");
    assert!(matches!(
        SamplingPlan::from_bytes(&foreign),
        Err(PlanError::BadMagic { .. })
    ));

    let mut future = good.clone();
    future[8..12].copy_from_slice(&(PLAN_VERSION + 1).to_le_bytes());
    assert!(matches!(
        SamplingPlan::from_bytes(&future),
        Err(PlanError::UnsupportedVersion { .. })
    ));

    let mut flipped = good.clone();
    let mid = good.len() / 2;
    flipped[mid] ^= 0xff;
    assert!(matches!(
        SamplingPlan::from_bytes(&flipped),
        Err(PlanError::Checksum { .. } | PlanError::Truncated { .. })
    ));

    assert!(matches!(
        SamplingPlan::from_bytes(&good[..10]),
        Err(PlanError::Truncated { .. })
    ));
}

#[test]
fn structurally_impossible_plans_fail_validation_not_parsing() {
    // A plan whose bytes are intact but whose content lies about its
    // geometry must be rejected by the same typed taxonomy.
    let mut plan = fixture();
    plan.representatives[2] = 99; // out of range
    assert!(plan.validate().is_err());
    // Serialize the lie and confirm the reader rejects it too.
    let bytes = plan.to_bytes();
    assert!(matches!(
        SamplingPlan::from_bytes(&bytes),
        Err(PlanError::Malformed { .. })
    ));
}
