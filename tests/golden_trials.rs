//! Golden trial digests: trials 0 and 1 of every curated chaos campaign
//! (negative controls included) are pinned to one FNV-1a digest over the
//! verdict line, the trace-ring truncation count and every trace event.
//!
//! The digests were captured while the binary-heap scheduler was still
//! selectable and the timing wheel had been proven to reproduce it event
//! for event, so they pin the scheduler's `(time, seq)` order, the fabric,
//! the NIC, the firmware, the mapper and the oracle in one number each.
//! Any change to an observable event — one nanosecond, one reordered
//! pair — moves a digest.

use san_chaos::{run_trial_traced, Campaign};
use san_fabric::fingerprint::Fnv;

fn fold_str(h: &mut Fnv, s: &str) {
    h.u64(s.len() as u64);
    for b in s.bytes() {
        h.u64(b as u64);
    }
}

fn trial_digest(campaign: &str, index: u32) -> u64 {
    let path = format!(
        "{}/crates/chaos/campaigns/{campaign}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let c = Campaign::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let (out, scan) = run_trial_traced(&c.sample(index));
    let mut h = Fnv::new();
    fold_str(&mut h, &out.verdict_line());
    h.u64(scan.truncated);
    h.u64(scan.events().len() as u64);
    for e in scan.events() {
        fold_str(&mut h, &e.to_line());
    }
    h.finish()
}

fn assert_golden(campaign: &str, golden: [u64; 2]) {
    let got = [trial_digest(campaign, 0), trial_digest(campaign, 1)];
    assert_eq!(
        got, golden,
        "{campaign}: trial digests moved (got {:#018x}, {:#018x})",
        got[0], got[1]
    );
}

#[test]
fn golden_smoke() {
    assert_golden("smoke", [0x8997_435d_68f4_5c36, 0x855b_c6e4_8a1c_1367]);
}

#[test]
fn golden_transient() {
    assert_golden("transient", [0x41b7_0bcd_37b1_a87e, 0x442a_762c_3d09_d950]);
}

#[test]
fn golden_permanent() {
    assert_golden("permanent", [0x1a98_424d_0f7c_bd1d, 0x1f23_d30f_a007_e45c]);
}

#[test]
fn golden_mixed() {
    assert_golden("mixed", [0x5d4c_ba9e_18b6_c797, 0xc588_5588_4ffc_ee83]);
}

#[test]
fn golden_recovery() {
    assert_golden("recovery", [0x63a8_f972_1170_e335, 0x1fca_37e5_124b_31ff]);
}

#[test]
fn golden_reincarnation() {
    assert_golden(
        "reincarnation",
        [0xcd59_cf41_5629_f3ed, 0x7d05_6154_ee1d_53f3],
    );
}

#[test]
fn golden_reincarnation_hot() {
    assert_golden(
        "reincarnation_hot",
        [0xcb18_01f7_0feb_34c6, 0x0b48_ebd9_67bf_c02b],
    );
}

#[test]
fn golden_incast() {
    assert_golden("incast", [0xc7c7_ca3a_da7b_8879, 0x204f_8369_7f4a_f12a]);
}

#[test]
fn golden_atlas() {
    assert_golden("atlas", [0x64cf_9532_d182_157f, 0x55ff_2fff_ffeb_f629]);
}

#[test]
fn golden_atlas_torus() {
    assert_golden(
        "atlas_torus",
        [0x6d07_ecbb_b4ac_9ad9, 0x86db_c931_7654_35a7],
    );
}

#[test]
fn golden_reconfig() {
    assert_golden("reconfig", [0x2a38_5a25_c107_22ab, 0x9a6b_4854_5752_2d31]);
}

/// Negative control: the unprotected baseline loses messages.
#[test]
fn golden_unprotected() {
    assert_golden(
        "unprotected",
        [0x61b4_dc26_9cd1_81f3, 0xcce3_b972_9cd8_2803],
    );
}

/// Negative control: an undrained switch removal loses messages.
#[test]
fn golden_reconfig_undrained() {
    assert_golden(
        "reconfig_undrained",
        [0xb940_b889_f336_0ff9, 0x0db3_bfd8_6b23_6e31],
    );
}
