//! The first half of the WiFi receiver's decoded-bits contract (DESIGN
//! §11): the receiver's decoded outputs are byte-identical to what the
//! exact per-sample CFO pack decoded. The digests below were recorded with
//! that exact pack, so a faster DATA pack must reproduce them unchanged:
//!
//! - for every receive of the seeded corpus in `wifi_corpus`: the SIGNAL
//!   field, PSDU, FCS verdict, descrambled DATA bits, `start`/`end`, and
//!   `rssi_dbm` and `cfo` by bit pattern, or the error variant;
//! - for every binary and quaternary `WifiLink` run: every `LinkStats`
//!   field, `f64`s by bit pattern.
//!
//! The second half, the tolerance on packed samples and equalised points,
//! is `tests/wifi_pack_tolerance.rs`.

mod wifi_corpus;

use wifi_corpus::{digest_receive, digest_stats, Fnv};

/// Digest of the decoded outputs of all 56 corpus receives.
const RECEIVES_DIGEST: u64 = 0xf416_2b9b_f01e_c3e0;
/// Digest of the statistics of all six corpus link runs.
const LINKS_DIGEST: u64 = 0xe4db_adff_22b6_d1aa;

#[test]
fn corpus_receives_decode_to_the_pinned_outputs() {
    let mut scratch = freerider_wifi::RxScratch::new();
    let mut all = Fnv::new();
    let mut per_case = Vec::new();
    let (mut ok, mut fcs_ok) = (0usize, 0usize);
    for case in wifi_corpus::receives() {
        let result = wifi_corpus::receive(&case, &mut scratch);
        if let Ok(p) = &result {
            ok += 1;
            fcs_ok += usize::from(p.fcs_valid);
        }
        let mut one = Fnv::new();
        digest_receive(&mut one, &result);
        digest_receive(&mut all, &result);
        per_case.push(format!("{:016x} {}", one.0, case.what));
    }
    // The corpus must exercise decodes, FCS failures and lost packets
    // alike, or the pinned digest would say little.
    assert!(
        ok > 30 && fcs_ok > 20 && fcs_ok < ok && ok < 56,
        "{ok} decoded, {fcs_ok} FCS ok"
    );
    assert_eq!(
        all.0,
        RECEIVES_DIGEST,
        "decoded outputs changed ({ok} decoded, {fcs_ok} FCS ok); per case:\n{}",
        per_case.join("\n")
    );
}

#[test]
fn corpus_links_keep_their_pinned_statistics() {
    let mut all = Fnv::new();
    let mut per_run = Vec::new();
    for (what, link) in wifi_corpus::links() {
        let stats = link.run();
        assert!(stats.packets_sent > 0, "{what}");
        let mut one = Fnv::new();
        digest_stats(&mut one, &stats);
        digest_stats(&mut all, &stats);
        per_run.push(format!("{:016x} {what}: {stats:?}", one.0));
    }
    assert_eq!(
        all.0,
        LINKS_DIGEST,
        "link statistics changed; per run:\n{}",
        per_run.join("\n")
    );
}
