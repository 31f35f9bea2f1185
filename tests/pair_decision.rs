//! Decision equivalence of the pairwise compare.
//!
//! `compare_pair` decides whether an executable section matches by
//! comparing the Algorithm 2-adjusted bytes. The paper decides it by
//! hashing both adjusted sections and comparing the digests. Equal bytes
//! give equal digests, and unequal bytes give unequal digests barring a
//! collision, so both decisions must name exactly the same mismatched
//! parts. This suite pins that against a digest-decided oracle under MD5
//! and SHA-256, over randomly mutated pairs and over every §V.B technique's
//! infected pool.

use std::collections::BTreeMap;

use mc_attacks::Technique;
use mc_hypervisor::AddressWidth;
use mc_pe::corpus::{standard_corpus, ModuleBlueprint};
use mc_vmi::VmiSession;
use modchecker::digest::digest;
use modchecker::{
    adjust_rvas, compare_pair, DigestAlgo, ExtractedModule, ModuleImage, ModuleSearcher, PartId,
};
use modchecker_repro::testbed::Testbed;
use proptest::prelude::*;

const ALGOS: [DigestAlgo; 2] = [DigestAlgo::Md5, DigestAlgo::Sha256];

/// The digest-decided compare: cached header digests, then Algorithm 2
/// and a digest of each adjusted executable section. Returns the
/// mismatched parts (sorted) and the summed slot/residual counts.
fn oracle(a: &ExtractedModule, b: &ExtractedModule) -> (Vec<PartId>, usize, usize) {
    let mut mismatched = Vec::new();
    let ha: BTreeMap<_, _> = a.header_hashes.iter().cloned().collect();
    let hb: BTreeMap<_, _> = b.header_hashes.iter().cloned().collect();
    for id in ha.keys().chain(hb.keys()) {
        if ha.get(id) != hb.get(id) {
            mismatched.push(id.clone());
        }
    }
    let (mut slots, mut residual) = (0, 0);
    for sa in &a.parts.exec_sections {
        let Some(sb) = b.parts.exec_sections.iter().find(|s| s.name == sa.name) else {
            mismatched.push(PartId::SectionData(sa.name.clone()));
            continue;
        };
        let mut x = a.image.bytes[sa.range.clone()].to_vec();
        let mut y = b.image.bytes[sb.range.clone()].to_vec();
        let stats = adjust_rvas(&mut x, &mut y, a.image.base, b.image.base, a.parts.width);
        slots += stats.slots_adjusted;
        residual += stats.residual_diffs;
        if x.len() != y.len() || digest(a.algo, &x) != digest(a.algo, &y) {
            mismatched.push(PartId::SectionData(sa.name.clone()));
        }
    }
    for sb in &b.parts.exec_sections {
        if !a.parts.exec_sections.iter().any(|s| s.name == sb.name) {
            mismatched.push(PartId::SectionData(sb.name.clone()));
        }
    }
    mismatched.sort();
    mismatched.dedup();
    (mismatched, slots, residual)
}

fn assert_same_decision(a: &ExtractedModule, b: &ExtractedModule, what: &str) {
    let out = compare_pair(a, b, None).expect("same algorithm on both sides");
    let (parts, slots, residual) = oracle(a, b);
    assert_eq!(out.mismatched, parts, "{what}: mismatched parts");
    assert_eq!(out.slots_adjusted, slots, "{what}: slots adjusted");
    assert_eq!(out.residual_diffs, residual, "{what}: residual diffs");
}

fn capture(bed: &Testbed, idx: usize, module: &str) -> ModuleImage {
    let mut s = VmiSession::attach(&bed.hv, bed.vm_ids[idx]).expect("attach");
    ModuleSearcher::find(&mut s, module).expect("capture")
}

#[test]
fn byte_decision_matches_digest_oracle_on_every_paper_technique() {
    for technique in Technique::ALL {
        let (bed, _) = Testbed::infected_cloud(3, technique, &[1]).expect("infected cloud builds");
        for bp in standard_corpus(AddressWidth::W32) {
            let images: Vec<ModuleImage> = (0..3).map(|i| capture(&bed, i, &bp.name)).collect();
            for algo in ALGOS {
                let ex: Vec<ExtractedModule> = images
                    .iter()
                    .map(|img| ExtractedModule::with_algo(img.clone(), algo).expect("parses"))
                    .collect();
                // Victim dom2 against a clean peer, and two clean peers.
                for (i, j) in [(0, 1), (0, 2)] {
                    let what =
                        format!("{technique} {} {algo:?} dom{}-dom{}", bp.name, i + 1, j + 1);
                    assert_same_decision(&ex[i], &ex[j], &what);
                }
            }
        }
    }
}

/// Two clean captures of one module at distinct bases, per width.
fn clean_pair(width: AddressWidth) -> (ModuleImage, ModuleImage) {
    let bp = ModuleBlueprint::new("hal.dll", width, 12 * 1024);
    let bed = Testbed::cloud_with(2, width, &[bp]);
    (capture(&bed, 0, "hal.dll"), capture(&bed, 1, "hal.dll"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random byte flips anywhere in either image, identical writes to
    /// both images (relocation look-alikes), and truncated executable
    /// sections: the byte decision and the digest oracle agree on every
    /// pair that still parses.
    #[test]
    fn byte_decision_matches_digest_oracle_on_random_pairs(
        wide in proptest::bool::ANY,
        sha in proptest::bool::ANY,
        edits in proptest::collection::vec(any::<u64>(), 0..6),
        cut in 0usize..40,
        cut_a in proptest::bool::ANY,
    ) {
        let width = if wide { AddressWidth::W64 } else { AddressWidth::W32 };
        let algo = if sha { DigestAlgo::Sha256 } else { DigestAlgo::Md5 };
        let (mut ia, mut ib) = clean_pair(width);
        for e in edits {
            let len = ia.bytes.len().min(ib.bytes.len());
            let at = (e >> 8) as usize % len;
            let val = e as u8;
            match (e >> 40) % 3 {
                0 => ia.bytes[at] ^= val | 1,
                1 => ib.bytes[at] ^= val | 1,
                _ => {
                    ia.bytes[at] = val;
                    ib.bytes[at] = val;
                }
            }
        }
        let (Ok(mut a), Ok(mut b)) = (
            ExtractedModule::with_algo(ia, algo),
            ExtractedModule::with_algo(ib, algo),
        ) else {
            continue;
        };
        let side = if cut_a { &mut a } else { &mut b };
        if let Some(s) = side.parts.exec_sections.first_mut() {
            s.range.end -= cut.min(s.range.len());
        }
        assert_same_decision(&a, &b, &format!("{width:?} {algo:?}"));
    }

    /// On raw adjusted buffers, byte inequality and digest inequality are
    /// the same predicate under both algorithms.
    #[test]
    fn adjusted_bytes_differ_iff_digests_differ(
        file in proptest::collection::vec(any::<u8>(), 0..1024),
        base_sel in 1u64..0xFFFF,
        flips in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        let base_a = 0xF700_0000u64;
        let base_b = base_a + (base_sel << 12);
        let mut a = file.clone();
        let mut b = file;
        for at in (0..a.len().saturating_sub(3)).step_by(61) {
            let rva = u32::from_le_bytes(a[at..at + 4].try_into().unwrap());
            a[at..at + 4].copy_from_slice(&rva.wrapping_add(base_a as u32).to_le_bytes());
            b[at..at + 4].copy_from_slice(&rva.wrapping_add(base_b as u32).to_le_bytes());
        }
        for f in flips {
            if !b.is_empty() {
                let at = (f >> 8) as usize % b.len();
                b[at] ^= f as u8 | 1;
            }
        }
        adjust_rvas(&mut a, &mut b, base_a, base_b, AddressWidth::W32);
        for algo in ALGOS {
            prop_assert_eq!(a != b, digest(algo, &a) != digest(algo, &b));
        }
    }
}
