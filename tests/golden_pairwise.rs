//! Golden snapshots of the paper's pairwise pool check.
//!
//! For each §V.B technique, a 5-VM infected cloud (victim `dom2`) is
//! checked with `CompareStrategy::Pairwise` and `ScanMode::Sequential` on
//! the technique's target module. The pinned file holds the report's
//! `to_json` (verdicts, suspect parts, simulated `times_ms`, VMI counters)
//! plus the full comparison matrix (mismatched parts, `slots_adjusted`,
//! `residual_diffs` per pair). Host-side speedups of Algorithm 2 and the
//! section compare must leave every byte here unchanged. Refresh after an
//! intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_pairwise
//! ```

use std::fs;
use std::path::PathBuf;

use mc_attacks::Technique;
use modchecker::{CheckConfig, CompareStrategy, ModChecker, PoolCheckReport, ScanMode};
use modchecker_repro::testbed::Testbed;

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test golden_pairwise` to create it", path.display())
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for {name}\nif the change is intentional, refresh with `UPDATE_GOLDEN=1 cargo test --test golden_pairwise`"
    );
}

fn slug(t: Technique) -> &'static str {
    match t {
        Technique::OpcodeReplacement => "opcode_replacement",
        Technique::InlineHook => "inline_hook",
        Technique::StubModification => "stub_modification",
        Technique::DllHook => "dll_hook",
        Technique::JumpOverJunk => "jump_over_junk",
        Technique::IatPivot => "iat_pivot",
        Technique::OverlappingDecode => "overlapping_decode",
    }
}

/// The report JSON with the pairwise matrix appended.
fn render(report: &PoolCheckReport) -> String {
    let matrix: Vec<serde_json::Value> = report
        .matrix
        .iter()
        .map(|o| {
            serde_json::json!({
                "vms": [o.vms.0, o.vms.1],
                "mismatched": o
                    .mismatched
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect::<Vec<_>>(),
                "slots_adjusted": o.slots_adjusted,
                "residual_diffs": o.residual_diffs,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "report": report.to_json(),
        "matrix": matrix,
    });
    serde_json::to_string_pretty(&doc).expect("serializes") + "\n"
}

#[test]
fn pairwise_pool_reports_are_pinned_for_every_paper_technique() {
    let checker = ModChecker::with_config(CheckConfig {
        mode: ScanMode::Sequential,
        compare: CompareStrategy::Pairwise,
        ..CheckConfig::default()
    });
    for technique in Technique::ALL {
        let target = technique.infection().target_module().to_string();
        let (bed, _) = Testbed::infected_cloud(5, technique, &[1]).expect("infected cloud builds");
        let report = checker
            .check_pool(&bed.hv, &bed.vm_ids, &target)
            .expect("pool check");
        assert!(
            report.any_discrepancy(),
            "{technique}: the infection must be visible to the vote"
        );
        check_golden(
            &format!("pairwise_{}.json", slug(technique)),
            &render(&report),
        );
    }
}
