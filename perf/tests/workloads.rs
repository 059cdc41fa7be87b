//! Every workload at test size: its checks pass, and a traced pass reaches
//! exactly the simulated outcomes of an untraced one.

use san_perf::{tenants, Params, Workload};

fn traced_matches_untraced(w: Workload) {
    let p = Params {
        seed: 1,
        tiny: true,
    };
    let plain = w.pass(&p, false);
    let traced = w.pass(&p, true);
    for pass in [&plain, &traced] {
        assert!(pass.attempted > 0, "{}: no units ran", w.name());
        assert!(
            pass.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            pass.failures
        );
        assert_eq!(pass.unit_s.len() as u64, pass.attempted);
        assert!(!pass.setup_s.is_empty() && pass.setup_s.iter().all(|&s| s > 0.0));
    }
    assert_eq!(
        plain.digest,
        traced.digest,
        "{}: tracing changed the simulated outcome",
        w.name()
    );
}

#[test]
fn perm1024_traced_matches_untraced() {
    traced_matches_untraced(Workload::Perm1024);
}

#[test]
fn tenants_lossy_traced_matches_untraced() {
    traced_matches_untraced(Workload::TenantsLossy);
}

#[test]
fn chaos_faults_traced_matches_untraced() {
    traced_matches_untraced(Workload::ChaosFaults);
}

#[test]
fn mc_verify_traced_search_matches_checker() {
    traced_matches_untraced(Workload::McVerify);
}

#[test]
fn fig6_sweep_traced_matches_untraced() {
    traced_matches_untraced(Workload::Fig6Sweep);
}

#[test]
fn tenants_split_run_matches_library_run() {
    for seed in [1, 7] {
        let cfg = tenants::config(true, seed);
        assert_eq!(tenants::run_plain(&cfg), san_workload::run(&cfg));
    }
}

#[test]
fn different_seeds_give_different_tenant_inputs() {
    let digest = |seed| {
        Workload::TenantsLossy
            .pass(&Params { seed, tiny: true }, false)
            .digest
    };
    assert_eq!(digest(2), digest(2));
    assert_ne!(digest(1), digest(2));
}
