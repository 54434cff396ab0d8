//! The workload facts the traced run must confirm, asserted on the real
//! workloads. Run with `--release`: the sweep grid is slow unoptimized.

use std::path::Path;

use perfbench::digest::Pins;
use perfbench::serve_mix::{self, MixSize};
use perfbench::trace::Tracer;
use perfbench::{run_workload, single, sweep};

fn assert_clean(out: &perfbench::outcome::Outcome) {
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{:?}", out.failures);
}

#[test]
fn sweep_mesh16_uses_route_tables_and_skips_saturated_cells() {
    let (out, tracer) = run_workload(sweep::NAME, 3, 1.0, true).unwrap();
    assert_clean(&out);
    assert!(out.get("lut.tables").unwrap() >= 4.0);
    assert!(out.get("exec.cells_skipped").unwrap() > 0.0);
    assert!(out.get("vc.cells").unwrap() > 0.0);
    assert!(tracer
        .unwrap()
        .spans()
        .iter()
        .any(|s| s.name == "lut.build"));
}

#[test]
fn single_mesh64_routes_live_without_a_table() {
    let (out, _) = run_workload(single::NAME, 3, 1.0, true).unwrap();
    assert_clean(&out);
    assert_eq!(out.get("lut.tables"), Some(0.0));
    assert!(out.get("core.route_calls").unwrap() > 0.0);
    assert!(out.get("engine.packets_retained").unwrap() > 0.0);
    assert_eq!(out.get("exec.cells_simulated"), Some(0.0));
}

#[test]
fn serve_mix_hits_the_store_and_coalesces() {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_mix");
    let size = MixSize {
        cold: 30,
        warm: 150,
        dup: 0.6,
    };
    let tracer = Tracer::new();
    let out = serve_mix::run_traced_in(&work, 5, 4.0, size, &Pins::embedded(), &tracer);
    assert_clean(&out);
    assert!(out.get("store.hits").unwrap() > 0.0);
    assert!(out.get("serve.coalesced").unwrap() > 0.0);
    // Every request's spans share its job id.
    let spans = tracer.spans();
    let request = spans.iter().find(|s| s.name == "serve.request").unwrap();
    assert!(spans
        .iter()
        .any(|s| s.parent == Some(request.id) && s.group == request.group));
}

#[test]
fn untraced_serve_mix_checks_every_report() {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_mix_untraced");
    let size = MixSize {
        cold: 20,
        warm: 60,
        dup: 0.3,
    };
    let out = serve_mix::run_in(&work, 9, 3.0, size, &Pins::embedded());
    assert_clean(&out);
    // Every request was checked against its pin (the set-up servers
    // account for no operations when they start and stop cleanly).
    assert!(out.attempted >= 80);
    // A pin table without these specs fails every request.
    let out = serve_mix::run_in(&work, 9, 3.0, size, &Pins::default());
    assert!(out.failed >= 80);
}
