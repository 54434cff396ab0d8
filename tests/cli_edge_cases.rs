//! Degenerate-shape coverage for the CLI: 1×k line meshes, a
//! single-node network that generates zero packets, the 2-ary
//! torus-vs-hypercube equivalence, and JSON sanity on a degenerate
//! sweep. None of these may panic.

use std::process::{Command, Output};

use turnroute::topology::{Direction, Hypercube, Mesh, Topology};

mod support;
use support::json;

fn turnroute(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_turnroute"))
        .args(args)
        .output()
        .expect("spawn turnroute")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn vc_algorithms_on_the_wrong_topology_exit_2_without_panicking() {
    for (topology, algorithm, needs) in [
        ("torus:8,2", "mad-y", "requires a 2D mesh"),
        ("mesh:8x8", "dateline", "requires a torus"),
    ] {
        let out = turnroute(&[
            "sweep",
            "--engine",
            "vc",
            "--algorithms",
            algorithm,
            "--topology",
            topology,
            "--pattern",
            "uniform",
            "--loads",
            "0.02",
            "--cycles",
            "200",
        ]);
        let err = stderr(&out);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{algorithm} on {topology}: {err}"
        );
        assert!(err.starts_with("error:"), "{err}");
        assert!(err.contains(needs), "{algorithm} on {topology}: {err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn one_by_k_mesh_simulates_as_a_line() {
    let out = turnroute(&[
        "simulate",
        "--topology",
        "mesh:1x4",
        "--algorithm",
        "xy",
        "--pattern",
        "uniform",
        "--load",
        "0.05",
        "--cycles",
        "2000",
        "--seed",
        "7",
    ]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("delivered"), "{text}");
    assert!(!text.contains("DEADLOCK"), "{text}");
}

#[test]
fn single_node_mesh_simulates_with_zero_packets() {
    // One node, so uniform traffic has no destination: the run must
    // complete with nothing delivered and nothing strange printed.
    let out = turnroute(&[
        "simulate",
        "--topology",
        "mesh:1x1",
        "--algorithm",
        "xy",
        "--pattern",
        "uniform",
        "--load",
        "0.2",
        "--cycles",
        "500",
    ]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("(0 messages)"), "{text}");
    assert!(!text.contains("DEADLOCK"), "{text}");
}

#[test]
fn degenerate_sweep_emits_sane_json() {
    let out = turnroute(&[
        "sweep",
        "--topology",
        "mesh:1x4",
        "--algorithms",
        "xy,negative-first",
        "--pattern",
        "uniform",
        "--loads",
        "0.02,0.05",
        "--format",
        "json",
        "--cycles",
        "1000",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let doc = json::parse(&stdout(&out)).expect("sweep --format json must emit valid JSON");
    let series = doc
        .get("series")
        .and_then(|v| v.as_arr())
        .expect("top-level 'series' array");
    assert_eq!(series.len(), 2, "one series per algorithm");
    for s in series {
        let points = s.get("points").and_then(|v| v.as_arr()).expect("points");
        assert_eq!(points.len(), 2, "one point per load");
        for p in points {
            let load = p
                .get("offered_load")
                .and_then(|v| v.as_num())
                .expect("offered_load");
            assert!(load > 0.0 && load < 1.0);
            // Delivered throughput must be a finite non-negative number.
            let thr = p
                .get("throughput_flits_per_usec")
                .and_then(|v| v.as_num())
                .expect("throughput");
            assert!(thr.is_finite() && thr >= 0.0);
        }
    }
}

#[test]
fn two_ary_torus_is_rejected_toward_hypercube() {
    let out = turnroute(&[
        "simulate",
        "--topology",
        "torus:2,2",
        "--algorithm",
        "negative-first-torus",
        "--pattern",
        "uniform",
        "--load",
        "0.05",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("hypercube"),
        "rejection should point at the hypercube: {}",
        stderr(&out)
    );
}

#[test]
fn two_ary_n_cube_is_the_hypercube() {
    // The CLI redirects torus:2,n to hypercube:n. Verify the claim that
    // redirect rests on: a radix-2 cube (wrap links coincide with the
    // direct links, so a [2; n] mesh) is node-for-node, channel-for-
    // channel the binary hypercube.
    for n in 1..=4 {
        let cube = Hypercube::new(n);
        let two_cube = Mesh::new(vec![2; n]);
        assert_eq!(two_cube.num_nodes(), cube.num_nodes());
        assert_eq!(two_cube.num_channels(), cube.num_channels());
        for a in cube.nodes() {
            for dir in Direction::all(n) {
                assert_eq!(
                    two_cube.neighbor(a, dir),
                    cube.neighbor(a, dir),
                    "n={n} node={a:?} dir={dir}"
                );
            }
            for b in cube.nodes() {
                assert_eq!(
                    two_cube.distance(a, b),
                    cube.distance(a, b),
                    "n={n} {a:?}->{b:?}"
                );
                assert_eq!(
                    two_cube.minimal_directions(a, b),
                    cube.minimal_directions(a, b),
                    "n={n} {a:?}->{b:?}"
                );
            }
        }
    }
}
