//! End-to-end tests of the command-line tools, driving the real binaries.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ulp-tools-test-{}-{name}", std::process::id()));
    p
}

const DEMO: &str = "
# triangular number of r3's initial value
    addi r1, r0, 100
    addi r3, r0, 0
top:
    add  r3, r3, r1
    addi r1, r1, -1
    bne  r1, r0, top
    halt
";

#[test]
fn asm_dis_run_pipeline() {
    let src = tmp("demo.s");
    let img = tmp("demo.uir");
    fs::write(&src, DEMO).unwrap();

    // Assemble.
    let out = Command::new(env!("CARGO_BIN_EXE_uir-asm"))
        .arg(&src)
        .args(["--output", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "uir-asm failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(img.exists());

    // Disassemble: the listing must contain the loop body.
    let out = Command::new(env!("CARGO_BIN_EXE_uir-dis"))
        .arg(&img)
        .output()
        .unwrap();
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("add r3, r3, r1"), "listing:\n{listing}");
    assert!(!listing.contains("bne r1, r1"));

    // Run on each model and check the architected result via --dump.
    for model in ["baseline", "m3", "m4", "or10n"] {
        let out = Command::new(env!("CARGO_BIN_EXE_uir-run"))
            .arg(&img)
            .args(["--model", model, "--dump", "r3"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{model}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("(5050)"), "{model} output:\n{stdout}");
    }

    let _ = fs::remove_file(src);
    let _ = fs::remove_file(img);
}

#[test]
fn run_accepts_assembly_source_directly_with_trace() {
    let src = tmp("direct.s");
    fs::write(&src, "addi r5, r0, 7\nslli r5, r5, 2\nhalt\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_uir-run"))
        .arg(&src)
        .args(["--model", "or10n", "--trace", "10", "--dump", "r5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(28)"), "{stdout}");
    assert!(
        stdout.contains("slli r5, r5, 2"),
        "trace missing:\n{stdout}"
    );
    let _ = fs::remove_file(src);
}

#[test]
fn run_on_cluster_reports_activity() {
    let src = tmp("cluster.s");
    // Every core stores its id+40 into TCDM, master raises EOC.
    fs::write(
        &src,
        "
    csrr r1, CoreId
    slli r2, r1, 2
    lui  r3, 0x4000
    add  r3, r3, r2
    addi r4, r1, 40
    sw   r4, 0(r3)
    beq  r1, r0, eoc
    halt
eoc:
    sev 0
    halt
",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_uir-run"))
        .arg(&src)
        .args(["--cluster", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cluster: 4 cores"), "{stdout}");
    assert!(stdout.contains("end-of-computation"), "{stdout}");
    let _ = fs::remove_file(src);
}

#[test]
fn het_sim_smoke() {
    let out = Command::new(env!("CARGO_BIN_EXE_het-sim"))
        .args([
            "--benchmark",
            "svm-linear",
            "--mcu-mhz",
            "16",
            "--iterations",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("svm (linear)"));
    assert!(stdout.contains("speedup"));
    assert!(stdout.contains("compute-phase platform power"));
}

#[test]
fn het_sim_engine_flag_selects_and_validates() {
    for engine in ["reference", "epoch"] {
        let out = Command::new(env!("CARGO_BIN_EXE_het-sim"))
            .args([
                "--benchmark",
                "svm-linear",
                "--iterations",
                "2",
                "--perf",
                "--engine",
                engine,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--engine {engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("simulator perf ({engine} engine)")),
            "--engine {engine} not reflected in --perf:\n{stdout}"
        );
    }

    // Unknown names — `turbo` and `microop` included, which are not
    // engines — are rejected with the bad value and every valid engine.
    for bad in ["warp", "turbo", "microop"] {
        let out = Command::new(env!("CARGO_BIN_EXE_het-sim"))
            .args(["--benchmark", "svm-linear", "--engine", bad])
            .output()
            .unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{bad}` is not a known engine")),
            "missing contextful rejection:\n{stderr}"
        );
        assert!(
            stderr.contains("valid engines, all bit-identical: reference, epoch)"),
            "error must list every valid engine:\n{stderr}"
        );
    }
}

#[test]
fn het_sim_unwritable_trace_path_fails_fast_with_context() {
    // The parent directory does not exist, so the trace can never be
    // written; het-sim must report that up front (before simulating) with
    // the path and the OS cause, not panic or waste a run.
    let path = tmp("no-such-dir").join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_het-sim"))
        .args([
            "--benchmark",
            "svm-linear",
            "--iterations",
            "2",
            "--trace",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write") && stderr.contains(path.to_str().unwrap()),
        "stderr must name the path and cause:\n{stderr}"
    );
    assert!(
        stderr.contains("nothing was run"),
        "error must say the check ran up front:\n{stderr}"
    );
    // Fast failure: the offload report header is never printed.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("offload ("),
        "simulation must not have run:\n{stdout}"
    );
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown benchmark.
    let out = Command::new(env!("CARGO_BIN_EXE_het-sim"))
        .args(["--benchmark", "quicksort"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));

    // A trace ring of zero events: a typed error naming the flag (exit 1),
    // in the offload and the serving mode alike, not a panic (exit 101).
    for mode in [&["--counters"][..], &["--serve", "--counters"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_het-sim"))
            .args(["--benchmark", "matmul", "--trace-cap", "0"])
            .args(mode)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{mode:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--trace-cap"),
            "{mode:?}"
        );
    }

    // Clock flags the platform parser would reject for their keys, fault
    // rates that are no probability, and retry budgets past
    // `OffloadPolicy::MAX_RETRIES`: a typed error naming the first flag
    // (exit 1), not a panic (101), an `inf` / `NaN` report, a fault-free
    // or clamped run (0), or a spin through 2^32 retries.
    for probe in [
        &["--mcu-mhz", "0"][..],
        &["--mcu-mhz", "100"],
        &["--link-clock", "0"],
        &["--boost-mhz", "0"],
        &["--link-clock", "nan"],
        &["--ber", "-1"],
        &["--drop-rate", "nan"],
        &["--late-eoc-rate", "-0.5"],
        &["--ber", "2"],
        &["--hang-rate", "1.5"],
        &["--truncate-rate", "inf"],
        &["--max-retries", "65"],
        &[
            "--max-retries",
            "4294967295",
            "--stuck-eoc",
            "--no-fallback",
        ],
        &[
            "--max-retries",
            "4294967295",
            "--drop-rate",
            "1",
            "--no-fallback",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_het-sim"))
            .args(["--benchmark", "matmul", "--iterations", "2"])
            .args(probe)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{probe:?}: {stderr}");
        assert!(stderr.contains(probe[0]), "{probe:?}: {stderr}");
    }

    // A replayed trace naming the largest tenant id: the error names the
    // tenant without computing past it.
    let trace = tmp("tenant.json");
    fs::write(
        &trace,
        "{\"schema\":\"ulp-serve-trace-v1\",\"count\":1}\n\
         {\"id\":0,\"tenant\":18446744073709551615,\"kernel\":0,\"kernel_name\":\"matmul\",\
         \"class\":0,\"arrival_ns\":0,\"iterations\":1}\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_het-sim"))
        .args(["--fleet", "--benchmark", "matmul", "--replay-trace"])
        .arg(&trace)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("tenant 18446744073709551615"), "{stderr}");
    let _ = fs::remove_file(trace);

    // Syntax error with the line number.
    let src = tmp("bad.s");
    fs::write(&src, "nop\nfrobnicate r1\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_uir-asm"))
        .arg(&src)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    let _ = fs::remove_file(src);
}
