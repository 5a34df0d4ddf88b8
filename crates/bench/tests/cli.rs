//! `reproduce` command-line hygiene: a bad invocation, including a flag
//! that would be silently ignored, must fail with status 2 before it
//! measures or writes anything. A figure run overwrites
//! `BENCH_reproduce.json` in the working directory, so an ignored typo
//! used to clobber the committed artifact with an empty figure list.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn bad_invocations_are_rejected_before_writing() {
    for (name, args) in [
        ("sim_threads", &["--quick", "--sim-threads", "2"][..]),
        ("unknown_flag", &["--quick", "--no-such-flag"][..]),
        ("figure_id", &["--quick", "nosuchfig"][..]),
        (
            "obs_transport",
            &[
                "--quick",
                "--scaleout",
                "--transport",
                "all",
                "--fleet-obs",
                "o",
            ][..],
        ),
        ("obs_alone", &["--quick", "--fleet-obs", "o"][..]),
        ("ring_alone", &["--quick", "--trace-ring", "64"][..]),
    ] {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let status = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn reproduce")
            .status;
        assert_eq!(status.code(), Some(2), "{args:?} must be a usage error");
        assert!(
            !dir.join("BENCH_reproduce.json").exists(),
            "{args:?} must not write BENCH_reproduce.json"
        );
    }
}
