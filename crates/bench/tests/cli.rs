//! `reproduce` command-line hygiene: a bad invocation must fail before
//! it measures or writes anything. Every run overwrites
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
        assert!(!status.success(), "{args:?} must exit non-zero");
        assert!(
            !dir.join("BENCH_reproduce.json").exists(),
            "{args:?} must not write BENCH_reproduce.json"
        );
    }
}
