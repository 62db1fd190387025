//! `paper` rejects a bad command line with exit code 2 and its usage line,
//! before it generates any dataset.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_usage() {
    let cases: [&[&str]; 5] = [
        &["fig8", "--scale", "abc"],
        &["fig8", "--wat"],
        &["fig99"],
        &["fig8", "--methods", "hd-index,no-such"],
        &[],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: paper <experiment>"), "{args:?}: {err}");
        assert!(
            err.contains("table3") && err.contains("disk-linear-scan"),
            "{args:?}: {err}"
        );
    }
}
