//! The `experiments` and `sweep` binaries refuse what they do not know:
//! `experiments --help` prints the usage and runs nothing, and an unknown
//! selector or flag is an error that names it, before any experiment or
//! series runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().unwrap()
}

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep")).args(args).output().unwrap()
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    for flag in ["--help", "-h"] {
        let out = experiments(&[flag]);
        assert!(out.status.success(), "{flag}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("USAGE"), "{flag}: {text}");
        assert!(text.contains("e13") && text.contains("all"), "{flag} lists the selectors: {text}");
        assert!(!text.contains("################"), "{flag} must run nothing: {text}");
    }
}

#[test]
fn unknown_selectors_and_flags_are_errors_that_run_nothing() {
    for (args, named) in [
        (&["e99"][..], "\"e99\""),
        (&["e1", "e99"][..], "\"e99\""),
        (&["e1", "--bogus"][..], "unknown flag --bogus"),
        (&["--thread", "2"][..], "unknown flag --thread"),
    ] {
        let out = experiments(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?} must name {named}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
    }
    // The selector error lists what would have been accepted.
    let err = String::from_utf8_lossy(&experiments(&["e99"]).stderr).into_owned();
    assert!(err.contains("e1, e2") && err.contains("e13 or all"), "{err}");
}

#[test]
fn sweep_refuses_unknown_selectors_and_flags_before_any_series() {
    for (args, named) in [
        (&["--markdwn", "kbas-loss"][..], "unknown flag --markdwn"),
        (&["kbas-loss", "bogus"][..], "unknown sweep \"bogus\""),
        (&["all", "--markdown", "--markdown"][..], "repeated flag --markdown"),
    ] {
        let out = sweep(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?} must name {named}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
    }
    let err = String::from_utf8_lossy(&sweep(&["bogus"]).stderr).into_owned();
    assert!(err.contains("kbas-loss, fig4-price") && err.contains("choose-k or all"), "{err}");
}

/// Every named series runs, in table order, each under its `# name` line.
#[test]
fn sweep_runs_every_named_series() {
    let text = |out: Output| {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let (fig4, switch) = (text(sweep(&["fig4-price"])), text(sweep(&["switch-cost"])));
    let both = text(sweep(&["switch-cost", "fig4-price"]));
    assert_eq!(both, format!("# fig4-price\n{fig4}# switch-cost\n{switch}"));
}
