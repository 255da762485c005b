//! Shared command-line helpers for the `pobp` binary and the bench
//! harnesses: `--name value` flag extraction and number/list parsing with
//! errors that name the offending flag and echo the raw value. A value flag
//! that is present must carry a value: a trailing `--out`, or one followed
//! by another `--flag`, is a loud error, never a silent default.
//!
//! These used to live inline in `src/bin/pobp.rs`; they are a module of
//! `pobp-core` so the `pobp` subcommands, the `experiments` binary, and the
//! `pobp-serve` daemon/client share one implementation instead of each
//! growing its own. The facade crate re-exports this module as `pobp::cli`.

/// Whether the boolean flag `--name` is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Refuses every argument a command would not read, before it does any
/// work, so a mistyped or doubled flag is an error instead of a silently
/// kept default: a `--flag` in neither `values` (flags that take a value)
/// nor `switches` (`unknown flag --thread`), a flag given twice (`repeated
/// flag --n`), and any other argument that is not the value of the flag
/// before it (`unexpected argument "stray"`). A binary that honours the
/// `--obs` switch and the `--obs-out` value flag lists them like any other
/// flag; one that does not refuses them as unknown.
pub fn only_flags(args: &[String], values: &[&str], switches: &[&str]) -> Result<(), String> {
    match positionals(args, values, switches)?.first() {
        Some(stray) => Err(format!("unexpected argument {stray:?}")),
        None => Ok(()),
    }
}

/// The arguments that are neither flags nor flag values, in order, for a
/// command that takes positional arguments (the `experiments` selectors).
/// Unknown and repeated flags are refused as in [`only_flags`].
pub fn positionals<'a>(
    args: &'a [String],
    values: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, String> {
    let (mut seen, mut out) = (Vec::new(), Vec::new());
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            out.push(arg);
            continue;
        }
        let takes_value = values.contains(&arg);
        if !takes_value && !switches.contains(&arg) {
            return Err(format!("unknown flag {arg}"));
        }
        if seen.contains(&arg) {
            return Err(format!("repeated flag {arg}"));
        }
        seen.push(arg);
        // A missing value is left for `flag_value` to refuse by name.
        if takes_value && rest.clone().next().is_some_and(|v| !v.starts_with("--")) {
            rest.next();
        }
    }
    Ok(out)
}

/// Returns the value following `--name`, if present: `flag_value(args,
/// "--k")` on `["--k", "2"]` is `Ok(Some("2"))`. A flag that is present
/// **must** carry a value: `Err` when `--name` is the last argument or is
/// followed by another `--flag`.
pub fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("{name} needs a value")),
        },
    }
}

/// Parses the value of `--name` as a `T`, falling back to `default` when
/// the flag is absent. A flag that is present **must** carry a value (the
/// [`flag_value`] contract), and a malformed value reports the flag name
/// **and** the raw text: `invalid value for --n: invalid digit found in
/// string (got "ten")`.
pub fn parse_num_strict<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, name)? {
        Some(v) => parse_as(&v, name),
        None => Ok(default),
    }
}

/// Parses the comma-separated value of `--name` (e.g. `--n 10,20,40`) into
/// a list, falling back to `default` when the flag is absent. A flag that
/// is present **must** carry a value (the [`flag_value`] contract), and
/// empty items (trailing commas) are rejected with the same flag-naming
/// error shape as [`parse_num_strict`].
pub fn parse_num_list_strict<T>(
    args: &[String],
    name: &str,
    default: &[T],
) -> Result<Vec<T>, String>
where
    T: std::str::FromStr + Clone,
    T::Err: std::fmt::Display,
{
    match flag_value(args, name)? {
        Some(v) => v.split(',').map(|item| parse_as(item.trim(), name)).collect(),
        None => Ok(default.to_vec()),
    }
}

/// The single place a raw flag value is parsed — every error produced by
/// this module names the flag and echoes the exact text it choked on.
fn parse_as<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| format!("invalid value for {name}: {e} (got {raw:?})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_and_defaults() {
        let a = args(&["--n", "12", "--gantt"]);
        assert_eq!(flag_value(&a, "--n"), Ok(Some("12".into())));
        assert_eq!(flag_value(&a, "--k"), Ok(None));
        assert!(has_flag(&a, "--gantt"));
        assert!(!has_flag(&a, "--svg"));
        assert_eq!(parse_num_strict(&a, "--n", 0u32), Ok(12));
        assert_eq!(parse_num_strict(&a, "--k", 7u32), Ok(7));
    }

    #[test]
    fn parse_errors_name_the_flag_and_echo_the_value() {
        let a = args(&["--n", "ten"]);
        let err = parse_num_strict(&a, "--n", 0u32).unwrap_err();
        assert!(err.contains("--n"), "{err}");
        assert!(err.contains("\"ten\""), "{err}");
        let err = parse_num_list_strict(&a, "--n", &[0u32]).unwrap_err();
        assert!(err.contains("--n") && err.contains("\"ten\""), "{err}");
    }

    #[test]
    fn strict_parse_rejects_a_trailing_flag() {
        let a = args(&["--workers", "4", "--queue-cap"]);
        assert_eq!(parse_num_strict(&a, "--workers", 1u32), Ok(4));
        assert_eq!(parse_num_strict(&a, "--threads", 9u32), Ok(9));
        let err = parse_num_strict(&a, "--queue-cap", 64u32).unwrap_err();
        assert!(err.contains("--queue-cap"), "{err}");
        let bad = args(&["--workers", "ten"]);
        let err = parse_num_strict(&bad, "--workers", 1u32).unwrap_err();
        assert!(err.contains("--workers") && err.contains("\"ten\""), "{err}");
    }

    #[test]
    fn flag_value_demands_a_value() {
        let a = args(&["--obs-out", "report.json", "--trace"]);
        assert_eq!(flag_value(&a, "--obs-out"), Ok(Some("report.json".into())));
        assert_eq!(flag_value(&a, "--svg"), Ok(None));
        // Trailing flag with no value.
        let err = flag_value(&a, "--trace").unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        // Flag followed by another flag: the "value" is not a value.
        let b = args(&["--obs-out", "--obs"]);
        let err = flag_value(&b, "--obs-out").unwrap_err();
        assert!(err.contains("--obs-out"), "{err}");
    }

    #[test]
    fn only_known_flags_pass() {
        let a = args(&["--n", "12", "--gantt", "--obs", "--obs-out", "r.json", "--delta", "-3"]);
        let values = ["--n", "--delta", "--obs-out"];
        assert_eq!(only_flags(&a, &values, &["--gantt", "--obs"]), Ok(()));
        // `--obs`/`--obs-out` are flags like any other: unlisted, unknown.
        let err = only_flags(&a, &values, &["--gantt"]);
        assert_eq!(err, Err("unknown flag --obs".into()));
        let err = only_flags(&a, &["--n", "--delta"], &["--gantt", "--obs"]);
        assert_eq!(err, Err("unknown flag --obs-out".into()));
        let err = only_flags(&args(&["--n", "8", "--thread", "4"]), &["--n", "--threads"], &[]);
        assert_eq!(err, Err("unknown flag --thread".into()));
        // A value flag missing its value is `flag_value`'s error, not this one.
        assert_eq!(only_flags(&args(&["--n", "--gantt"]), &["--n"], &["--gantt"]), Ok(()));
    }

    #[test]
    fn repeated_flags_and_stray_arguments_are_refused() {
        let n = &["--n", "--k"][..];
        let err = only_flags(&args(&["--n", "8", "--k", "0", "--n", "12"]), n, &[]);
        assert_eq!(err, Err("repeated flag --n".into()));
        let err = only_flags(&args(&["--gantt", "--gantt"]), n, &["--gantt"]);
        assert_eq!(err, Err("repeated flag --gantt".into()));
        let err = only_flags(&args(&["--obs", "--obs"]), n, &["--obs"]);
        assert_eq!(err, Err("repeated flag --obs".into()));
        let err = only_flags(&args(&["--n", "8", "stray"]), n, &[]);
        assert_eq!(err, Err("unexpected argument \"stray\"".into()));
        // A switch takes no value: what follows it is an argument of its own.
        let err = only_flags(&args(&["--gantt", "8"]), n, &["--gantt"]);
        assert_eq!(err, Err("unexpected argument \"8\"".into()));
        // Positional arguments, for the commands that take them.
        let a = args(&["e1", "--threads", "2", "-h", "--obs-out", "r.json", "e4"]);
        let values = ["--threads", "--obs-out"];
        assert_eq!(positionals(&a, &values, &[]), Ok(vec!["e1", "-h", "e4"]));
        let twice = args(&["e1", "--threads", "1", "--threads", "2"]);
        assert_eq!(positionals(&twice, &["--threads"], &[]), Err("repeated flag --threads".into()));
    }

    #[test]
    fn lists_parse_and_trim() {
        let a = args(&["--k", "1, 2,4"]);
        assert_eq!(parse_num_list_strict(&a, "--k", &[9u32]), Ok(vec![1, 2, 4]));
        assert_eq!(parse_num_list_strict(&a, "--n", &[9u32]), Ok(vec![9]));
        let bad = args(&["--k", "1,,2"]);
        assert!(parse_num_list_strict(&bad, "--k", &[0u32]).is_err());
    }

    #[test]
    fn strict_list_rejects_a_trailing_flag() {
        let a = args(&["--n", "10,20", "--k"]);
        assert_eq!(parse_num_list_strict(&a, "--n", &[9u32]), Ok(vec![10, 20]));
        assert_eq!(parse_num_list_strict(&a, "--seeds", &[9u32]), Ok(vec![9]));
        // `--k` trails with no value.
        let err = parse_num_list_strict(&a, "--k", &[1u32]).unwrap_err();
        assert!(err.contains("--k"), "{err}");
    }
}
