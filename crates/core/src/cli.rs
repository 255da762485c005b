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

/// Refuses every `--flag` in `args` that is not in `known`, before a
/// command does any work, so a mistyped flag is an error instead of a
/// silently kept default: `unknown flag --thread`. The global `--obs` and
/// `--obs-out` are always allowed.
pub fn only_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    let allowed = |a: &str| known.contains(&a) || a == "--obs" || a == "--obs-out";
    match args.iter().find(|a| a.starts_with("--") && !allowed(a)) {
        Some(flag) => Err(format!("unknown flag {flag}")),
        None => Ok(()),
    }
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

/// Reads a command's instrumentation flags `names` before it does any work.
/// A flag that is present must carry a value (the [`flag_value`]
/// contract), and a binary built without the `instrument` feature refuses
/// every one of them with the [`needs_instrument`] message.
pub fn instrument_flags<const N: usize>(
    args: &[String],
    names: [&str; N],
) -> Result<[Option<String>; N], String> {
    let mut values: [Option<String>; N] = std::array::from_fn(|_| None);
    let mut given = Vec::new();
    for (name, value) in names.into_iter().zip(&mut values) {
        *value = flag_value(args, name)?;
        if value.is_some() {
            given.push(name);
        }
    }
    if given.is_empty() || crate::obs::enabled() {
        Ok(values)
    } else {
        Err(needs_instrument(&given.join("/")))
    }
}

/// The one refusal every front end gives when asked for instrumentation
/// (`what` names the flags or command) in a binary built without the
/// `instrument` feature.
pub fn needs_instrument(what: &str) -> String {
    format!("{what} needs a binary built with --features instrument")
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
        let a = args(&["--n", "12", "--gantt", "--obs", "--obs-out", "r.json", "-3"]);
        assert_eq!(only_flags(&a, &["--n", "--gantt"]), Ok(()));
        let err = only_flags(&args(&["--n", "8", "--thread", "4"]), &["--n", "--threads"]);
        assert_eq!(err, Err("unknown flag --thread".into()));
        // Values are not flags; only `--` tokens are checked.
        assert_eq!(only_flags(&args(&["e1", "-h", "x"]), &[]), Ok(()));
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
