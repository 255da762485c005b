//! Shared command-line helpers for the `pobp` binary and the bench
//! harnesses: `--name value` flag extraction and number/list parsing with
//! errors that name the offending flag and echo the raw value.
//!
//! These used to live inline in `src/bin/pobp.rs`; they are a module of
//! `pobp-core` so the `pobp` subcommands, the `experiments` binary, and the
//! `pobp-serve` daemon/client share one implementation instead of each
//! growing its own. The facade crate re-exports this module as `pobp::cli`.

/// Returns the value following `--name`, if present: `flag(args, "--k")`
/// on `["--k", "2"]` is `Some("2")`.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether the boolean flag `--name` is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Like [`flag`], but a flag that is present **must** carry a value: `Err`
/// when `--name` is the last argument or is followed by another `--flag`.
/// Use this for flags where silently ignoring a missing value would look
/// like success (e.g. `--obs-out`, `--trace`).
pub fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("{name} needs a value (e.g. `{name} FILE`)")),
        },
    }
}

/// Parses the value of `--name` as a `T`, falling back to `default` when
/// the flag is absent. A malformed value reports the flag name **and** the
/// raw text: `invalid value for --n: invalid digit found in string (got
/// "ten")`.
pub fn parse_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag(args, name) {
        Some(v) => parse_as(&v, name),
        None => Ok(default),
    }
}

/// Like [`parse_num`], but a flag that is present **must** carry a value
/// (the [`flag_value`] contract): `--workers` as a trailing flag is a loud
/// error instead of a silent fall-back to the default. Use this wherever a
/// swallowed flag would change long-running behaviour — the `pobp serve`
/// daemon and `pobp-client` parse every numeric flag through this.
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
/// a list, falling back to `default` when the flag is absent. Empty items
/// (trailing commas) are rejected with the same flag-naming error shape as
/// [`parse_num`].
pub fn parse_num_list<T>(
    args: &[String],
    name: &str,
    default: &[T],
) -> Result<Vec<T>, String>
where
    T: std::str::FromStr + Clone,
    T::Err: std::fmt::Display,
{
    match flag(args, name) {
        Some(v) => v.split(',').map(|item| parse_as(item.trim(), name)).collect(),
        None => Ok(default.to_vec()),
    }
}

/// Like [`parse_num_list`], but a flag that is present **must** carry a
/// value (the [`flag_value`] contract): `pobp sweep --n` with nothing after
/// it is a loud error, not a silent fall-back to the default grid.
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
        assert_eq!(flag(&a, "--n").as_deref(), Some("12"));
        assert_eq!(flag(&a, "--k"), None);
        assert!(has_flag(&a, "--gantt"));
        assert!(!has_flag(&a, "--svg"));
        assert_eq!(parse_num(&a, "--n", 0u32), Ok(12));
        assert_eq!(parse_num(&a, "--k", 7u32), Ok(7));
    }

    #[test]
    fn parse_errors_name_the_flag_and_echo_the_value() {
        let a = args(&["--n", "ten"]);
        let err = parse_num(&a, "--n", 0u32).unwrap_err();
        assert!(err.contains("--n"), "{err}");
        assert!(err.contains("\"ten\""), "{err}");
        let err = parse_num_list(&a, "--n", &[0u32]).unwrap_err();
        assert!(err.contains("--n") && err.contains("\"ten\""), "{err}");
    }

    #[test]
    fn strict_parse_rejects_a_trailing_flag() {
        let a = args(&["--workers", "4", "--queue-cap"]);
        assert_eq!(parse_num_strict(&a, "--workers", 1u32), Ok(4));
        assert_eq!(parse_num_strict(&a, "--threads", 9u32), Ok(9));
        // The lenient helper silently defaults here; the strict one names
        // the flag instead.
        assert_eq!(parse_num(&a, "--queue-cap", 64u32), Ok(64));
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
    fn lists_parse_and_trim() {
        let a = args(&["--k", "1, 2,4"]);
        assert_eq!(parse_num_list(&a, "--k", &[9u32]), Ok(vec![1, 2, 4]));
        assert_eq!(parse_num_list(&a, "--n", &[9u32]), Ok(vec![9]));
        let bad = args(&["--k", "1,,2"]);
        assert!(parse_num_list(&bad, "--k", &[0u32]).is_err());
    }

    #[test]
    fn strict_list_rejects_a_trailing_flag() {
        let a = args(&["--n", "10,20", "--k"]);
        assert_eq!(parse_num_list_strict(&a, "--n", &[9u32]), Ok(vec![10, 20]));
        assert_eq!(parse_num_list_strict(&a, "--seeds", &[9u32]), Ok(vec![9]));
        // `--k` trails with no value: lenient defaults, strict errors.
        assert_eq!(parse_num_list(&a, "--k", &[1u32]), Ok(vec![1]));
        let err = parse_num_list_strict(&a, "--k", &[1u32]).unwrap_err();
        assert!(err.contains("--k"), "{err}");
    }
}
