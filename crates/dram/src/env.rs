//! The one reader of the process environment.
//!
//! Every `MOAT_*` variable goes through [`var`] or [`parsed`], so an
//! unset variable, a blank one and a value that is not valid Unicode
//! mean the same thing everywhere, and the `key=value,...` specs share
//! one tokenizer, [`pairs`], and one probability reader, [`rate`].

/// The value of `name`: `None` when it is unset.
///
/// # Errors
///
/// A value that is not valid Unicode is an error, never a silent unset.
pub fn var(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(value) => Ok(Some(value)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(format!("{name} is set but not valid Unicode"))
        }
    }
}

/// `name` read through `parse`: `None` when it is unset or blank.
///
/// # Errors
///
/// The [`var`] error, or `parse`'s error on a malformed value.
pub fn parsed<T>(
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match var(name)? {
        Some(value) if !value.trim().is_empty() => parse(&value).map(Some),
        _ => Ok(None),
    }
}

/// The `key=value` pairs of a comma-separated `spec`, in order: tokens
/// and their keys and values are trimmed, empty tokens are skipped, and
/// `-` in a key reads as `_`. `what` names the spec in the error of a
/// token without `=`.
pub fn pairs<'a>(
    spec: &'a str,
    what: &'a str,
) -> impl Iterator<Item = Result<(String, &'a str), String>> + 'a {
    spec.split(',')
        .map(str::trim)
        .filter(|token| !token.is_empty())
        .map(move |token| {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("{what} token `{token}` is not key=value"))?;
            Ok((key.trim().replace('-', "_"), value.trim()))
        })
}

/// `value` as a probability in `[0, 1]` (so never `NaN` or infinite).
/// `what` and `key` name the rate in the error of any other value, e.g.
/// ``fault rate `seu=2` outside [0, 1]``.
pub fn rate(what: &str, key: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(rate),
        Ok(_) => Err(format!("{what} rate `{key}={value}` outside [0, 1]")),
        Err(e) => Err(format!("{what} rate `{key}={value}`: {e}")),
    }
}

/// The names of the set variables that start with `prefix` and are not
/// in `known`, sorted.
pub fn unknown(prefix: &str, known: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .map(|(name, _)| name.to_string_lossy().into_owned())
        .filter(|name| name.starts_with(prefix) && !known.contains(&name.as_str()))
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_trim_skip_empty_tokens_and_normalize_keys() {
        let got: Result<Vec<_>, _> = pairs(" seed = 7 ,, drop-rfm=1e-4, ", "fault spec").collect();
        assert_eq!(
            got.unwrap(),
            vec![("seed".to_string(), "7"), ("drop_rfm".to_string(), "1e-4")]
        );
        let mut it = pairs("seed=7, seu ,stuck", "fault spec");
        assert!(it.next().unwrap().is_ok(), "tokens before the bad one pass");
        assert_eq!(
            it.next().unwrap(),
            Err("fault spec token `seu` is not key=value".to_string())
        );
        assert_eq!(pairs("  ", "fault spec").count(), 0);
    }

    #[test]
    fn rate_accepts_unit_interval_only() {
        for (value, want) in [("0", 0.0), ("1", 1.0), ("1e-4", 1e-4)] {
            assert_eq!(rate("fault", "seu", value), Ok(want), "{value}");
        }
        for value in ["NaN", "inf", "-0.1", "1.5"] {
            assert_eq!(
                rate("fault", "seu", value),
                Err(format!("fault rate `seu={value}` outside [0, 1]")),
            );
        }
        assert_eq!(
            rate("fleet fault", "crash", "x"),
            Err("fleet fault rate `crash=x`: invalid float literal".to_string())
        );
    }
}
