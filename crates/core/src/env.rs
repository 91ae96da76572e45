//! The one place the `LEGOBASE_*` engine overrides are parsed.
//!
//! CI runs the equivalence suites once per override; each moves settings in
//! one direction only, so an explicit ablation in a request is never
//! silently undone. A [`LegoBase`](crate::LegoBase) reads them once, when it
//! is constructed, and applies them by field read from then on.

use legobase_engine::Settings;

/// The `LEGOBASE_*` overrides a [`LegoBase`](crate::LegoBase) was
/// constructed under ([`LegoBase::env`](crate::LegoBase::env)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnvOverrides {
    /// `LEGOBASE_PARALLELISM=N` (N ≥ 1): the degree every *default-serial*
    /// request runs at. Requests that ask for a degree > 1 keep theirs.
    pub parallelism: Option<usize>,
    /// `LEGOBASE_OPTIMIZE` off: SQL runs as the naive lowered plans.
    pub optimize_off: bool,
    /// `LEGOBASE_ENCODING` off: every column stays plain.
    pub encoding_off: bool,
    /// `LEGOBASE_FEEDBACK` off: the adaptive-estimation loop learns nothing.
    pub feedback_off: bool,
    /// `LEGOBASE_MMAP` off: archives are read and decoded, never mapped.
    pub mmap_off: bool,
}

/// The overrides as the assignments that cause them, `none` when nothing
/// is overridden (what `EXPLAIN` prints).
impl std::fmt::Display for EnvOverrides {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut active = Vec::new();
        if let Some(n) = self.parallelism {
            active.push(format!("LEGOBASE_PARALLELISM={n}"));
        }
        let switches = [
            ("OPTIMIZE", self.optimize_off),
            ("ENCODING", self.encoding_off),
            ("FEEDBACK", self.feedback_off),
            ("MMAP", self.mmap_off),
        ];
        active.extend(switches.iter().filter(|s| s.1).map(|s| format!("LEGOBASE_{}=0", s.0)));
        if active.is_empty() {
            return f.write_str("none");
        }
        f.write_str(&active.join(" "))
    }
}

/// The off-values: `0`, `false` or `off`, surrounding whitespace ignored.
/// Anything else, an empty value included, overrides nothing.
fn is_off(value: &str) -> bool {
    matches!(value.trim(), "0" | "false" | "off")
}

fn off(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| is_off(&v))
}

impl EnvOverrides {
    /// Reads the five variables from the process environment.
    pub fn from_env() -> EnvOverrides {
        EnvOverrides {
            parallelism: std::env::var("LEGOBASE_PARALLELISM")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .filter(|&n| n >= 1),
            optimize_off: off("LEGOBASE_OPTIMIZE"),
            encoding_off: off("LEGOBASE_ENCODING"),
            feedback_off: off("LEGOBASE_FEEDBACK"),
            mmap_off: off("LEGOBASE_MMAP"),
        }
    }

    /// The settings a request runs under: its own, with the overrides on top.
    pub(crate) fn apply(&self, settings: &Settings) -> Settings {
        let mut s = *settings;
        if s.parallelism == 1 {
            s.parallelism = self.parallelism.unwrap_or(1);
        }
        s.optimize &= !self.optimize_off;
        s.encoding &= !self.encoding_off;
        s.feedback &= !self.feedback_off;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One spelling of "off" for all four switches: `LEGOBASE_MMAP="0 "`
    /// used to be ignored where `LEGOBASE_ENCODING="0 "` was honoured.
    #[test]
    fn off_values_ignore_surrounding_whitespace() {
        for v in ["0", "false", "off", "0 ", " off\n"] {
            assert!(is_off(v), "{v:?} must switch off");
        }
        for v in ["", "1", "true", "on", "no", "OFF", "00"] {
            assert!(!is_off(v), "{v:?} must override nothing");
        }
    }

    #[test]
    fn display_names_the_active_overrides() {
        assert_eq!(EnvOverrides::default().to_string(), "none");
        let some = EnvOverrides { parallelism: Some(4), mmap_off: true, ..Default::default() };
        assert_eq!(some.to_string(), "LEGOBASE_PARALLELISM=4 LEGOBASE_MMAP=0");
    }

    /// Overrides move settings one way: a default-serial request takes the
    /// degree, an off switch clears its flag, and nothing a request
    /// ablated or asked for explicitly is turned back.
    #[test]
    fn overrides_never_undo_a_request() {
        let none = EnvOverrides::default();
        let all = EnvOverrides {
            parallelism: Some(4),
            optimize_off: true,
            encoding_off: true,
            feedback_off: true,
            mmap_off: true,
        };
        let defaults = Settings::optimized();
        assert_eq!(none.apply(&defaults), defaults);
        let forced = all.apply(&defaults);
        assert_eq!(forced.parallelism, 4);
        assert!(!forced.optimize && !forced.encoding && !forced.feedback);
        assert_eq!(all.apply(&defaults.with_parallelism(2)).parallelism, 2);
        let ablated = defaults.with(|s| s.encoding = false);
        assert_eq!(none.apply(&ablated), ablated);
        assert_eq!(all.apply(&forced), forced, "applying twice changes nothing");
    }
}
