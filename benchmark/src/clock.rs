//! The one sanctioned wall clock of the benchmark. Every timing in this
//! package goes through [`now`]; the repository's `clippy.toml` bans
//! `Instant::now` everywhere else, and this is the single allow.

use std::time::Instant;

/// The current instant.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
