// Fixture: wall-clock reads, banned under every policy.
// Expected: two no-wall-clock findings ("Instant" in a string or comment
// must NOT fire).
#![forbid(unsafe_code)]

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now() // line 7: finding
}

pub fn epoch() -> u64 {
    let t = std::time::SystemTime::now(); // line 11: finding
    let _ = "Instant::now inside a string is data, not a call";
    0 // the string above and this comment about Instant::now are exempt
}
