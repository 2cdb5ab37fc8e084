//! The other file of the `pub_field_*` fixtures: it names some of their
//! fields the way a caller would.

fn caller() -> u64 {
    // fixture_mentioned is named in this comment only
    let _ = "fixture_mentioned";
    let knobs = FixtureKnobs {
        fixture_named: 3,
        ..FixtureKnobs::default()
    };
    let settings = FixtureSettings::default();
    knobs.fixture_named + settings.fixture_named_too
}
