//! The mutant table cannot rot silently: every mutant's fragment occurs
//! exactly once in the file it names, its replacement differs, and every
//! test named to kill it is still defined where the table says.

use bgpworms_lint::mutants::MUTANTS;
use std::path::Path;

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn every_fragment_occurs_exactly_once() {
    for m in MUTANTS {
        let hits = read(m.file).matches(m.fragment).count();
        assert_eq!(hits, 1, "{}: `{}` occurs {hits} times", m.file, m.fragment);
        assert_ne!(
            m.fragment, m.replacement,
            "{}: a mutant changes its fragment",
            m.file
        );
    }
}

#[test]
fn every_killer_is_a_defined_test() {
    for m in MUTANTS {
        assert!(
            !m.killers.is_empty(),
            "{}: `{}` names no killer",
            m.file,
            m.fragment
        );
        for &(file, test) in m.killers {
            assert!(
                read(file).contains(&format!("fn {test}(")),
                "{file} defines no `{test}`, named to kill `{}`",
                m.fragment
            );
        }
    }
}
