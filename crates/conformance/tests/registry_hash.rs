//! A literal pin of the registry content hash: the "spec version"
//! stamped into bench snapshots and served by `/conformance`. The text
//! is fixed here rather than read from the checked-in registry, so
//! editing a requirement does not move the pin; only a change to how
//! the hash encodes registry content does.

use st_conformance::{key_hex, Registry};

const REGISTRY: &str = r#"
version = 3

[[requirement]]
id = "ST-DET-001"
level = "MUST"
title = "Traces are pure"
text = "Every trace MUST be a pure function of local cycle count."
tags = ["determinism", "core"]
min_witnesses = 5

[[requirement]]
id = "ST-OBS-002"
level = "MAY"
title = "Untagged"
text = "A service MAY say nothing."
tags = []
min_witnesses = 1
"#;

#[test]
fn registry_content_hash_is_pinned() {
    let reg = Registry::parse(REGISTRY).expect("fixed registry parses");
    assert_eq!(
        key_hex(reg.content_hash()),
        "c1ef6ecea153c09f311a81d4fa269a60",
        "registry content hash moved"
    );
}
