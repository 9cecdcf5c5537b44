//! # st-conformance — the normative requirements registry and witness layer
//!
//! The paper's headline claim — every chip-level observation is a pure
//! function of local cycle counts — is stated normatively in
//! `conformance/requirements.toml` as RFC-2119 clauses with stable IDs
//! (`ST-<AREA>-<NNN>`). This crate makes that registry machine-checkable:
//!
//! * [`Registry`] parses the TOML registry (a deliberately tiny subset,
//!   hand-rolled so the crate stays dependency-free) and embeds a copy
//!   at build time ([`Registry::builtin`]).
//! * [`witnesses!`] is the declaration macro tests use to register which
//!   requirement IDs they witness. It validates the IDs against the
//!   embedded registry at run time (unknown IDs panic, so a typo fails
//!   the witnessing test itself) and, when `ST_WITNESS_DIR` is set,
//!   appends a machine-readable manifest line for the lint to collect.
//! * [`WitnessLog`] / [`WitnessRecord`] are the hashed witness log:
//!   every campaign run appends a canonical record (requirement IDs
//!   exercised, config hash, result digest) to a splitmix-chained head,
//!   and each record carries enough public state ([`WitnessRecord::verify`])
//!   to re-derive its chain value offline.
//! * `st-conformance-lint` (this crate's binary) cross-checks the
//!   registry against the `witnesses!` declarations in the workspace
//!   sources and fails CI on any unwitnessed requirement, unknown ID,
//!   or count below the registry's pinned `min_witnesses`.

#![forbid(unsafe_code)]

use st_sim::canon::{canon_record, Canon, Enc};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The registry source embedded at build time; the lint cross-checks
/// the checked-in file against this copy to catch stale builds.
pub const BUILTIN_REGISTRY_TOML: &str = include_str!("../../../conformance/requirements.toml");

/// The workspace's hash family, re-exported: witness config hashes,
/// the registry hash and store keys share one key space.
pub use st_sim::hash::{content_key16, fnv1a64, key_hex, mix64};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// RFC-2119 requirement level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Absolute requirement.
    Must,
    /// Recommended; deviations need a documented reason.
    Should,
    /// Truly optional.
    May,
}

impl Level {
    /// The registry/wire name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Must => "MUST",
            Level::Should => "SHOULD",
            Level::May => "MAY",
        }
    }

    /// Parses the registry name.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "MUST" => Some(Level::Must),
            "SHOULD" => Some(Level::Should),
            "MAY" => Some(Level::May),
            _ => None,
        }
    }
}

/// One normative clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requirement {
    /// Stable identifier, `ST-<AREA>-<NNN>`. Never reused or renumbered.
    pub id: String,
    /// RFC-2119 level.
    pub level: Level,
    /// One-line summary.
    pub title: String,
    /// The clause itself.
    pub text: String,
    /// Free-form grouping tags.
    pub tags: Vec<String>,
    /// Pinned witness floor: the lint fails when fewer `witnesses!`
    /// declarations name this ID. Defaults to 1.
    pub min_witnesses: u64,
}

/// The parsed registry, requirement order preserved from the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registry {
    /// Registry format version (`version = N` at the top of the file).
    pub version: u64,
    /// The clauses, in file order.
    pub requirements: Vec<Requirement>,
}

impl Registry {
    /// The registry embedded at build time, parsed once per process.
    ///
    /// # Panics
    ///
    /// Panics if the checked-in registry fails to parse — a build with
    /// a malformed registry must not limp along witnessing nothing.
    pub fn builtin() -> &'static Registry {
        static BUILTIN: OnceLock<Registry> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            Registry::parse(BUILTIN_REGISTRY_TOML)
                .expect("conformance/requirements.toml must parse")
        })
    }

    /// Looks a requirement up by ID.
    pub fn get(&self, id: &str) -> Option<&Requirement> {
        self.requirements.iter().find(|r| r.id == id)
    }

    /// True when `id` names a registered requirement.
    pub fn contains(&self, id: &str) -> bool {
        self.get(id).is_some()
    }

    /// A 16-byte hash of the registry *content* (IDs, levels, titles,
    /// clauses, tags, witness floors — not comments or whitespace), the
    /// "spec version" stamped into bench snapshots and served by
    /// `/conformance`.
    pub fn content_hash(&self) -> [u8; 16] {
        let mut e = Enc::default();
        e.raw(b"STRG");
        e.u64(self.version);
        for r in &self.requirements {
            for s in [&r.id, r.level.name(), &r.title, &r.text] {
                e.long_bytes(s.as_bytes());
            }
            e.u64(r.tags.len() as u64);
            for t in &r.tags {
                e.long_bytes(t.as_bytes());
            }
            e.u64(r.min_witnesses);
        }
        content_key16(&e.into_bytes())
    }

    /// Parses the registry's TOML subset: comments, `version = N`, and
    /// `[[requirement]]` tables holding `key = value` pairs where a
    /// value is a `"string"`, an integer, or a `["string", ...]` array.
    ///
    /// # Errors
    ///
    /// Returns `line number: description` for the first offence —
    /// including anything outside the subset, so the registry cannot
    /// silently grow syntax this parser ignores.
    pub fn parse(src: &str) -> Result<Registry, String> {
        enum Target {
            Top,
            Requirement,
        }
        let mut version = None;
        let mut requirements: Vec<Requirement> = Vec::new();
        let mut target = Target::Top;
        // Collected per [[requirement]] table, flushed on the next
        // header or EOF.
        let mut current: Option<BTreeMap<String, Value>> = None;

        fn flush(
            current: &mut Option<BTreeMap<String, Value>>,
            out: &mut Vec<Requirement>,
        ) -> Result<(), String> {
            let Some(mut map) = current.take() else {
                return Ok(());
            };
            let take_str =
                |map: &mut BTreeMap<String, Value>, key: &str| -> Result<String, String> {
                    match map.remove(key) {
                        Some(Value::Str(s)) => Ok(s),
                        Some(_) => Err(format!("requirement key {key:?} must be a string")),
                        None => Err(format!("requirement missing key {key:?}")),
                    }
                };
            let id = take_str(&mut map, "id")?;
            let level_name = take_str(&mut map, "level")?;
            let level = Level::parse(&level_name)
                .ok_or_else(|| format!("{id}: unknown level {level_name:?}"))?;
            let title = take_str(&mut map, "title")?;
            let text = take_str(&mut map, "text")?;
            let tags = match map.remove("tags") {
                Some(Value::Arr(a)) => a,
                Some(_) => return Err(format!("{id}: tags must be a string array")),
                None => Vec::new(),
            };
            let min_witnesses = match map.remove("min_witnesses") {
                Some(Value::Int(n)) => n,
                Some(_) => return Err(format!("{id}: min_witnesses must be an integer")),
                None => 1,
            };
            if let Some(key) = map.keys().next() {
                return Err(format!("{id}: unknown requirement key {key:?}"));
            }
            if !id.starts_with("ST-") {
                return Err(format!("requirement id {id:?} must start with \"ST-\""));
            }
            if out.iter().any(|r| r.id == id) {
                return Err(format!("duplicate requirement id {id:?}"));
            }
            out.push(Requirement {
                id,
                level,
                title,
                text,
                tags,
                min_witnesses,
            });
            Ok(())
        }

        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[requirement]]" {
                flush(&mut current, &mut requirements).map_err(|e| format!("{lineno}: {e}"))?;
                current = Some(BTreeMap::new());
                target = Target::Requirement;
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("{lineno}: unsupported table header {line:?}"));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("{lineno}: expected key = value"))?;
            let key = key.trim().to_owned();
            let value = parse_value(value.trim()).map_err(|e| format!("{lineno}: {e}"))?;
            match target {
                Target::Top => {
                    if key == "version" {
                        match value {
                            Value::Int(n) => version = Some(n),
                            _ => return Err(format!("{lineno}: version must be an integer")),
                        }
                    } else {
                        return Err(format!("{lineno}: unknown top-level key {key:?}"));
                    }
                }
                Target::Requirement => {
                    let map = current.as_mut().expect("in a requirement table");
                    if map.insert(key.clone(), value).is_some() {
                        return Err(format!("{lineno}: duplicate key {key:?}"));
                    }
                }
            }
        }
        flush(&mut current, &mut requirements)?;
        let version = version.ok_or("registry missing `version = N`")?;
        if requirements.is_empty() {
            return Err("registry holds no requirements".to_owned());
        }
        Ok(Registry {
            version,
            requirements,
        })
    }
}

/// A parsed TOML-subset value.
enum Value {
    Str(String),
    Int(u64),
    Arr(Vec<String>),
}

fn parse_value(src: &str) -> Result<Value, String> {
    if let Some(rest) = src.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {src:?}"))?;
        if inner.contains('"') || inner.contains('\\') {
            return Err(format!("escapes/embedded quotes unsupported in {src:?}"));
        }
        return Ok(Value::Str(inner.to_owned()));
    }
    if let Some(rest) = src.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array {src:?}"))?;
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                _ => return Err(format!("array holds a non-string item in {src:?}")),
            }
        }
        return Ok(Value::Arr(items));
    }
    src.parse::<u64>()
        .map(Value::Int)
        .map_err(|_| format!("unsupported value {src:?}"))
}

// ---------------------------------------------------------------------------
// Witness declarations
// ---------------------------------------------------------------------------

/// Declares which registered requirement IDs the enclosing test
/// witnesses.
///
/// Validates every ID against the embedded registry — an unknown ID
/// panics, so a typo fails the declaring test rather than silently
/// witnessing nothing — and, when `ST_WITNESS_DIR` names a directory,
/// appends a manifest line (`file:line<TAB>id,id,...`) for
/// `st-conformance-lint` to collect as runtime evidence.
#[macro_export]
macro_rules! witnesses {
    ([$($id:literal),+ $(,)?]) => {{
        const WITNESSED_IDS: &[&str] = &[$($id),+];
        $crate::record_witness(::core::file!(), ::core::line!(), WITNESSED_IDS);
    }};
}

/// The [`witnesses!`] runtime: ID validation plus optional manifest
/// emission. Call through the macro, not directly — the macro captures
/// the declaration site.
///
/// # Panics
///
/// Panics when `ids` is empty or contains an ID absent from the
/// registry.
pub fn record_witness(file: &str, line: u32, ids: &[&str]) {
    assert!(!ids.is_empty(), "witnesses!([]) declares nothing");
    let registry = Registry::builtin();
    for id in ids {
        assert!(
            registry.contains(id),
            "witnesses! names unregistered requirement {id:?} at {file}:{line}; \
             register it in conformance/requirements.toml first"
        );
    }
    let Ok(dir) = std::env::var("ST_WITNESS_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    // Manifest emission is best-effort: witnessing is proven by the
    // static scan; runtime manifests are corroborating evidence only,
    // so an unwritable directory must not fail the declaring test.
    let dir = std::path::PathBuf::from(dir);
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{}.witness", std::process::id()));
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        // One write per line: declarations in parallel test threads of
        // one process append to the same file, and `writeln!` would
        // split the line across several writes that can interleave.
        let record = format!("{file}:{line}\t{}\n", ids.join(","));
        let _ = f.write_all(record.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Hashed witness log
// ---------------------------------------------------------------------------

/// The chain head before any record: `fnv1a64(b"ST-WITNESS-LOG-V1")`.
pub fn witness_genesis() -> u64 {
    fnv1a64(b"ST-WITNESS-LOG-V1")
}

/// One canonical witness record: which requirements a run exercised,
/// over which configuration, producing which result bytes, chained to
/// the log's running hash.
///
/// `chain = mix64(prev ^ fnv1a64(canonical bytes))` — every field that
/// feeds the canonical bytes is public, so a served record verifies
/// offline ([`verify`](Self::verify)) with no access to the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessRecord {
    /// Position in the log, 0-based.
    pub seq: u64,
    /// Requirement IDs exercised, sorted.
    pub ids: Vec<String>,
    /// Content key of the configuration's canonical bytes.
    pub config: [u8; 16],
    /// Content key of the result's canonical bytes.
    pub result: [u8; 16],
    /// Chain head before this record.
    pub prev: u64,
    /// Chain head after this record.
    pub chain: u64,
}

impl WitnessRecord {
    /// The canonical bytes the chain hash covers (everything except
    /// `prev`/`chain`, which are the chain itself).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.raw(b"STWR");
        self.seq.put(&mut e);
        self.ids.put(&mut e);
        self.config.put(&mut e);
        self.result.put(&mut e);
        e.into_bytes()
    }

    /// The chain value this record *should* carry given its fields.
    pub fn expected_chain(&self) -> u64 {
        mix64(self.prev ^ fnv1a64(&self.canonical_bytes()))
    }

    /// Offline verification: does the carried chain value match the
    /// recomputation from the record's public fields?
    pub fn verify(&self) -> bool {
        self.chain == self.expected_chain()
    }
}

// The witness block of an STPF peer frame: the canonical fields, then
// the chain links.
canon_record!(WitnessRecord {
    seq,
    ids,
    config,
    result,
    prev,
    chain,
});

/// An append-only hashed witness log: a running splitmix-chained head
/// plus per-requirement witness counts. Records are returned to the
/// caller (st-serve stores one per job); the log itself keeps only the
/// aggregate state, so it never grows with service lifetime.
#[derive(Debug)]
pub struct WitnessLog {
    head: u64,
    appended: u64,
    counts: BTreeMap<String, u64>,
}

impl Default for WitnessLog {
    fn default() -> Self {
        Self::new()
    }
}

impl WitnessLog {
    /// An empty log at the genesis head.
    pub fn new() -> Self {
        WitnessLog {
            head: witness_genesis(),
            appended: 0,
            counts: BTreeMap::new(),
        }
    }

    /// The current chain head.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Number of records appended.
    pub fn len(&self) -> u64 {
        self.appended
    }

    /// True before the first append.
    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// Witness count for one requirement ID.
    pub fn count(&self, id: &str) -> u64 {
        self.counts.get(id).copied().unwrap_or(0)
    }

    /// All `(id, count)` pairs, sorted by ID.
    pub fn counts(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(id, &n)| (id.as_str(), n))
    }

    /// Appends a record for a completed run and advances the head.
    ///
    /// # Panics
    ///
    /// Panics on an empty or unregistered ID set — the same contract as
    /// [`witnesses!`]; runtime emitters must not mint IDs the registry
    /// does not know.
    pub fn append(&mut self, ids: &[&str], config: [u8; 16], result: [u8; 16]) -> WitnessRecord {
        assert!(!ids.is_empty(), "a witness record must name requirements");
        let registry = Registry::builtin();
        let mut sorted: Vec<String> = ids.iter().map(|s| (*s).to_owned()).collect();
        sorted.sort();
        sorted.dedup();
        for id in &sorted {
            assert!(
                registry.contains(id),
                "witness record names unregistered requirement {id:?}"
            );
        }
        let mut record = WitnessRecord {
            seq: self.appended,
            ids: sorted,
            config,
            result,
            prev: self.head,
            chain: 0,
        };
        record.chain = record.expected_chain();
        self.head = record.chain;
        self.appended += 1;
        for id in &record.ids {
            *self.counts.entry(id.clone()).or_insert(0) += 1;
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_parses_with_at_least_ten_requirements() {
        let reg = Registry::builtin();
        assert!(reg.version >= 1);
        assert!(
            reg.requirements.len() >= 10,
            "the conformance surface is {} clauses; the acceptance floor is 10",
            reg.requirements.len()
        );
        for r in &reg.requirements {
            assert!(r.id.starts_with("ST-"), "{}", r.id);
            assert!(r.min_witnesses >= 1, "{} floor must be positive", r.id);
            assert!(!r.text.is_empty(), "{} has no clause text", r.id);
            assert!(
                r.text.contains(r.level.name()),
                "{}: the clause must use its own RFC-2119 keyword",
                r.id
            );
        }
        assert!(reg.contains("ST-DET-001"), "the headline claim is listed");
    }

    #[test]
    fn registry_hash_is_content_sensitive_and_comment_insensitive() {
        let reg = Registry::builtin();
        let hash = reg.content_hash();
        // Comments and blank lines do not move the hash...
        let stripped: String = BUILTIN_REGISTRY_TOML
            .lines()
            .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(Registry::parse(&stripped).unwrap().content_hash(), hash);
        // ...but any clause edit does.
        let mut edited = reg.clone();
        edited.requirements[0].min_witnesses += 1;
        assert_ne!(edited.content_hash(), hash);
        assert_eq!(key_hex(hash).len(), 32);
    }

    #[test]
    fn parser_rejects_out_of_subset_registries() {
        for (src, needle) in [
            ("version = 1", "no requirements"),
            (
                "[[requirement]]\nid = \"ST-X-1\"\nlevel = \"MUST\"\ntitle = \"t\"\ntext = \"x\"",
                "missing `version",
            ),
            ("version = \"one\"", "must be an integer"),
            ("version = 1\n[table]\n", "unsupported table header"),
            (
                "version = 1\n[[requirement]]\nid = \"X-1\"\nlevel = \"MUST\"\ntitle = \"t\"\ntext = \"x\"",
                "must start with",
            ),
            (
                "version = 1\n[[requirement]]\nid = \"ST-A-1\"\nlevel = \"OUGHT\"\ntitle = \"t\"\ntext = \"x\"",
                "unknown level",
            ),
            (
                "version = 1\n[[requirement]]\nid = \"ST-A-1\"\nlevel = \"MUST\"\ntitle = \"t\"\ntext = \"x\"\nbogus = 3",
                "unknown requirement key",
            ),
            (
                "version = 1\n[[requirement]]\nid = \"ST-A-1\"\nid = \"ST-A-2\"",
                "duplicate key",
            ),
        ] {
            let err = Registry::parse(src).unwrap_err();
            assert!(err.contains(needle), "{src:?} -> {err:?}");
        }
        // Duplicate IDs across tables are rejected too.
        let dup = "version = 1\n\
                   [[requirement]]\nid = \"ST-A-1\"\nlevel = \"MUST\"\ntitle = \"t\"\ntext = \"x\"\n\
                   [[requirement]]\nid = \"ST-A-1\"\nlevel = \"MUST\"\ntitle = \"t\"\ntext = \"x\"";
        assert!(Registry::parse(dup)
            .unwrap_err()
            .contains("duplicate requirement id"));
    }

    #[test]
    fn witness_log_chains_and_records_verify_offline() {
        let mut log = WitnessLog::new();
        assert_eq!(log.head(), witness_genesis());
        assert!(log.is_empty());

        let a = log.append(&["ST-DET-001", "ST-CAMP-005"], [1; 16], [2; 16]);
        let b = log.append(&["ST-DET-001"], [3; 16], [4; 16]);
        assert_eq!(a.seq, 0);
        assert_eq!(a.prev, witness_genesis());
        assert_eq!(b.prev, a.chain, "records chain head to head");
        assert_eq!(log.head(), b.chain);
        assert_eq!(log.len(), 2);
        assert_eq!(log.count("ST-DET-001"), 2);
        assert_eq!(log.count("ST-CAMP-005"), 1);
        assert_eq!(log.count("ST-EQ-002"), 0);

        // Offline verification from public fields alone.
        assert!(a.verify() && b.verify());
        let mut forged = b.clone();
        forged.result = [9; 16];
        assert!(!forged.verify(), "result tampering breaks the chain");
        let mut spliced = b;
        spliced.prev ^= 1;
        assert!(!spliced.verify(), "prev tampering breaks the chain");
    }

    #[test]
    fn witness_log_sorts_dedups_and_rejects_unknown_ids() {
        let mut log = WitnessLog::new();
        let rec = log.append(&["ST-EQ-003", "ST-DET-001", "ST-EQ-003"], [0; 16], [0; 16]);
        assert_eq!(rec.ids, vec!["ST-DET-001", "ST-EQ-003"]);
        assert!(std::panic::catch_unwind(|| {
            WitnessLog::new().append(&["ST-NOPE-999"], [0; 16], [0; 16])
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            record_witness("x.rs", 1, &["ST-NOPE-999"]);
        })
        .is_err());
    }

    #[test]
    fn manifest_lines_are_appended_when_the_dir_is_set() {
        // This test owns ST_WITNESS_DIR (the only mutator in this
        // binary; env mutation must not race other tests).
        let dir = std::env::temp_dir().join(format!("st-witness-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("ST_WITNESS_DIR", &dir);
        record_witness("suite.rs", 42, &["ST-DET-001", "ST-CKPT-007"]);
        std::env::remove_var("ST_WITNESS_DIR");
        let manifest = dir.join(format!("{}.witness", std::process::id()));
        let text = std::fs::read_to_string(&manifest).expect("manifest written");
        assert!(
            text.contains("suite.rs:42\tST-DET-001,ST-CKPT-007"),
            "{text:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
