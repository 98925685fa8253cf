//! The pattern registry: compiled automata keyed by id and by
//! artifact hash, backed by a content-addressed artifact store.
//!
//! Patterns live as plain files: `<dir>/<id>.pat` holds the regex
//! source (over the amino-acid alphabet, the paper's domain). At
//! startup every pattern is compiled to a DFA and its SFA is either
//! **reloaded** from the artifact cache or **constructed** and cached —
//! so a restarted daemon pays deserialization, not reconstruction. A
//! pattern whose SFA construction blows the state budget is still
//! served, degraded to the sequential tier with the reason recorded.
//!
//! The cache under `<dir>/artifacts/` is **content-addressed**:
//! `<content>.sfar` is named by the CRC-64 of its own bytes
//! ([`artifact::content_hash`]), and the per-pattern sidecar
//! `<dfa_fp>.ref` (dfa_fp = hex of [`dfa_fingerprint`]) points at it.
//! Construction is deterministic — parallel builds are byte-identical
//! to sequential ones — so identical patterns hash identically and
//! restarts, rebuilds, and concurrent tenants **share one artifact**
//! instead of accumulating duplicates. `.sfar` files no ref points at
//! (including pre-content-addressing `<dfa_fp>.sfar` files, which are
//! never read) are garbage-noted in the reload log, never silently
//! deleted.
//!
//! Registry entries leak their automata (`Box::leak`): the daemon
//! serves them for its whole lifetime from many worker threads, and a
//! `&'static` borrow is what lets
//! [`ParallelMatcher`](sfa_core::ParallelMatcher) instances be
//! built per-request without an `Arc` in every transition-table access.

use sfa_automata::alphabet::Alphabet;
use sfa_automata::dfa::Dfa;
use sfa_automata::pipeline::Pipeline;
use sfa_core::artifact::{self, dfa_fingerprint};
use sfa_core::scan::ScanEngine;
use sfa_core::sfa::Sfa;
use sfa_core::SfaError;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How a pattern's queries are served.
pub enum PatternBackend {
    /// Full chunk-parallel tier: the constructed SFA plus its shared
    /// pre-scaled scan tables.
    Full {
        /// The constructed simultaneous automaton.
        sfa: &'static Sfa,
        /// Shared compact scan tables (built once per pattern).
        scan: Arc<ScanEngine>,
    },
    /// Sequential-only: construction exceeded the state budget.
    Sequential {
        /// Why the full tier is unavailable.
        reason: String,
    },
}

/// One compiled pattern.
pub struct PatternEntry {
    /// Registry id (the `.pat` file stem).
    pub id: String,
    /// The pattern source text.
    pub pattern: String,
    /// Hex of [`dfa_fingerprint`] — the artifact key, also accepted as
    /// a request's `pattern` reference.
    pub hash: String,
    /// The compiled DFA.
    pub dfa: &'static Dfa,
    /// The serving backend.
    pub backend: PatternBackend,
}

impl PatternEntry {
    /// The tier this entry serves on, as a wire string.
    pub fn tier(&self) -> &'static str {
        match self.backend {
            PatternBackend::Full { .. } => "full",
            PatternBackend::Sequential { .. } => "sequential",
        }
    }

    /// The degradation reason, when sequential-only.
    pub fn degraded_reason(&self) -> Option<&str> {
        match &self.backend {
            PatternBackend::Full { .. } => None,
            PatternBackend::Sequential { reason } => Some(reason),
        }
    }
}

/// The immutable registry built at startup.
pub struct PatternRegistry {
    entries: Vec<PatternEntry>,
    by_key: BTreeMap<String, usize>,
    artifacts_dir: PathBuf,
    reloaded: usize,
    constructed: usize,
    deduped: usize,
    orphans: Vec<String>,
}

impl PatternRegistry {
    /// Load `<dir>/*.pat`, compiling each pattern and reusing cached
    /// `.sfar` artifacts where a valid one exists. `state_budget` caps
    /// each construction (the builder's `state_budget`; a value the
    /// engine rejects degrades every constructed pattern, with the
    /// reason); `threads` is the construction parallelism.
    pub fn load(patterns_dir: &Path, state_budget: u64, threads: usize) -> Result<Self, String> {
        let artifacts_dir = patterns_dir.join("artifacts");
        std::fs::create_dir_all(&artifacts_dir)
            .map_err(|e| format!("create {}: {e}", artifacts_dir.display()))?;

        let mut pattern_files: Vec<(String, PathBuf)> = Vec::new();
        let dir = std::fs::read_dir(patterns_dir)
            .map_err(|e| format!("read {}: {e}", patterns_dir.display()))?;
        for entry in dir {
            let entry = entry.map_err(|e| e.to_string())?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("pat") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            pattern_files.push((stem.to_string(), path));
        }
        // Deterministic registry order regardless of readdir order.
        pattern_files.sort();
        if pattern_files.is_empty() {
            return Err(format!(
                "no *.pat pattern files in {}",
                patterns_dir.display()
            ));
        }

        let mut registry = PatternRegistry {
            entries: Vec::new(),
            by_key: BTreeMap::new(),
            artifacts_dir,
            reloaded: 0,
            constructed: 0,
            deduped: 0,
            orphans: Vec::new(),
        };
        for (id, path) in pattern_files {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let pattern = source.trim().to_string();
            registry.insert(id, pattern, state_budget, threads)?;
        }
        registry.note_orphans();
        Ok(registry)
    }

    /// Garbage-note every `.sfar` file no loaded pattern's `.ref` points
    /// at — stale duplicates from before content addressing, or
    /// artifacts of deleted patterns. Noted in the reload log for the
    /// operator; never silently deleted.
    fn note_orphans(&mut self) {
        let referenced: std::collections::BTreeSet<String> = self
            .entries
            .iter()
            .filter_map(|e| {
                let ref_path = self.artifacts_dir.join(format!("{}.ref", e.hash));
                std::fs::read_to_string(ref_path)
                    .ok()
                    .map(|c| format!("{}.sfar", c.trim()))
            })
            .collect();
        let Ok(dir) = std::fs::read_dir(&self.artifacts_dir) else {
            return;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("sfar") {
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !referenced.contains(name) {
                self.orphans.push(name.to_string());
            }
        }
        self.orphans.sort();
    }

    fn insert(
        &mut self,
        id: String,
        pattern: String,
        state_budget: u64,
        threads: usize,
    ) -> Result<(), String> {
        let dfa = Pipeline::search(Alphabet::amino_acids())
            .compile_str(&pattern)
            .map_err(|e| format!("pattern {id:?} ({pattern:?}): {e}"))?;
        let dfa: &'static Dfa = Box::leak(Box::new(dfa));
        let hash = format!("{:016x}", dfa_fingerprint(dfa));
        let backend = self.obtain_sfa(dfa, &hash, state_budget, threads);
        let ix = self.entries.len();
        if self.by_key.insert(id.clone(), ix).is_some() {
            return Err(format!("duplicate pattern id {id:?}"));
        }
        // First pattern wins a hash collision (identical DFAs share an
        // artifact anyway; resolving by either id still works).
        self.by_key.entry(hash.clone()).or_insert(ix);
        self.entries.push(PatternEntry {
            id,
            pattern,
            hash,
            dfa,
            backend,
        });
        Ok(())
    }

    /// Reload the SFA from the content-addressed cache, or construct
    /// and cache it. Any artifact problem (missing, corrupt, stale)
    /// silently falls through to construction; any construction failure
    /// degrades the entry to the sequential tier.
    fn obtain_sfa(
        &mut self,
        dfa: &'static Dfa,
        hash: &str,
        state_budget: u64,
        threads: usize,
    ) -> PatternBackend {
        if let Some(sfa) = self.reload(dfa, hash) {
            self.reloaded += 1;
            return Self::full_backend(dfa, sfa);
        }
        let built = Sfa::builder(dfa)
            .threads(threads.max(1))
            .state_budget(usize::try_from(state_budget).unwrap_or(usize::MAX))
            .build();
        match built {
            Ok(result) => {
                self.constructed += 1;
                // Cache for the next daemon start; serving works either way.
                self.store(hash, &artifact::sfa_to_bytes(&result.sfa));
                Self::full_backend(dfa, result.sfa)
            }
            Err(err @ SfaError::StateBudgetExceeded { .. }) => PatternBackend::Sequential {
                reason: err.to_string(),
            },
            Err(other) => PatternBackend::Sequential {
                reason: format!("SFA construction failed: {other}"),
            },
        }
    }

    /// Follow this pattern's `.ref` sidecar into the content-addressed
    /// store, verifying the artifact's name against its own bytes.
    fn reload(&self, dfa: &'static Dfa, hash: &str) -> Option<Sfa> {
        let ref_path = self.artifacts_dir.join(format!("{hash}.ref"));
        let content = std::fs::read_to_string(ref_path).ok()?;
        let content = content.trim();
        if content.len() != 16 || !content.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let bytes = std::fs::read(self.artifacts_dir.join(format!("{content}.sfar"))).ok()?;
        // The name IS the checksum claim: a mismatch means a torn or
        // mislabeled file, never to be trusted.
        if format!("{:016x}", artifact::content_hash(&bytes)) != content {
            return None;
        }
        let sfa = artifact::sfa_from_bytes(&bytes).ok()?;
        sfa.validate(dfa).is_ok().then_some(sfa)
    }

    /// Write artifact bytes under their content hash and point this
    /// pattern's `.ref` sidecar at them. A file that already exists
    /// under that hash holds the same bytes (the name is their CRC-64),
    /// so it is shared, not rewritten — that's the dedup: two builds of
    /// the same pattern, on any thread counts, land on one artifact.
    fn store(&mut self, hash: &str, bytes: &[u8]) {
        let content = format!("{:016x}", artifact::content_hash(bytes));
        let path = self.artifacts_dir.join(format!("{content}.sfar"));
        if path.exists() {
            self.deduped += 1;
        } else {
            let _ = sfa_core::io::atomic_write(&path, bytes);
        }
        let ref_path = self.artifacts_dir.join(format!("{hash}.ref"));
        let _ = sfa_core::io::atomic_write(&ref_path, content.as_bytes());
    }

    fn full_backend(dfa: &'static Dfa, sfa: Sfa) -> PatternBackend {
        let sfa: &'static Sfa = Box::leak(Box::new(sfa));
        PatternBackend::Full {
            sfa,
            scan: Arc::new(ScanEngine::new(sfa, dfa)),
        }
    }

    /// Resolve a request's `pattern` reference — an id or an artifact
    /// hash.
    pub fn resolve(&self, key: &str) -> Option<&PatternEntry> {
        self.by_key.get(key).map(|&ix| &self.entries[ix])
    }

    /// All entries, in id order.
    pub fn entries(&self) -> &[PatternEntry] {
        &self.entries
    }

    /// How many SFAs were reloaded from cached artifacts this start.
    pub fn reloaded(&self) -> usize {
        self.reloaded
    }

    /// How many SFAs were constructed (and cached) this start.
    pub fn constructed(&self) -> usize {
        self.constructed
    }

    /// How many store operations landed on an artifact that already
    /// existed under the same content hash (shared, not rewritten).
    pub fn deduped(&self) -> usize {
        self.deduped
    }

    /// `.sfar` files in the artifact directory that no loaded pattern
    /// references — garbage-noted for the operator, never deleted.
    pub fn orphans(&self) -> &[String] {
        &self.orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_workloads::ScratchDir;

    #[test]
    fn loads_caches_and_reloads() {
        let scratch = ScratchDir::new("serve_registry_reload");
        let dir = scratch.path();
        std::fs::write(dir.join("rg.pat"), "RG\n").unwrap();
        std::fs::write(dir.join("motif.pat"), "RGD").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a pattern").unwrap();

        let first = PatternRegistry::load(dir, 1 << 20, 2).unwrap();
        assert_eq!(first.entries().len(), 2);
        assert_eq!(first.constructed(), 2);
        assert_eq!(first.reloaded(), 0);

        let rg = first.resolve("rg").unwrap();
        assert_eq!(rg.pattern, "RG");
        assert_eq!(rg.tier(), "full");
        assert_eq!(rg.hash.len(), 16);
        // Resolvable by artifact hash too.
        let by_hash = first.resolve(&rg.hash.clone()).unwrap();
        assert_eq!(by_hash.id, "rg");

        // A second start reloads both SFAs from the artifact cache.
        let second = PatternRegistry::load(dir, 1 << 20, 2).unwrap();
        assert_eq!(second.reloaded(), 2);
        assert_eq!(second.constructed(), 0);
        assert_eq!(second.resolve("motif").unwrap().tier(), "full");
    }

    fn sfar_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir.join("artifacts"))
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".sfar"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn restart_keeps_one_artifact_per_pattern() {
        let scratch = ScratchDir::new("serve_registry_dedup_restart");
        let dir = scratch.path();
        std::fs::write(dir.join("a.pat"), "RGD").unwrap();

        let first = PatternRegistry::load(dir, 1 << 20, 2).unwrap();
        assert_eq!(first.constructed(), 1);
        assert_eq!(sfar_files(dir).len(), 1, "one artifact per pattern");
        // The artifact's name is the CRC of its own bytes.
        let name = sfar_files(dir).remove(0);
        let bytes = std::fs::read(dir.join("artifacts").join(&name)).unwrap();
        assert_eq!(
            format!("{:016x}.sfar", artifact::content_hash(&bytes)),
            name
        );

        // Restarts reload and never accumulate duplicates — the old
        // failure mode was a second `.sfar` per rebuild.
        for _ in 0..3 {
            let again = PatternRegistry::load(dir, 1 << 20, 4).unwrap();
            assert_eq!(again.reloaded(), 1);
            assert_eq!(again.constructed(), 0);
            assert_eq!(sfar_files(dir).len(), 1);
            assert!(again.orphans().is_empty());
        }
    }

    #[test]
    fn identical_patterns_share_one_artifact() {
        let scratch = ScratchDir::new("serve_registry_dedup_tenants");
        let dir = scratch.path();
        // Two tenants registering the same pattern under different ids
        // compile to the same DFA, so the second follows the first's
        // ref sidecar: one construction, one artifact.
        std::fs::write(dir.join("tenant-a.pat"), "RGD").unwrap();
        std::fs::write(dir.join("tenant-b.pat"), "RGD\n").unwrap();

        let registry = PatternRegistry::load(dir, 1 << 20, 2).unwrap();
        assert_eq!(registry.constructed(), 1);
        assert_eq!(registry.reloaded(), 1);
        assert_eq!(sfar_files(dir).len(), 1, "identical patterns share");
    }

    #[test]
    fn rebuild_dedups_onto_existing_artifact() {
        let scratch = ScratchDir::new("serve_registry_dedup_rebuild");
        let dir = scratch.path();
        std::fs::write(dir.join("rg.pat"), "RG").unwrap();

        let first = PatternRegistry::load(dir, 1 << 20, 1).unwrap();
        assert_eq!(first.constructed(), 1);
        let fp = first.resolve("rg").unwrap().hash.clone();

        // Lose the ref sidecar (crash between artifact and ref writes,
        // say): the next start must reconstruct — and, construction
        // being deterministic, land on byte-identical content and share
        // the existing artifact instead of writing a second one.
        std::fs::remove_file(dir.join("artifacts").join(format!("{fp}.ref"))).unwrap();
        let second = PatternRegistry::load(dir, 1 << 20, 4).unwrap();
        assert_eq!(second.constructed(), 1);
        assert_eq!(second.deduped(), 1);
        assert_eq!(sfar_files(dir).len(), 1, "rebuild must not duplicate");
        assert!(second.orphans().is_empty());
    }

    #[test]
    fn legacy_artifacts_are_orphan_noted_and_never_read() {
        let scratch = ScratchDir::new("serve_registry_legacy");
        let dir = scratch.path();
        std::fs::write(dir.join("rg.pat"), "RG").unwrap();
        let artifacts = dir.join("artifacts");
        std::fs::create_dir_all(&artifacts).unwrap();

        // Simulate a pre-content-addressing cache: `<dfa_fp>.sfar`.
        let dfa = Pipeline::search(Alphabet::amino_acids())
            .compile_str("RG")
            .unwrap();
        let fp = format!("{:016x}", dfa_fingerprint(&dfa));
        let built = Sfa::builder(&dfa).build().unwrap();
        sfa_core::artifact::write_sfa(&artifacts.join(format!("{fp}.sfar")), &built.sfa).unwrap();

        let registry = PatternRegistry::load(dir, 1 << 20, 2).unwrap();
        // No ref points at the legacy file: the pattern is built once
        // and cached under its content hash, and the file is an orphan.
        assert_eq!(registry.constructed(), 1);
        assert_eq!(registry.reloaded(), 0);
        assert_eq!(registry.orphans(), &[format!("{fp}.sfar")]);
        assert_eq!(sfar_files(dir).len(), 2, "legacy + content-addressed copy");

        // The next start follows the ref and sees the same orphan.
        let second = PatternRegistry::load(dir, 1 << 20, 2).unwrap();
        assert_eq!(second.reloaded(), 1);
        assert_eq!(second.constructed(), 0);
        assert_eq!(second.orphans(), &[format!("{fp}.sfar")]);
    }

    #[test]
    fn state_budget_degrades_to_sequential() {
        let scratch = ScratchDir::new("serve_registry_degrade");
        let dir = scratch.path();
        // Bounded repetition explodes the SFA state count well past 2.
        std::fs::write(dir.join("hard.pat"), "RG").unwrap();
        let registry = PatternRegistry::load(dir, 2, 2).unwrap();
        let hard = registry.resolve("hard").unwrap();
        assert_eq!(hard.tier(), "sequential");
        assert_eq!(
            hard.degraded_reason(),
            Some(
                SfaError::StateBudgetExceeded { budget: 2 }
                    .to_string()
                    .as_str()
            )
        );
    }

    #[test]
    fn empty_dir_is_an_error() {
        let scratch = ScratchDir::new("serve_registry_empty");
        let dir = scratch.path();
        assert!(PatternRegistry::load(dir, 1 << 20, 1).is_err());
    }
}
