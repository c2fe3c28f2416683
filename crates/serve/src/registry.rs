//! The versioned, hot-swappable spec registry.
//!
//! Architectures are data: the seven built-ins are registry **epoch 1**,
//! and every accepted `osarch-spec/1` document after that produces a new
//! epoch-numbered, immutable [`SpecSnapshot`]. The active snapshot sits
//! behind an `Arc` swap — each request captures the `Arc` at admission
//! and keeps it for its whole lifetime, so in-flight work always
//! finishes against the spec set it started under, while new admissions
//! see the new epoch immediately.
//!
//! Epochs only ever increase (a rollback installs the last-good
//! *content* at a *new* epoch), and every snapshot's cache-key prefix
//! embeds both the epoch and a content hash, so the single-flight cache
//! and its `last_good` sidecar can never alias entries across a swap —
//! not even when a cluster node adopts a remote snapshot whose epoch it
//! has already used locally.

use crate::lock;
use osarch_core::json;
use osarch_cpu::ArchSpec;
use osarch_telemetry::Histogram;
use osarch_trace::fnv1a;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// One loaded spec: its registry name, its canonical document, and the
/// parsed form the kernel measures.
#[derive(Debug, Clone)]
pub struct SpecEntry {
    /// Registry name (the document's `name` field).
    pub name: String,
    /// The canonical `osarch-spec/1` document ([`ArchSpec::to_json`]).
    pub doc: String,
    /// The parsed spec.
    pub spec: ArchSpec,
}

/// An immutable, epoch-numbered view of the registry: the built-ins
/// plus every loaded spec active at that epoch.
#[derive(Debug, Clone)]
pub struct SpecSnapshot {
    epoch: u64,
    /// Sorted by name (names are unique).
    entries: Vec<SpecEntry>,
    hash: u64,
    key_prefix: String,
}

/// FNV-1a over the sorted canonical documents, each ended by a NUL:
/// equal content hashes equally on every node, independent of epoch and
/// load order.
fn content_hash(entries: &[SpecEntry]) -> u64 {
    fnv1a(
        entries
            .iter()
            .flat_map(|entry| entry.doc.bytes().chain([0])),
    )
}

impl SpecSnapshot {
    /// The first epoch: the seven built-in architectures, no loaded
    /// specs.
    #[must_use]
    pub fn builtins() -> SpecSnapshot {
        SpecSnapshot::from_entries(Vec::new(), 1)
    }

    fn from_entries(mut entries: Vec<SpecEntry>, epoch: u64) -> SpecSnapshot {
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let hash = content_hash(&entries);
        SpecSnapshot {
            epoch,
            hash,
            key_prefix: format!("e{epoch}-{hash:016x}/"),
            entries,
        }
    }

    /// A new snapshot with `doc` loaded (replacing any same-named spec)
    /// at the given epoch.
    ///
    /// # Errors
    ///
    /// Returns the codec's one-line reason when `doc` is not a valid
    /// `osarch-spec/1` document.
    pub fn with_spec(&self, doc: &str, epoch: u64) -> Result<SpecSnapshot, String> {
        let (name, spec) = ArchSpec::from_json(doc)?;
        let canonical = spec.to_json(&name);
        let mut entries: Vec<SpecEntry> = self
            .entries
            .iter()
            .filter(|e| e.name != name)
            .cloned()
            .collect();
        entries.push(SpecEntry {
            name,
            doc: canonical,
            spec,
        });
        Ok(SpecSnapshot::from_entries(entries, epoch))
    }

    /// This snapshot's content at a different epoch — the rollback
    /// primitive (last-good content, strictly newer epoch).
    #[must_use]
    pub fn at_epoch(&self, epoch: u64) -> SpecSnapshot {
        SpecSnapshot::from_entries(self.entries.clone(), epoch)
    }

    /// Rebuild a snapshot from raw documents at an explicit epoch — the
    /// cluster adoption path (`spec-fetch` pull).
    ///
    /// # Errors
    ///
    /// Returns the codec's reason for the first invalid document.
    pub fn from_docs(docs: &[String], epoch: u64) -> Result<SpecSnapshot, String> {
        let mut snapshot = SpecSnapshot::from_entries(Vec::new(), epoch);
        for doc in docs {
            snapshot = snapshot.with_spec(doc, epoch)?;
        }
        Ok(snapshot)
    }

    /// The registry epoch this snapshot is.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch-and-content cache-key prefix (`e{epoch}-{hash:016x}/`).
    #[must_use]
    pub fn key_prefix(&self) -> &str {
        &self.key_prefix
    }

    /// The gossip digest: `{epoch}:{content hash}`. Two nodes with equal
    /// digests serve byte-identical spec sets under equal cache keys.
    #[must_use]
    pub fn digest(&self) -> String {
        format!("{}:{:016x}", self.epoch, self.hash)
    }

    /// Look up a loaded spec by name.
    #[must_use]
    pub fn spec(&self, name: &str) -> Option<&ArchSpec> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].spec)
    }

    /// Every loaded spec, sorted by name.
    #[must_use]
    pub fn entries(&self) -> &[SpecEntry] {
        &self.entries
    }

    /// The `spec-fetch` payload: epoch, digest, and every canonical
    /// document (as JSON-escaped strings).
    #[must_use]
    pub fn fetch_payload(&self) -> String {
        let docs: Vec<String> = self
            .entries
            .iter()
            .map(|e| format!("\"{}\"", osarch_core::metrics::json_escape(&e.doc)))
            .collect();
        format!(
            "{{\"epoch\":{},\"digest\":\"{}\",\"specs\":[{}]}}",
            self.epoch,
            self.digest(),
            docs.join(",")
        )
    }
}

/// Read the parsed `result` payload of a `spec-fetch` reply back into
/// `(epoch, docs)` — the pull side of cluster spec convergence.
///
/// # Errors
///
/// Returns a one-line reason when the payload does not carry an
/// `epoch` number and a `specs` string array.
pub fn parse_spec_fetch(payload: &json::Value<'_>) -> Result<(u64, Vec<String>), String> {
    let epoch = payload
        .get("epoch")
        .ok_or("spec-fetch payload missing \"epoch\"")?
        .as_u64()
        .ok_or("spec-fetch payload has a malformed epoch")?;
    let docs = payload
        .get("specs")
        .ok_or("spec-fetch payload missing \"specs\"")?
        .as_array()
        .and_then(|specs| {
            specs
                .iter()
                .map(|doc| Some(doc.as_str()?.to_string()))
                .collect()
        })
        .ok_or("spec-fetch payload has a malformed specs array")?;
    Ok((epoch, docs))
}

/// The registry proper: the active snapshot behind an `Arc` swap, the
/// staging area `spec-load` fills, the last-good snapshot automatic
/// rollback restores, and the swap telemetry.
#[derive(Debug)]
pub struct SpecRegistry {
    /// Held through one admin activation or explicit rollback
    /// ([`SpecRegistry::try_admin`]).
    admin: Mutex<()>,
    active: Mutex<Arc<SpecSnapshot>>,
    /// Validated-but-not-activated documents, by name.
    staged: Mutex<Vec<(String, String)>>,
    last_good: Mutex<Arc<SpecSnapshot>>,
    swaps: AtomicU64,
    rollbacks: AtomicU64,
    swap_latency: Mutex<Histogram>,
    /// Armed by the admin path when chaos plans a mid-swap loop death;
    /// the event loop checks it *outside* the dispatch `catch_unwind`
    /// and dies for real (the respawn path must preserve the committed
    /// epoch).
    pub swap_loop_death: AtomicBool,
}

impl Default for SpecRegistry {
    fn default() -> SpecRegistry {
        SpecRegistry::new()
    }
}

impl SpecRegistry {
    /// A registry serving the built-ins as epoch 1.
    #[must_use]
    pub fn new() -> SpecRegistry {
        let builtins = Arc::new(SpecSnapshot::builtins());
        SpecRegistry {
            admin: Mutex::new(()),
            active: Mutex::new(Arc::clone(&builtins)),
            staged: Mutex::new(Vec::new()),
            last_good: Mutex::new(builtins),
            swaps: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            swap_latency: Mutex::new(Histogram::new()),
            swap_loop_death: AtomicBool::new(false),
        }
    }

    /// Claim the admin plane for one activation or explicit rollback,
    /// so no two of them interleave. `None` while another holds it: the
    /// caller answers "retry" rather than block its event loop.
    #[must_use]
    pub fn try_admin(&self) -> Option<MutexGuard<'_, ()>> {
        match self.admin.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The active snapshot. Cheap (one `Arc` clone under a short lock);
    /// callers keep the `Arc` for the lifetime of the work it covers.
    #[must_use]
    pub fn snapshot(&self) -> Arc<SpecSnapshot> {
        Arc::clone(&lock(&self.active))
    }

    /// Stage a validated document. Returns the spec name.
    ///
    /// # Errors
    ///
    /// Returns the codec's one-line reason for a bad document.
    pub fn stage(&self, doc: &str) -> Result<String, String> {
        let (name, spec) = ArchSpec::from_json(doc)?;
        let canonical = spec.to_json(&name);
        let mut staged = lock(&self.staged);
        staged.retain(|(n, _)| *n != name);
        staged.push((name.clone(), canonical));
        staged.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(name)
    }

    /// Names currently staged, sorted.
    #[must_use]
    pub fn staged_names(&self) -> Vec<String> {
        lock(&self.staged).iter().map(|(n, _)| n.clone()).collect()
    }

    /// The staged canonical document for `name`, if any.
    #[must_use]
    pub fn staged_doc(&self, name: &str) -> Option<String> {
        lock(&self.staged)
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, doc)| doc.clone())
    }

    /// Commit a successor snapshot: the prior active becomes last-good,
    /// the successor becomes active. Fails (leaving the registry
    /// untouched) when the successor's epoch is not strictly newer —
    /// the case where a concurrent admin call won the race.
    ///
    /// # Errors
    ///
    /// Returns the already-active epoch on a lost race.
    pub fn commit(&self, next: SpecSnapshot) -> Result<Arc<SpecSnapshot>, u64> {
        let mut active = lock(&self.active);
        if next.epoch() <= active.epoch() {
            return Err(active.epoch());
        }
        let next = Arc::new(next);
        *lock(&self.last_good) = Arc::clone(&active);
        *active = Arc::clone(&next);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(next)
    }

    /// Roll back to the last-good content at a fresh epoch (the
    /// `fault_crate_swap` analogue): the explicit `spec-rollback`.
    pub fn rollback(&self) -> Arc<SpecSnapshot> {
        let mut active = lock(&self.active);
        self.restore_last_good(&mut active)
    }

    /// Undo a candidate whose probe failed: unstage `name`, so it cannot
    /// be re-activated verbatim by mistake, and roll back as
    /// [`SpecRegistry::rollback`] does, but only while the candidate's
    /// `epoch` is still active. A snapshot committed or adopted on top of
    /// it stays, and comes back as the error.
    ///
    /// # Errors
    ///
    /// Returns the active snapshot when it is no longer the candidate.
    pub fn rollback_failed(
        &self,
        name: &str,
        epoch: u64,
    ) -> Result<Arc<SpecSnapshot>, Arc<SpecSnapshot>> {
        lock(&self.staged).retain(|(n, _)| n != name);
        let mut active = lock(&self.active);
        if active.epoch() != epoch {
            return Err(Arc::clone(&active));
        }
        Ok(self.restore_last_good(&mut active))
    }

    fn restore_last_good(&self, active: &mut Arc<SpecSnapshot>) -> Arc<SpecSnapshot> {
        let good = Arc::clone(&lock(&self.last_good));
        let restored = Arc::new(good.at_epoch(active.epoch() + 1));
        *active = Arc::clone(&restored);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        restored
    }

    /// Adopt a remote snapshot (cluster convergence): installed only
    /// when strictly newer than the local epoch, at the *remote* epoch,
    /// so converged nodes share one digest. Last-good moves with it —
    /// an adopted spec set has already survived the admin node's probe.
    pub fn adopt(&self, remote: SpecSnapshot) -> bool {
        let mut active = lock(&self.active);
        if remote.epoch() <= active.epoch() {
            return false;
        }
        let remote = Arc::new(remote);
        *lock(&self.last_good) = Arc::clone(&remote);
        *active = remote;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Swaps committed (activations, rollbacks and adoptions all swap).
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Automatic or explicit rollbacks performed.
    #[must_use]
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
    }

    /// Record one committed swap's end-to-end latency (commit + probe).
    pub fn record_swap_latency(&self, us: u64) {
        lock(&self.swap_latency).record(us);
    }

    /// The swap-latency histogram, cloned for exposition.
    #[must_use]
    pub fn swap_latency(&self) -> Histogram {
        lock(&self.swap_latency).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osarch_cpu::Arch;

    fn doc(name: &str, clock: f64) -> String {
        let mut spec = Arch::R3000.spec();
        spec.clock_mhz = clock;
        spec.to_json(name)
    }

    #[test]
    fn builtins_are_epoch_one_and_prefixes_embed_content() {
        let snapshot = SpecSnapshot::builtins();
        assert_eq!(snapshot.epoch(), 1);
        assert!(snapshot.key_prefix().starts_with("e1-"));
        assert!(snapshot.key_prefix().ends_with('/'));
        assert!(snapshot.entries().is_empty());
        // Same content at a different epoch: same hash, different prefix.
        let later = snapshot.at_epoch(7);
        assert_eq!(
            later.digest().split(':').nth(1),
            snapshot.digest().split(':').nth(1)
        );
        assert_ne!(later.key_prefix(), snapshot.key_prefix());
    }

    #[test]
    fn with_spec_replaces_by_name_and_changes_the_hash() {
        let base = SpecSnapshot::builtins();
        let a = base.with_spec(&doc("hot", 25.0), 2).unwrap();
        let b = a.with_spec(&doc("hot", 50.0), 3).unwrap();
        assert_eq!(a.entries().len(), 1);
        assert_eq!(b.entries().len(), 1);
        assert_ne!(
            a.digest().split(':').nth(1),
            b.digest().split(':').nth(1),
            "content change must change the hash"
        );
        assert!((b.spec("hot").unwrap().clock_mhz - 50.0).abs() < 1e-9);
        assert!(a.spec("missing").is_none());
    }

    #[test]
    fn fetch_payload_round_trips_through_the_parser() {
        let snapshot = SpecSnapshot::builtins()
            .with_spec(&doc("alpha", 20.0), 4)
            .unwrap()
            .with_spec(&doc("beta", 30.0), 4)
            .unwrap();
        let payload = snapshot.fetch_payload();
        assert_eq!(osarch_core::metrics::validate_json(&payload), Ok(()));
        let (epoch, docs) = parse_spec_fetch(&json::parse(&payload).unwrap()).unwrap();
        assert_eq!(epoch, 4);
        assert_eq!(docs.len(), 2);
        let rebuilt = SpecSnapshot::from_docs(&docs, epoch).unwrap();
        assert_eq!(rebuilt.digest(), snapshot.digest());
        assert_eq!(rebuilt.key_prefix(), snapshot.key_prefix());
    }

    #[test]
    fn registry_commit_rollback_and_lost_races() {
        let registry = SpecRegistry::new();
        assert_eq!(registry.snapshot().epoch(), 1);
        let name = registry.stage(&doc("hot", 25.0)).unwrap();
        assert_eq!(name, "hot");
        assert_eq!(registry.staged_names(), vec!["hot".to_string()]);

        let base = registry.snapshot();
        let candidate = base
            .with_spec(&registry.staged_doc("hot").unwrap(), base.epoch() + 1)
            .unwrap();
        let active = registry.commit(candidate.clone()).unwrap();
        assert_eq!(active.epoch(), 2);
        assert_eq!(registry.swaps(), 1);
        // A stale candidate (same epoch) loses the race cleanly.
        assert_eq!(registry.commit(candidate).err(), Some(2));

        // Rollback restores last-good content at a strictly newer epoch.
        let restored = registry.rollback_failed("hot", 2).unwrap();
        assert_eq!(restored.epoch(), 3);
        assert!(restored.spec("hot").is_none(), "builtin content restored");
        assert_eq!(registry.rollbacks(), 1);
        assert_eq!(registry.swaps(), 2);
        assert!(registry.staged_names().is_empty(), "failed spec unstaged");
    }

    #[test]
    fn a_failed_probe_never_rolls_back_a_newer_snapshot() {
        // `hot` commits at epoch 2, a second activation commits `next` on
        // top of it at epoch 3, and only then does `hot`'s probe fail.
        // That commit made `hot` the last-good snapshot, so restoring
        // last-good would reinstall the failed spec alone and drop `next`.
        let registry = SpecRegistry::new();
        registry.stage(&doc("hot", 25.0)).unwrap();
        let base = registry.snapshot();
        let hot = registry
            .commit(base.with_spec(&doc("hot", 25.0), 2).unwrap())
            .unwrap();
        let next = registry
            .commit(hot.with_spec(&doc("next", 30.0), 3).unwrap())
            .unwrap();
        let active = registry.rollback_failed("hot", hot.epoch()).unwrap_err();
        assert_eq!(active.digest(), next.digest());
        assert_eq!(registry.snapshot().digest(), next.digest());
        assert!(registry.snapshot().spec("next").is_some());
        assert_eq!((registry.rollbacks(), registry.swaps()), (0, 2));
        assert!(registry.staged_names().is_empty(), "failed spec unstaged");

        // A snapshot gossip adopts mid-probe stays as well.
        let remote = SpecSnapshot::builtins()
            .with_spec(&doc("remote", 40.0), 5)
            .unwrap();
        assert!(registry.adopt(remote.clone()));
        let active = registry.rollback_failed("next", next.epoch()).unwrap_err();
        assert_eq!(active.digest(), remote.digest());
        assert_eq!(registry.rollbacks(), 0);
    }

    #[test]
    fn admin_actions_take_turns() {
        let registry = SpecRegistry::new();
        let first = registry.try_admin().expect("the admin plane starts free");
        assert!(registry.try_admin().is_none(), "a second claim must retry");
        drop(first);
        assert!(registry.try_admin().is_some());
    }

    #[test]
    fn adopt_installs_only_strictly_newer_remote_epochs() {
        let registry = SpecRegistry::new();
        let remote = SpecSnapshot::builtins()
            .with_spec(&doc("remote", 40.0), 5)
            .unwrap();
        assert!(registry.adopt(remote.clone()));
        assert_eq!(registry.snapshot().epoch(), 5);
        assert_eq!(registry.snapshot().digest(), remote.digest());
        assert!(!registry.adopt(remote), "same epoch must be refused");
        assert_eq!(registry.swaps(), 1);
    }

    #[test]
    fn bad_documents_are_refused_at_staging() {
        let registry = SpecRegistry::new();
        let err = registry.stage("{\"schema\":\"nope\"}").unwrap_err();
        assert!(!err.is_empty() && !err.contains('\n'), "{err}");
        assert!(registry.staged_names().is_empty());
    }
}
