//! Cross-run determinism ledger. Each run of a given build, workload,
//! seed and pass count stores its output digest and deterministic work
//! counts; a later run with the same key must reproduce them exactly.
//! A count that drifts is a failure, never averaged away.
//!
//! The key names the build (a digest of the executables under test), so
//! a run of changed code starts a record of its own instead of being
//! held to the work counts of the code it replaced.

use crate::Args;
use casa_obs::Fnv1a;
use std::path::Path;

/// FNV-1a digest of the given executables' bytes: the identity of the
/// code a run measures.
pub fn code_id(bins: &[&Path]) -> Result<String, String> {
    let mut h = Fnv1a::new();
    for bin in bins {
        let bytes = std::fs::read(bin).map_err(|e| format!("read {}: {e}", bin.display()))?;
        h.update(&bytes);
    }
    Ok(h.hex())
}

/// The ledger key of a run of `passes` passes.
pub fn key(args: &Args, passes: u64) -> String {
    format!(
        "{}-seed{}-passes{passes}-code{}",
        args.workload, args.seed, args.code_id
    )
}

/// Compare `record` with the one stored under `key`, or store it when
/// there is none yet. Returns a description of the drift on mismatch.
pub fn check_or_record(dir: &Path, key: &str, record: &str) -> Result<(), String> {
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == record => Ok(()),
        Ok(prev) => Err(format!(
            "{key}: deterministic outputs differ from an earlier run with the same seed\n  earlier: {}\n  now:     {}",
            prev.trim_end(),
            record.trim_end()
        )),
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let tmp = dir.join(format!("{key}.txt.{}", std::process::id()));
            std::fs::write(&tmp, record).map_err(|e| format!("write {}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_run_must_match_the_first() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(check_or_record(&dir, "w-1", "digest=a nodes=3\n").is_ok());
        assert!(check_or_record(&dir, "w-1", "digest=a nodes=3\n").is_ok());
        let err = check_or_record(&dir, "w-1", "digest=a nodes=4\n").unwrap_err();
        assert!(err.contains("nodes=4"));
        assert!(check_or_record(&dir, "w-2", "digest=b\n").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn code_id_follows_the_executable_bytes() {
        let dir = std::env::temp_dir().join(format!("perfbench-codeid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a"), dir.join("b"));
        std::fs::write(&a, b"build one").unwrap();
        std::fs::write(&b, b"build two").unwrap();
        let id_a = code_id(&[&a]).unwrap();
        assert_eq!(id_a, code_id(&[&a]).unwrap());
        assert_ne!(id_a, code_id(&[&b]).unwrap());
        assert!(code_id(&[&dir.join("missing")]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
