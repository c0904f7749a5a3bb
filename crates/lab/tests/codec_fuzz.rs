//! The decoder fuzz surface: every on-disk format goes through one
//! codec, and the journal is the one results format, so one never-panic
//! sweep covers it. Arbitrary bytes and single-byte mutations of a
//! valid journal (the pinned fixture) must come back from
//! `Journal::load` as `Ok` or a typed error — never a panic.

use mb_lab::journal::Journal;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fresh file per case, so cases never observe each other's bytes.
static CASE: AtomicUsize = AtomicUsize::new(0);

fn case_file() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-lab-codec-fuzz-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("case{}", CASE.fetch_add(1, Ordering::Relaxed)))
}

fn fixture() -> Vec<u8> {
    fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/selftest-1of3.journal"))
        .expect("fixture")
}

/// The journal decoder over `bytes`; any typed outcome is fine.
fn decode(bytes: &[u8]) {
    let path = case_file();
    fs::write(&path, bytes).expect("write case");
    let _ = Journal::load(&path);
    let _ = fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        decode(&bytes);
    }

    /// One byte of a valid journal flipped: walks the separators, hex
    /// digits and header fields far harder than random bytes do.
    #[test]
    fn mutated_fixtures_never_panic(pos in 0usize..512, byte in any::<u8>()) {
        let mut bytes = fixture();
        let at = pos % bytes.len();
        bytes[at] = byte;
        decode(&bytes);
    }
}
