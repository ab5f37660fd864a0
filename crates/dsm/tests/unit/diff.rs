//! The unit tests of `repseq_dsm::diff`, kept out of `src` (the module
//! includes this file by path), with the scalar reference the chunked
//! `Diff::create` is held to.

use super::*;

fn page_of(n: usize, f: impl Fn(usize) -> u8) -> Vec<u8> {
    (0..n).map(f).collect()
}

/// The scalar reference implementation of [`Diff::create`]: one byte
/// at a time. Kept as the equivalence oracle for the chunked path.
fn create_scalar(twin: &[u8], page: &[u8]) -> Diff {
    assert_eq!(twin.len(), page.len(), "twin and page must be the same size");
    let n = page.len();
    let mut runs: Vec<Run> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut i = 0;
    while i < n {
        if twin[i] != page[i] {
            let start = i;
            while i < n && twin[i] != page[i] {
                i += 1;
            }
            runs.push(Run {
                offset: start as u32,
                payload_off: payload.len() as u32,
                len: (i - start) as u32,
            });
            payload.extend_from_slice(&page[start..i]);
        } else {
            i += 1;
        }
    }
    Diff { runs: runs.into(), payload: payload.into() }
}

#[test]
fn identical_pages_give_empty_diff() {
    let twin = page_of(128, |i| i as u8);
    let d = Diff::create(&twin, &twin);
    assert!(d.is_empty());
    assert_eq!(d.payload_bytes(), 0);
}

#[test]
fn single_byte_change() {
    let twin = vec![0u8; 64];
    let mut page = twin.clone();
    page[17] = 9;
    let d = Diff::create(&twin, &page);
    assert_eq!(d.run_count(), 1);
    assert_eq!(d.runs()[0].offset, 17);
    assert_eq!(d.runs()[0].bytes, &[9]);
    let mut fresh = twin.clone();
    d.apply(&mut fresh).unwrap();
    assert_eq!(fresh, page);
}

#[test]
fn adjacent_changes_coalesce() {
    let twin = vec![0u8; 64];
    let mut page = twin.clone();
    page[10..20].fill(1);
    let d = Diff::create(&twin, &page);
    assert_eq!(d.run_count(), 1);
    assert_eq!(d.payload_bytes(), 10);
}

#[test]
fn disjoint_changes_make_separate_runs() {
    let twin = vec![0u8; 64];
    let mut page = twin.clone();
    page[0] = 1;
    page[5] = 2;
    page[63] = 3;
    let d = Diff::create(&twin, &page);
    assert_eq!(d.run_count(), 3);
}

#[test]
fn cloning_shares_the_payload() {
    let twin = vec![0u8; 256];
    let mut page = twin.clone();
    page[10..200].fill(3);
    let d = Diff::create(&twin, &page);
    let d2 = d.clone();
    // Zero-copy: both handles point at the same payload allocation.
    assert!(Arc::ptr_eq(&d.payload, &d2.payload));
    assert!(Arc::ptr_eq(&d.runs, &d2.runs));
    assert_eq!(d, d2);
}

#[test]
fn runs_straddle_chunk_boundaries() {
    // Every (start, len) near u64/u128 chunk boundaries on a page
    // whose size is not a multiple of the chunk width.
    let n = 81;
    let twin = page_of(n, |i| i as u8);
    for start in 0..24 {
        for len in 1..=(n - start).min(40) {
            let mut page = twin.clone();
            for b in &mut page[start..start + len] {
                *b ^= 0xFF; // guaranteed different
            }
            let d = Diff::create(&twin, &page);
            assert_eq!(d.run_count(), 1, "start={start} len={len}");
            assert_eq!(d.runs()[0].offset as usize, start);
            assert_eq!(d.runs()[0].bytes.len(), len);
            let mut rebuilt = twin.clone();
            d.apply(&mut rebuilt).unwrap();
            assert_eq!(rebuilt, page, "start={start} len={len}");
        }
    }
}

#[test]
fn concurrent_disjoint_diffs_merge() {
    // The multiple-writer protocol: two nodes modify different parts of
    // the same page; applying both diffs to a third copy merges them.
    let base = vec![0u8; 256];
    let mut a = base.clone();
    let mut b = base.clone();
    a[..32].copy_from_slice(&[1; 32]);
    b[200..220].copy_from_slice(&[2; 20]);
    let da = Diff::create(&base, &a);
    let db = Diff::create(&base, &b);
    let mut merged = base.clone();
    da.apply(&mut merged).unwrap();
    db.apply(&mut merged).unwrap();
    assert_eq!(&merged[..32], &[1; 32]);
    assert_eq!(&merged[200..220], &[2; 20]);
    assert!(merged[32..200].iter().all(|&x| x == 0));
}

#[test]
fn apply_is_idempotent() {
    let twin = page_of(128, |i| (i * 7) as u8);
    let mut page = twin.clone();
    page[3] = 0;
    page[90] = 0;
    let d = Diff::create(&twin, &page);
    let mut copy = twin.clone();
    d.apply(&mut copy).unwrap();
    d.apply(&mut copy).unwrap();
    assert_eq!(copy, page);
}

#[test]
fn out_of_bounds_run_is_skipped_not_fatal() {
    // Diff made from 128-byte pages, applied to a 64-byte page: the
    // in-bounds run lands, the out-of-bounds one is skipped whole and
    // reported.
    let twin = vec![0u8; 128];
    let mut page = twin.clone();
    page[3] = 7; // in bounds of the small page
    page[100] = 9; // out of bounds
    page[60..70].fill(5); // straddles the end: skipped whole
    let d = Diff::create(&twin, &page);
    assert_eq!(d.run_count(), 3);
    let mut small = vec![0u8; 64];
    let err = d.apply(&mut small).unwrap_err();
    assert_eq!(err.page_len, 64);
    assert_eq!(err.bad_runs, 2);
    assert_eq!(err.first_bad, (60, 10));
    assert_eq!(small[3], 7);
    assert!(small[4..].iter().all(|&b| b == 0), "no partial writes");
}

#[test]
fn wire_size_reflects_runs_and_payload() {
    let twin = vec![0u8; 64];
    let mut page = twin.clone();
    page[1] = 1;
    page[40] = 1;
    let d = Diff::create(&twin, &page);
    assert_eq!(d.wire_size(), 8 + 2 * (8 + 1));
}

proptest::proptest! {
    /// create→apply reconstructs the modified page from the twin.
    #[test]
    fn prop_roundtrip(twin in proptest::collection::vec(0u8..4, 1..512),
                      edits in proptest::collection::vec((0usize..512, 0u8..4), 0..64)) {
        let mut page = twin.clone();
        for (pos, val) in edits {
            let pos = pos % page.len();
            page[pos] = val;
        }
        let d = Diff::create(&twin, &page);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt).unwrap();
        proptest::prop_assert_eq!(rebuilt, page);
    }

    /// Runs are sorted, non-overlapping, non-adjacent, and cover exactly
    /// the differing bytes.
    #[test]
    fn prop_runs_canonical(twin in proptest::collection::vec(0u8..4, 1..256),
                           page in proptest::collection::vec(0u8..4, 1..256)) {
        let n = twin.len().min(page.len());
        let (twin, page) = (&twin[..n], &page[..n]);
        let d = Diff::create(twin, page);
        let mut prev_end: Option<usize> = None;
        let mut covered = vec![false; n];
        for run in d.runs() {
            let start = run.offset as usize;
            proptest::prop_assert!(!run.bytes.is_empty());
            if let Some(pe) = prev_end {
                proptest::prop_assert!(start > pe, "runs must not touch");
            }
            for (k, &b) in run.bytes.iter().enumerate() {
                covered[start + k] = true;
                proptest::prop_assert_eq!(b, page[start + k]);
            }
            prev_end = Some(start + run.bytes.len());
        }
        for i in 0..n {
            proptest::prop_assert_eq!(covered[i], twin[i] != page[i], "byte {} coverage", i);
        }
    }

    /// The chunked path is byte-identical to the scalar reference, in
    /// particular on page sizes that are not multiples of 8/16 and on
    /// runs straddering chunk boundaries (sizes 1..=300 cover every
    /// residue mod 8 and 16).
    #[test]
    fn prop_chunked_equals_scalar(twin in proptest::collection::vec(0u8..4, 1..300),
                                  page in proptest::collection::vec(0u8..4, 1..300)) {
        let n = twin.len().min(page.len());
        let (twin, page) = (&twin[..n], &page[..n]);
        let fast = Diff::create(twin, page);
        let scalar = create_scalar(twin, page);
        proptest::prop_assert_eq!(fast, scalar);
    }
}
