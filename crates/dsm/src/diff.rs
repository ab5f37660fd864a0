//! Diffs: run-length encodings of the modifications a node made to a page,
//! computed by comparing the page against its *twin* (the copy saved at the
//! first write). The multiple-writer protocol merges concurrent writers by
//! exchanging and applying diffs instead of whole pages (§2.2.2).
//!
//! # Representation
//!
//! A diff is a sorted list of run descriptors plus **one** packed payload
//! buffer behind an [`Arc`]. Cloning a diff — which happens every time a
//! diff is served, cached under another interval key, or multicast —
//! therefore never copies payload bytes: only the two `Arc` handles are
//! duplicated. The descriptors record where in the page and where in the
//! payload each run lives.
//!
//! # Hot path
//!
//! [`Diff::create`] is the simulator's hottest host-side loop: every write
//! fault, interval invalidation, and diff request funnels through it. It
//! compares twin and page in `u64` chunks — skipping equal spans eight
//! bytes per step and extending differing runs eight bytes per step via a
//! zero-byte test on the XOR of the chunks — with a whole-page `==` fast
//! path for the common no-change case and scalar fixup at run boundaries.
//! The observable result is byte-identical to the scalar reference
//! [`Diff::create_scalar`]: runs are maximal spans of differing bytes,
//! sorted, non-overlapping, non-adjacent (proptested below).

use std::sync::Arc;

/// One run of modified bytes within a page: a borrowed view into the
/// diff's shared payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffRun<'a> {
    /// Byte offset within the page.
    pub offset: u32,
    /// The new bytes.
    pub bytes: &'a [u8],
}

/// Internal run descriptor: `len` bytes at page offset `offset`, stored at
/// `payload_off` in the packed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    offset: u32,
    payload_off: u32,
    len: u32,
}

/// A diff run that could not be applied because it falls outside the
/// target page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffError {
    /// Length of the page the diff was applied to.
    pub page_len: usize,
    /// Number of runs that were skipped.
    pub bad_runs: usize,
    /// `(offset, len)` of the first skipped run.
    pub first_bad: (u32, u32),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} diff run(s) outside a {}-byte page (first: {} bytes at offset {})",
            self.bad_runs, self.page_len, self.first_bad.1, self.first_bad.0
        )
    }
}

impl std::error::Error for DiffError {}

/// The modifications made to one page, as a sorted list of
/// non-overlapping, non-adjacent runs over a shared payload buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    runs: Arc<[Run]>,
    payload: Arc<[u8]>,
}

impl Default for Diff {
    fn default() -> Self {
        Diff { runs: Arc::new([]), payload: Arc::new([]) }
    }
}

/// Word size of the chunked comparison loops.
const W: usize = std::mem::size_of::<u64>();

#[inline(always)]
fn load(s: &[u8], i: usize) -> u64 {
    u64::from_ne_bytes(s[i..i + W].try_into().unwrap())
}

/// True if any byte of `x` is zero (classic SWAR bit trick).
#[inline(always)]
fn has_zero_byte(x: u64) -> bool {
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080 != 0
}

impl Diff {
    /// Compute the diff of `page` against its `twin`. Runs are maximal
    /// spans of differing bytes; adjacent differing bytes coalesce into one
    /// run.
    pub fn create(twin: &[u8], page: &[u8]) -> Diff {
        assert_eq!(twin.len(), page.len(), "twin and page must be the same size");
        // Fast path: the common "twinned but ultimately unchanged" page.
        // Slice equality is a vectorized memcmp under the hood.
        if twin == page {
            return Diff::default();
        }
        let n = page.len();
        let mut runs: Vec<Run> = Vec::new();
        let mut payload: Vec<u8> = Vec::new();
        let mut i = 0usize;
        while i < n {
            // Skip the equal span: whole words, then the word straddling
            // the first difference byte-by-byte.
            while i + W <= n && load(twin, i) == load(page, i) {
                i += W;
            }
            while i < n && twin[i] == page[i] {
                i += 1;
            }
            if i >= n {
                break;
            }
            // Extend the differing run: whole words while all eight bytes
            // differ (the XOR has no zero byte), then byte-by-byte up to
            // the first equal byte.
            let start = i;
            while i + W <= n && !has_zero_byte(load(twin, i) ^ load(page, i)) {
                i += W;
            }
            while i < n && twin[i] != page[i] {
                i += 1;
            }
            runs.push(Run {
                offset: start as u32,
                payload_off: payload.len() as u32,
                len: (i - start) as u32,
            });
            payload.extend_from_slice(&page[start..i]);
        }
        Diff { runs: runs.into(), payload: payload.into() }
    }

    /// The scalar reference implementation of [`Diff::create`]: one byte
    /// at a time. Kept as the equivalence oracle for the chunked path.
    pub fn create_scalar(twin: &[u8], page: &[u8]) -> Diff {
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

    /// Apply the diff to a page copy. Idempotent (runs carry absolute
    /// values), so receiving the same diff twice — which the multicast
    /// recovery path can cause — is harmless.
    ///
    /// A run falling outside `page` (a corrupted or mis-sized diff, e.g.
    /// from the multicast recovery path) is skipped whole — never
    /// partially written — and reported via the returned [`DiffError`];
    /// all in-bounds runs are still applied.
    pub fn apply(&self, page: &mut [u8]) -> Result<(), DiffError> {
        let mut err: Option<DiffError> = None;
        for run in self.runs.iter() {
            let start = run.offset as usize;
            let Some(end) = start.checked_add(run.len as usize) else {
                note_bad(&mut err, page.len(), run);
                continue;
            };
            if end > page.len() {
                note_bad(&mut err, page.len(), run);
                continue;
            }
            let p = run.payload_off as usize;
            page[start..end].copy_from_slice(&self.payload[p..p + run.len as usize]);
        }
        match err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// True if the diff carries no modifications.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total modified bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Approximate wire size: 8 bytes of header per run plus the payload
    /// (offset + length words, as TreadMarks encodes diffs).
    pub fn wire_size(&self) -> u64 {
        8 + self.runs.len() as u64 * 8 + self.payload.len() as u64
    }

    /// The runs, for inspection.
    pub fn runs(&self) -> Vec<DiffRun<'_>> {
        self.iter_runs().collect()
    }

    /// Iterate the runs without materializing a `Vec`.
    pub fn iter_runs(&self) -> impl Iterator<Item = DiffRun<'_>> {
        self.runs.iter().map(|r| DiffRun {
            offset: r.offset,
            bytes: &self.payload[r.payload_off as usize..(r.payload_off + r.len) as usize],
        })
    }
}

fn note_bad(err: &mut Option<DiffError>, page_len: usize, run: &Run) {
    match err {
        Some(e) => e.bad_runs += 1,
        None => *err = Some(DiffError { page_len, bad_runs: 1, first_bad: (run.offset, run.len) }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(n: usize, f: impl Fn(usize) -> u8) -> Vec<u8> {
        (0..n).map(f).collect()
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
            let scalar = Diff::create_scalar(twin, page);
            proptest::prop_assert_eq!(fast, scalar);
        }
    }
}
