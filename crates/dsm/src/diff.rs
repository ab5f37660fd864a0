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
//! The observable result is byte-identical to a byte-at-a-time scalar
//! reference: runs are maximal spans of differing bytes, sorted,
//! non-overlapping, non-adjacent (proptested in the unit tests).

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

// The unit tests live outside `src`, as a child module all the same: they
// read the private representation and keep their names.
#[cfg(test)]
#[path = "../tests/unit/diff.rs"]
mod tests;
