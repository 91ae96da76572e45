//! Read-only memory-mapped files for zero-copy archive loads.
//!
//! [`Mapping`] is a minimal, dependency-free wrapper over raw `mmap` /
//! `munmap` FFI (std already links libc, so no crate is needed). The archive
//! reader maps a `.lbca` file once and hands out `Arc<Mapping>`-backed word
//! slices to [`crate::packed::PackedInts`], so packed column payloads are
//! borrowed straight from the page cache instead of copied onto the heap.
//!
//! Safety discipline:
//!
//! * the mapping is `PROT_READ` + `MAP_PRIVATE` — nothing through this type
//!   can write the file;
//! * the pages stay mapped for as long as *any* `Arc<Mapping>` clone lives
//!   (`munmap` runs in `Drop` of the last clone), so a borrowed slice can
//!   never outlive its pages — the mid-read `munmap` pattern is
//!   unrepresentable;
//! * consumers that need typed views (`&[u64]`) must go through
//!   [`Mapping::u64_slice`], which checks alignment and bounds and returns
//!   `None` instead of constructing an unaligned reference (misaligned v3
//!   payloads surface as typed archive errors, never UB).
//!
//! * [`Mapping::release`] hands resident pages back to the kernel with
//!   `madvise(MADV_DONTNEED)`. On a private mapping that was never written
//!   this drops nothing but residency: the next touch of a released page is
//!   a minor fault that maps the file's bytes from the page cache again, so
//!   every slice handed out keeps reading the same bytes.
//!
//! On non-Unix targets (or if the `mmap` call itself fails — e.g. an empty
//! file, an exotic filesystem) [`Mapping::map_file`] returns an error and
//! callers fall back to the plain read+decode path.

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MADV_DONTNEED: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        pub fn getpagesize() -> c_int;
    }
}

/// A read-only memory mapping of an entire file.
pub struct Mapping {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is read-only (`PROT_READ`) and private; the pointed-at
// pages never change through this type and are valid until `Drop`, so shared
// references from any thread are sound.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `path` read-only in its entirety. Returns an error on non-Unix
    /// targets, for zero-length files (`mmap` rejects them), or when the
    /// `mmap` call fails — callers are expected to fall back to `fs::read`.
    pub fn map_file(path: &Path) -> io::Result<Mapping> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "refusing to map a zero-length file",
                ));
            }
            // SAFETY: plain mmap of an open fd; the result is checked against
            // MAP_FAILED before use, and the fd may be closed after mmap
            // returns (the mapping keeps its own reference to the pages).
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Mapping { ptr: ptr as *const u8, len })
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Err(io::Error::new(io::ErrorKind::Unsupported, "mmap is only wired up on Unix"))
        }
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` points at `len` mapped read-only bytes that stay
        // valid until `Drop`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is mapped (never constructed today, but keeps the
    /// `len`/`is_empty` pairing honest).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A `&[u64]` view of `count` little-endian words starting at byte
    /// `offset`, or `None` when the range is out of bounds **or not 8-byte
    /// aligned** (constructing an unaligned `&[u64]` would be UB; the caller
    /// reports a typed corruption error instead).
    pub fn u64_slice(&self, offset: usize, count: usize) -> Option<&[u64]> {
        let bytes = count.checked_mul(8)?;
        let end = offset.checked_add(bytes)?;
        if end > self.len {
            return None;
        }
        // SAFETY: bounds checked above; alignment checked here; u64 has no
        // invalid bit patterns; the pages are valid until `Drop`.
        let start = unsafe { self.ptr.add(offset) };
        if !(start as usize).is_multiple_of(std::mem::align_of::<u64>()) {
            return None;
        }
        Some(unsafe { std::slice::from_raw_parts(start as *const u64, count) })
    }

    /// Hands the whole pages inside the byte range `range` back to the
    /// kernel (`madvise(MADV_DONTNEED)`); the partial pages at either end
    /// stay, as do pages outside the mapping. The bytes do not change: the
    /// mapping is private and never written, so a released page is mapped
    /// again from the page cache on its next touch (a minor fault). A no-op
    /// off Unix, and when the kernel declines the advice.
    pub fn release(&self, range: std::ops::Range<usize>) {
        #[cfg(unix)]
        {
            // SAFETY: `getpagesize` has no preconditions.
            let page = unsafe { sys::getpagesize() } as usize;
            // `mmap` returns a page-aligned base, so page boundaries of the
            // file are page boundaries of the mapping.
            let start = range.start.next_multiple_of(page);
            let end = range.end.min(self.len) / page * page;
            if start < end {
                // SAFETY: `start..end` lies inside the mapping and is page
                // aligned; the advice drops residency only (see above), so
                // every outstanding borrow stays valid and reads the same
                // bytes. A failure leaves the pages resident, which is fine.
                unsafe {
                    sys::madvise(
                        self.ptr.add(start) as *mut std::ffi::c_void,
                        end - start,
                        sys::MADV_DONTNEED,
                    );
                }
            }
        }
        #[cfg(not(unix))]
        let _ = range;
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: `ptr`/`len` came from a successful mmap and are unmapped
        // exactly once.
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("legobase-mapped-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        path
    }

    #[test]
    #[cfg(unix)]
    fn maps_and_reads_back() {
        let path = temp("roundtrip.bin", &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let m = Mapping::map_file(&path).expect("map");
        assert_eq!(m.len(), 9);
        assert!(!m.is_empty());
        assert_eq!(m.bytes(), &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // One aligned word at offset 0.
        assert_eq!(m.u64_slice(0, 1), Some(&[u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8])][..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg(unix)]
    fn u64_slice_rejects_misalignment_and_overflow() {
        let path = temp("align.bin", &[0u8; 64]);
        let m = Mapping::map_file(&path).expect("map");
        assert!(m.u64_slice(0, 8).is_some());
        // Page-aligned base + odd offset = misaligned view.
        assert!(m.u64_slice(1, 1).is_none());
        assert!(m.u64_slice(4, 1).is_none());
        // Out of bounds, including overflow-adjacent sizes.
        assert!(m.u64_slice(0, 9).is_none());
        assert!(m.u64_slice(64, 1).is_none());
        assert!(m.u64_slice(usize::MAX, 1).is_none());
        assert!(m.u64_slice(0, usize::MAX).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg(unix)]
    fn released_pages_read_back_the_same_bytes() {
        let bytes: Vec<u8> = (0..5 * 4096 + 100).map(|i| (i * 7 % 251) as u8).collect();
        let path = temp("release.bin", &bytes);
        let m = Mapping::map_file(&path).expect("map");
        assert_eq!(m.bytes(), &bytes[..]);
        // Partial pages at both ends, the whole mapping, an empty range and
        // one reaching past the end: the bytes never change.
        for range in [100..3 * 4096 + 5, 0..m.len(), 4096..4096, 2 * 4096..usize::MAX] {
            m.release(range);
            assert_eq!(m.bytes(), &bytes[..]);
        }
        let words = m.u64_slice(4096, 8).expect("aligned words");
        m.release(0..m.len());
        assert_eq!(words, m.u64_slice(4096, 8).expect("aligned words"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg(unix)]
    fn zero_length_files_fall_back() {
        let path = temp("empty.bin", &[]);
        assert!(Mapping::map_file(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(Mapping::map_file(Path::new("/nonexistent/legobase.lbca")).is_err());
    }
}
