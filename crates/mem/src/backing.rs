//! Flat word-addressed backing store: the architectural content of the
//! external DDR memory.

use medea_cache::{Addr, WORDS_PER_LINE};

/// Words in one page of the store: 4 KiB, a whole number of lines.
const PAGE_WORDS: usize = 1024;

/// The DDR's architectural state: a flat array of 32-bit words.
///
/// All accesses are word- or line-aligned; the MEDEA data path is 32 bits
/// wide end to end (one word per flit).
///
/// The words are held a 4 KiB page at a time, and a page is allocated on
/// its first write: a word that was never written reads as zero without
/// one. Each bank backs the whole address map (megabytes per bank) while a
/// run writes a small part of it, so the host memory a run uses follows
/// what it writes, not the size of the map.
#[derive(Debug, Clone)]
pub struct BackingStore {
    pages: Vec<Option<Box<[u32; PAGE_WORDS]>>>,
    words: usize,
}

impl BackingStore {
    /// Allocate `bytes` of zeroed memory (rounded up to a whole line).
    pub fn new(bytes: usize) -> Self {
        let words = bytes.div_ceil(WORDS_PER_LINE * 4) * WORDS_PER_LINE;
        BackingStore { pages: vec![None; words.div_ceil(PAGE_WORDS)], words }
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> usize {
        self.words * 4
    }

    fn word_index(&self, addr: Addr) -> usize {
        assert_eq!(addr % 4, 0, "unaligned word access at {addr:#x}");
        let idx = addr as usize / 4;
        assert!(idx < self.words, "address {addr:#x} beyond {} bytes of DDR", self.bytes());
        idx
    }

    /// The page holding word `idx`, allocated zeroed on first use.
    fn page_mut(&mut self, idx: usize) -> &mut [u32; PAGE_WORDS] {
        self.pages[idx / PAGE_WORDS].get_or_insert_with(|| Box::new([0; PAGE_WORDS]))
    }

    /// Read the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses — those are simulator
    /// bugs, not recoverable conditions.
    pub fn read_word(&self, addr: Addr) -> u32 {
        let idx = self.word_index(addr);
        self.pages[idx / PAGE_WORDS].as_ref().map_or(0, |page| page[idx % PAGE_WORDS])
    }

    /// Write the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    pub fn write_word(&mut self, addr: Addr, value: u32) {
        let idx = self.word_index(addr);
        self.page_mut(idx)[idx % PAGE_WORDS] = value;
    }

    /// Read the full line at line-aligned `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not line-aligned or out of range.
    pub fn read_line(&self, line: Addr) -> [u32; WORDS_PER_LINE] {
        assert_eq!(line as usize % (WORDS_PER_LINE * 4), 0, "unaligned line {line:#x}");
        let base = self.word_index(line);
        let mut out = [0u32; WORDS_PER_LINE];
        if let Some(page) = &self.pages[base / PAGE_WORDS] {
            out.copy_from_slice(&page[base % PAGE_WORDS..][..WORDS_PER_LINE]);
        }
        out
    }

    /// Write the full line at line-aligned `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not line-aligned or out of range.
    pub fn write_line(&mut self, line: Addr, data: [u32; WORDS_PER_LINE]) {
        assert_eq!(line as usize % (WORDS_PER_LINE * 4), 0, "unaligned line {line:#x}");
        let base = self.word_index(line);
        let offset = base % PAGE_WORDS;
        self.page_mut(base)[offset..offset + WORDS_PER_LINE].copy_from_slice(&data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_up_to_lines() {
        let s = BackingStore::new(17);
        assert_eq!(s.bytes(), 32);
    }

    #[test]
    fn word_roundtrip() {
        let mut s = BackingStore::new(64);
        s.write_word(0x3C, 0xABCD);
        assert_eq!(s.read_word(0x3C), 0xABCD);
        assert_eq!(s.read_word(0x38), 0);
    }

    #[test]
    fn line_roundtrip() {
        let mut s = BackingStore::new(64);
        s.write_line(0x10, [1, 2, 3, 4]);
        assert_eq!(s.read_line(0x10), [1, 2, 3, 4]);
        assert_eq!(s.read_word(0x18), 3);
    }

    #[test]
    fn pages_are_allocated_on_first_write() {
        let mut s = BackingStore::new(4 * 1024 * 1024);
        let resident = |s: &BackingStore| s.pages.iter().filter(|p| p.is_some()).count();
        assert_eq!(resident(&s), 0);
        assert_eq!(s.read_line(0x2000), [0; WORDS_PER_LINE]);
        assert_eq!(s.read_word(0x3F_FFFC), 0);
        assert_eq!(resident(&s), 0, "reads allocate nothing");
        s.write_word(0x3F_FFFC, 5);
        s.write_line(0x2000, [1, 2, 3, 4]);
        assert_eq!(resident(&s), 2);
        assert_eq!(s.read_word(0x3F_FFFC), 5);
        assert_eq!(s.read_word(0x3F_FFF8), 0);
        assert_eq!(s.read_line(0x2000), [1, 2, 3, 4]);
    }

    #[test]
    fn words_either_side_of_a_page_boundary_are_distinct() {
        let mut s = BackingStore::new(2 * PAGE_WORDS * 4);
        let edge = (PAGE_WORDS * 4) as Addr;
        s.write_line(edge - 16, [1, 2, 3, 4]);
        s.write_line(edge, [5, 6, 7, 8]);
        assert_eq!(s.read_word(edge - 4), 4);
        assert_eq!(s.read_word(edge), 5);
        assert_eq!(s.read_line(edge - 16), [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn out_of_range_panics() {
        BackingStore::new(16).read_word(0x20);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_line_panics() {
        BackingStore::new(64).read_line(0x4);
    }
}
