//! Core access types: program counters, addresses, and instructions.
//!
//! Addresses are byte-granular [`Addr`] values; caches operate on
//! [`BlockAddr`] values obtained by shifting out the block-offset bits.
//! The two are distinct newtypes so a byte address can never be used as a
//! block address by mistake.

use std::fmt;

/// Log2 of the cache block size in bytes (64 B blocks, as in the paper).
pub const BLOCK_BITS: u32 = 6;

/// Cache block size in bytes.
pub const BLOCK_BYTES: u64 = 1 << BLOCK_BITS;

/// A program counter (the address of a memory access instruction).
///
/// Dead block predictors key their tables on (hashes of) this value, so it is
/// kept distinct from data addresses at the type level.
///
/// ```
/// use sdbp_trace::Pc;
/// let pc = Pc::new(0x40_1234);
/// assert_eq!(pc.truncated(15), 0x1234);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(u64);

impl Pc {
    /// Creates a program counter from a raw instruction address.
    pub const fn new(raw: u64) -> Self {
        Pc(raw)
    }

    /// Returns the raw instruction address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the low `bits` bits, as used for partial-PC storage in the
    /// sampler (the paper stores 15-bit partial PCs).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 64.
    pub fn truncated(self, bits: u32) -> u64 {
        assert!((1..=64).contains(&bits), "bits must be in 1..=64");
        if bits == 64 {
            self.0
        } else {
            self.0 & ((1u64 << bits) - 1)
        }
    }
}

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pc({:#x})", self.0)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Pc {
    fn from(raw: u64) -> Self {
        Pc::new(raw)
    }
}

/// A byte-granular data address.
///
/// ```
/// use sdbp_trace::Addr;
/// let a = Addr::new(0x1040);
/// assert_eq!(a.block().raw(), 0x41);
/// assert_eq!(a.offset(), 0);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache block containing this address.
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_BITS)
    }

    /// Byte offset of this address within its cache block.
    pub const fn offset(self) -> u64 {
        self.0 & (BLOCK_BYTES - 1)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr::new(raw)
    }
}

/// A block-granular address (a byte address with the offset bits removed).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a raw block number.
    pub const fn new(raw: u64) -> Self {
        BlockAddr(raw)
    }

    /// Returns the raw block number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Cache set index for a cache with `sets` sets (must be a power of two).
    pub fn set_index(self, sets: usize) -> usize {
        debug_assert!(sets.is_power_of_two());
        (self.0 as usize) & (sets - 1)
    }

    /// Tag for a cache with `sets` sets (must be a power of two).
    pub fn tag(self, sets: usize) -> u64 {
        debug_assert!(sets.is_power_of_two());
        self.0 >> sets.trailing_zeros()
    }

    /// Returns the low `bits` bits of the block number, as used for the
    /// sampler's 15-bit partial tags.
    pub fn truncated(self, bits: u32) -> u64 {
        assert!((1..=64).contains(&bits), "bits must be in 1..=64");
        if bits == 64 {
            self.0
        } else {
            self.0 & ((1u64 << bits) - 1)
        }
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockAddr({:#x})", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(raw: u64) -> Self {
        BlockAddr::new(raw)
    }
}

/// Whether a memory reference reads or writes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// A memory reference performed by one instruction.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Byte address referenced.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// True if the *next* instruction's address depends on the loaded value
    /// (pointer chasing). The timing model serializes dependent loads, which
    /// destroys memory-level parallelism exactly as in mcf-like workloads.
    pub dependent: bool,
}

impl MemRef {
    /// Creates an independent read reference.
    pub const fn read(addr: Addr) -> Self {
        MemRef {
            addr,
            kind: AccessKind::Read,
            dependent: false,
        }
    }

    /// Creates an independent write reference.
    pub const fn write(addr: Addr) -> Self {
        MemRef {
            addr,
            kind: AccessKind::Write,
            dependent: false,
        }
    }

    /// Marks this reference as address-generating for the next instruction.
    pub const fn dependent(mut self) -> Self {
        self.dependent = true;
        self
    }
}

/// One dynamic instruction: a program counter plus an optional memory
/// reference. Non-memory instructions still advance the pipeline and the
/// instruction counts used for MPKI.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Instr {
    /// The instruction's address.
    pub pc: Pc,
    /// The memory reference performed, if any.
    pub mem: Option<MemRef>,
}

impl Instr {
    /// A non-memory instruction at `pc`.
    pub const fn non_mem(pc: Pc) -> Self {
        Instr { pc, mem: None }
    }

    /// A memory instruction at `pc` performing `mem`.
    pub const fn mem(pc: Pc, mem: MemRef) -> Self {
        Instr { pc, mem: Some(mem) }
    }

    /// True if this instruction references memory.
    pub const fn is_mem(&self) -> bool {
        self.mem.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_of_address_strips_offset() {
        let a = Addr::new(0xdead_beef);
        assert_eq!(a.block().raw(), 0xdead_beef >> 6);
        assert_eq!((a.block().raw() << 6) | a.offset(), 0xdead_beef);
    }

    #[test]
    fn offset_within_block() {
        assert_eq!(Addr::new(0x1000).offset(), 0);
        assert_eq!(Addr::new(0x103f).offset(), 0x3f);
        assert_eq!(Addr::new(0x1040).offset(), 0);
    }

    #[test]
    fn set_index_and_tag_reassemble_block() {
        let b = BlockAddr::new(0x1234_5678);
        let sets = 2048;
        let set = b.set_index(sets);
        let tag = b.tag(sets);
        assert_eq!(tag << 11 | set as u64, b.raw());
    }

    #[test]
    fn pc_truncation_matches_mask() {
        let pc = Pc::new(0xffff_ffff_ffff_ffff);
        assert_eq!(pc.truncated(15), 0x7fff);
        assert_eq!(pc.truncated(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=64")]
    fn pc_truncation_rejects_zero_bits() {
        let _ = Pc::new(1).truncated(0);
    }

    #[test]
    fn dependent_builder_sets_flag() {
        let m = MemRef::read(Addr::new(0x40)).dependent();
        assert!(m.dependent);
        assert_eq!(m.kind, AccessKind::Read);
        assert!(!MemRef::write(Addr::new(0x40)).dependent);
        assert!(MemRef::write(Addr::new(0x40)).kind.is_write());
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(format!("{}", Pc::new(0x10)), "0x10");
        assert_eq!(format!("{}", Addr::new(0x10)), "0x10");
        assert_eq!(format!("{}", BlockAddr::new(0x10)), "0x10");
        assert_eq!(format!("{:?}", Pc::new(0x10)), "Pc(0x10)");
        assert_eq!(format!("{}", AccessKind::Read), "read");
    }
}
