//! Columnar instruction batches — how a decoded trace file reaches the
//! recorder.
//!
//! The per-record stream API ([`InstrStream`](crate::source::InstrStream))
//! costs one virtual call, one `Result` discriminant and one
//! `Option<MemRef>` construction per instruction; at `.sdbt` v2 decode
//! rates (>100M records/sec) that overhead dominates. A trace file is
//! therefore decoded into batches of columns instead: three parallel
//! columns (flags, program counters, addresses) spanning one decoded
//! chunk, borrowed from whoever owns the backing storage — an in-memory
//! trace image, a decoder's scratch buffer, or a [`ColumnBuf`]. The
//! recorder (`sdbp-cache`'s `try_record_batches`) reads the columns
//! directly.
//!
//! The flags byte is the **canonical record encoding** shared by every
//! trace container version: `sdbp-traceio` re-exports [`FLAG_MEM`],
//! [`FLAG_WRITE`] and [`FLAG_DEPENDENT`] rather than defining its own, so
//! a v1 varint record, a v2 column entry and an in-memory batch all agree
//! bit-for-bit. Non-memory records carry an address column entry of `0`
//! (ignored on decode; the flags byte alone decides whether a record
//! references memory).

use crate::access::{AccessKind, Addr, Instr, MemRef, Pc};

/// Flags byte: the record is a memory instruction.
pub const FLAG_MEM: u8 = 1 << 0;
/// Flags byte: the memory reference is a write.
pub const FLAG_WRITE: u8 = 1 << 1;
/// Flags byte: the next instruction depends on this load (pointer chase).
pub const FLAG_DEPENDENT: u8 = 1 << 2;
/// Any set bit outside this mask marks a corrupt or future record.
pub const FLAG_MASK: u8 = FLAG_MEM | FLAG_WRITE | FLAG_DEPENDENT;

/// Encodes an instruction's kind bits into the canonical flags byte.
#[inline]
pub fn instr_flags(instr: &Instr) -> u8 {
    match instr.mem {
        None => 0,
        Some(m) => {
            let mut flags = FLAG_MEM;
            if m.kind.is_write() {
                flags |= FLAG_WRITE;
            }
            if m.dependent {
                flags |= FLAG_DEPENDENT;
            }
            flags
        }
    }
}

/// Reassembles an instruction from one row of the three columns.
///
/// Callers that obtained the columns from a validated container may rely
/// on `flags` having no bits outside [`FLAG_MASK`]; unknown bits are
/// ignored here (validation is the producer's job, so this stays branch-
/// light on the hot path).
#[inline]
pub fn instr_from_columns(flags: u8, pc: u64, addr: u64) -> Instr {
    if flags & FLAG_MEM == 0 {
        return Instr::non_mem(Pc::new(pc));
    }
    let kind = if flags & FLAG_WRITE != 0 {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    Instr::mem(
        Pc::new(pc),
        MemRef {
            addr: Addr::new(addr),
            kind,
            dependent: flags & FLAG_DEPENDENT != 0,
        },
    )
}

/// One decoded batch: three parallel columns over the same records.
///
/// Borrowed from the producer's storage — no per-record allocation, no
/// copies beyond whatever byte→`u64` widening the container required.
/// Invariant (enforced by [`InstrBatch::new`]): all three slices have the
/// same length, and every flags byte is within [`FLAG_MASK`].
#[derive(Copy, Clone, Debug)]
pub struct InstrBatch<'a> {
    flags: &'a [u8],
    pcs: &'a [u64],
    addrs: &'a [u64],
}

impl<'a> InstrBatch<'a> {
    /// Assembles a batch from three equal-length columns.
    ///
    /// Returns `None` when the column lengths disagree — the caller
    /// (a container decoder) turns that into its own typed error.
    pub fn new(flags: &'a [u8], pcs: &'a [u64], addrs: &'a [u64]) -> Option<Self> {
        if flags.len() != pcs.len() || flags.len() != addrs.len() {
            return None;
        }
        Some(InstrBatch { flags, pcs, addrs })
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The flags column.
    pub fn flags(&self) -> &'a [u8] {
        self.flags
    }

    /// The program-counter column.
    pub fn pcs(&self) -> &'a [u64] {
        self.pcs
    }

    /// The address column (entry `0` for non-memory records).
    pub fn addrs(&self) -> &'a [u64] {
        self.addrs
    }

    /// Reassembles record `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<Instr> {
        let flags = *self.flags.get(i)?;
        let pc = *self.pcs.get(i)?;
        let addr = *self.addrs.get(i)?;
        Some(instr_from_columns(flags, pc, addr))
    }

    /// Iterates the batch as assembled [`Instr`]s (for consumers that
    /// have not been converted to columnar access yet).
    pub fn iter(&self) -> impl Iterator<Item = Instr> + 'a {
        let (flags, pcs, addrs) = (self.flags, self.pcs, self.addrs);
        flags
            .iter()
            .zip(pcs.iter())
            .zip(addrs.iter())
            .map(|((&f, &pc), &addr)| instr_from_columns(f, pc, addr))
    }
}

/// A lending producer of instruction batches.
///
/// Each call invalidates the previous batch (it may borrow the producer's
/// scratch buffers), which is exactly the shape a chunked container
/// decoder needs — decode one chunk into reused storage, hand out a view,
/// repeat. `Ok(None)` marks a clean end of stream.
pub trait InstrBatcher: Send {
    /// Decodes and returns the next batch, or `Ok(None)` at end of
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns a message when the underlying container is corrupt or
    /// unreadable; the typed taxonomy lives with the container format.
    fn next_batch(&mut self) -> Result<Option<InstrBatch<'_>>, String>;
}

/// Owned column storage: the reusable fill target for producers that
/// build batches rather than borrow them (generators, v1 adapters).
#[derive(Clone, Default, Debug)]
pub struct ColumnBuf {
    /// Flags column (one byte per record).
    pub flags: Vec<u8>,
    /// Program-counter column.
    pub pcs: Vec<u64>,
    /// Address column (`0` for non-memory records).
    pub addrs: Vec<u64>,
}

impl ColumnBuf {
    /// Empties all three columns, keeping their capacity.
    pub fn clear(&mut self) {
        self.flags.clear();
        self.pcs.clear();
        self.addrs.clear();
    }

    /// Appends one instruction as a column row.
    pub fn push(&mut self, instr: &Instr) {
        self.flags.push(instr_flags(instr));
        self.pcs.push(instr.pc.raw());
        self.addrs.push(instr.mem.map_or(0, |m| m.addr.raw()));
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Views the buffered rows as a batch.
    pub fn as_batch(&self) -> InstrBatch<'_> {
        // The three columns grow in lockstep (`push`), so lengths agree.
        InstrBatch {
            flags: &self.flags,
            pcs: &self.pcs,
            addrs: &self.addrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<Instr> {
        vec![
            Instr::non_mem(Pc::new(0x400_000)),
            Instr::mem(Pc::new(0x400_004), MemRef::read(Addr::new(0x1_0000_0040))),
            Instr::mem(Pc::new(0x400_008), MemRef::write(Addr::new(0x2_0000_0000))),
            Instr::mem(
                Pc::new(0x400_00c),
                MemRef::read(Addr::new(u64::MAX)).dependent(),
            ),
        ]
    }

    #[test]
    fn columns_round_trip_every_kind() {
        let instrs = sample_instrs();
        let mut buf = ColumnBuf::default();
        for i in &instrs {
            buf.push(i);
        }
        let batch = buf.as_batch();
        assert_eq!(batch.len(), instrs.len());
        let back: Vec<_> = batch.iter().collect();
        assert_eq!(back, instrs);
        for (i, want) in instrs.iter().enumerate() {
            assert_eq!(batch.get(i).as_ref(), Some(want));
        }
        assert_eq!(batch.get(instrs.len()), None);
    }

    #[test]
    fn flags_encode_matches_mask() {
        for i in sample_instrs() {
            assert_eq!(instr_flags(&i) & !FLAG_MASK, 0);
        }
        assert_eq!(instr_flags(&Instr::non_mem(Pc::new(1))), 0);
        let w = Instr::mem(Pc::new(1), MemRef::write(Addr::new(2)));
        assert_eq!(instr_flags(&w), FLAG_MEM | FLAG_WRITE);
    }

    #[test]
    fn mismatched_columns_are_rejected() {
        let flags = [0u8; 3];
        let pcs = [0u64; 3];
        let short = [0u64; 2];
        assert!(InstrBatch::new(&flags, &pcs, &short).is_none());
        assert!(InstrBatch::new(&flags, &pcs, &[0u64; 3]).is_some());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut buf = ColumnBuf::default();
        for i in sample_instrs() {
            buf.push(&i);
        }
        let cap = buf.pcs.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.pcs.capacity(), cap);
    }
}
