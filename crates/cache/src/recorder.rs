//! One-pass recording of a workload's LLC demand stream.
//!
//! Running the synthetic instruction stream through the fixed
//! [`crate::hierarchy::UpperLevels`] once yields two compact
//! artifacts:
//!
//! * a per-instruction [`InstrRecord`] (one byte each) capturing the service
//!   level and dependence flag the timing model needs, and
//! * the ordered list of [`LlcAccess`]es — the only input every LLC
//!   replacement policy needs.
//!
//! Each policy under study is then evaluated by [`crate::replay()`](crate::replay::replay) at a tiny
//! fraction of the cost of re-simulating the whole hierarchy.

use crate::hierarchy::{ServiceLevel, UpperLevels};
use sdbp_trace::batch::{InstrBatcher, FLAG_DEPENDENT, FLAG_MEM, FLAG_WRITE};
use sdbp_trace::{AccessKind, Addr, BlockAddr, Instr, Pc};

/// Where an instruction was serviced (or that it was not a memory access).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum InstrKind {
    /// Not a memory instruction.
    NonMem,
    /// Load/store that hit in the L1.
    L1Hit,
    /// Load/store that hit in the L2.
    L2Hit,
    /// Load/store that accesses the LLC; consumes the next entry of the
    /// workload's LLC stream during timing replay.
    Llc,
}

/// One instruction's timing-relevant facts, packed into a byte.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct InstrRecord(u8);

const KIND_MASK: u8 = 0b0011;
const DEP_BIT: u8 = 0b0100;

impl InstrRecord {
    /// Packs a record.
    pub fn new(kind: InstrKind, dependent: bool) -> Self {
        let k = match kind {
            InstrKind::NonMem => 0,
            InstrKind::L1Hit => 1,
            InstrKind::L2Hit => 2,
            InstrKind::Llc => 3,
        };
        InstrRecord(k | if dependent { DEP_BIT } else { 0 })
    }

    /// The service level.
    pub fn kind(self) -> InstrKind {
        match self.0 & KIND_MASK {
            0 => InstrKind::NonMem,
            1 => InstrKind::L1Hit,
            2 => InstrKind::L2Hit,
            _ => InstrKind::Llc,
        }
    }

    /// Whether the next instruction depends on this load.
    pub const fn dependent(self) -> bool {
        self.0 & DEP_BIT != 0
    }
}

/// One access of the recorded LLC demand stream.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LlcAccess {
    /// PC of the instruction (the signal dead block predictors use).
    pub pc: Pc,
    /// Referenced block (already tagged with the core id for multi-core
    /// runs, so streams from different cores never alias).
    pub block: BlockAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Issuing core.
    pub core: u8,
    /// Index of the issuing instruction within its core's stream (used to
    /// merge multi-core streams fairly).
    pub instr: u32,
}

/// A workload after the one-time recording pass.
#[derive(Clone, Debug)]
pub struct RecordedWorkload {
    /// Workload name (benchmark name in result tables).
    pub name: String,
    /// Per-instruction timing records.
    pub records: Vec<InstrRecord>,
    /// The LLC demand stream.
    pub llc: Vec<LlcAccess>,
}

impl RecordedWorkload {
    /// Number of instructions recorded.
    pub fn instructions(&self) -> u64 {
        self.records.len() as u64
    }

    /// LLC accesses per kilo-instruction (the working pressure the LLC
    /// sees, independent of its policy).
    pub fn llc_apki(&self) -> f64 {
        self.llc.len() as f64 * 1000.0 / self.records.len().max(1) as f64
    }
}

/// Bits reserved at the top of the block address for the core tag.
const CORE_TAG_SHIFT: u32 = 44;
/// Additional low-position core salt: XOR-ing the core id here (still above
/// any set-index bits) keeps *partial*-tag structures — the sampler's
/// 15-bit tags cover block bits just above the set index — from aliasing
/// identical numeric addresses across cores, as distinct physical pages
/// would prevent on real hardware. XOR is bijective, so per-core streams
/// stay internally collision-free.
const CORE_SALT_SHIFT: u32 = 20;

/// Applies the per-core address-space tag.
fn tag_block(block: u64, core: u8) -> u64 {
    (block ^ (u64::from(core) << CORE_SALT_SHIFT)) | (u64::from(core) << CORE_TAG_SHIFT)
}

/// Records `instructions` instructions of `instrs` through a fresh L1/L2
/// pair for core 0. See [`record_for_core`] for multi-core streams.
pub fn record<I>(name: &str, instrs: I, instructions: u64) -> RecordedWorkload
where
    I: IntoIterator<Item = Instr>,
{
    record_for_core(name, instrs, instructions, 0)
}

/// Records a per-core stream: block addresses are tagged with `core` in
/// their high bits so concurrently-run streams never alias in a shared LLC,
/// and every [`LlcAccess::core`] carries the core id.
///
/// # Panics
///
/// Panics if the instruction stream ends before `instructions` were taken.
/// Fallible sources (trace files) should use [`try_record_for_core`],
/// which reports both exhaustion and mid-stream source errors as values.
pub fn record_for_core<I>(name: &str, instrs: I, instructions: u64, core: u8) -> RecordedWorkload
where
    I: IntoIterator<Item = Instr>,
{
    match try_record_for_core(
        name,
        instrs.into_iter().map(Ok::<_, std::convert::Infallible>),
        instructions,
        core,
    ) {
        Ok(w) => w,
        #[expect(
            clippy::panic,
            reason = "documented panicking wrapper; fallible callers use try_record_for_core"
        )]
        Err(RecordError::Exhausted { got, .. }) => {
            panic!("instruction stream for {name} ended at {got}")
        }
        #[expect(
            clippy::panic,
            reason = "documented panicking wrapper; fallible callers use try_record_for_core"
        )]
        Err(RecordError::TooLong { wanted }) => {
            panic!("{wanted} instructions exceed the recordable u32 ordinal space")
        }
        Err(RecordError::Source(e)) => match e {},
    }
}

/// Why a recording pass over a fallible instruction source failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecordError<E> {
    /// The source itself failed mid-stream (I/O error, corrupt chunk).
    Source(E),
    /// The stream ended after `got` of the `wanted` instructions.
    Exhausted {
        /// Instructions successfully taken before the stream ended.
        got: u64,
        /// Instructions requested.
        wanted: u64,
    },
    /// More instructions were requested than [`LlcAccess::instr`] can
    /// index (`u32::MAX`); recording would silently truncate ordinals.
    TooLong {
        /// Instructions requested.
        wanted: u64,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for RecordError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Source(e) => write!(f, "trace source failed: {e}"),
            RecordError::Exhausted { got, wanted } => {
                write!(f, "instruction stream ended at {got} of {wanted}")
            }
            RecordError::TooLong { wanted } => {
                write!(
                    f,
                    "{wanted} instructions exceed the u32 ordinal space of LlcAccess"
                )
            }
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for RecordError<E> {}

/// [`record_for_core`] over a fallible instruction source: the streaming
/// replay path for recorded trace files, where an I/O error or corrupt
/// chunk must surface as a typed error instead of a panic.
///
/// Consumes the source incrementally — memory stays bounded by the
/// source's own buffering (one chunk for `.sdbt` readers) plus the
/// recorded output itself.
///
/// # Errors
///
/// [`RecordError::Source`] wraps the first source error;
/// [`RecordError::Exhausted`] reports a stream that ended early;
/// [`RecordError::TooLong`] rejects requests past the u32 ordinal space
/// of [`LlcAccess::instr`] before any work is done.
pub fn try_record_for_core<I, E>(
    name: &str,
    instrs: I,
    instructions: u64,
    core: u8,
) -> Result<RecordedWorkload, RecordError<E>>
where
    I: IntoIterator<Item = Result<Instr, E>>,
{
    if instructions > u64::from(u32::MAX) {
        return Err(RecordError::TooLong {
            wanted: instructions,
        });
    }
    let mut upper = UpperLevels::new();
    let mut records = Vec::with_capacity(usize::try_from(instructions).unwrap_or(0));
    let mut llc = Vec::new();
    let mut iter = instrs.into_iter();
    for i in 0..instructions {
        let instr = match iter.next() {
            Some(Ok(instr)) => instr,
            Some(Err(e)) => return Err(RecordError::Source(e)),
            None => {
                return Err(RecordError::Exhausted {
                    got: i,
                    wanted: instructions,
                })
            }
        };
        match instr.mem {
            None => records.push(InstrRecord::new(InstrKind::NonMem, false)),
            Some(m) => {
                let kind = match upper.access(m.addr.block(), m.kind.is_write()) {
                    ServiceLevel::L1 => InstrKind::L1Hit,
                    ServiceLevel::L2 => InstrKind::L2Hit,
                    ServiceLevel::Llc => {
                        llc.push(LlcAccess {
                            pc: instr.pc,
                            block: BlockAddr::new(tag_block(m.addr.block().raw(), core)),
                            kind: m.kind,
                            core,
                            #[expect(
                                clippy::cast_possible_truncation,
                                reason = "i < instructions <= u32::MAX, guarded at entry"
                            )]
                            instr: i as u32,
                        });
                        InstrKind::Llc
                    }
                };
                records.push(InstrRecord::new(kind, m.dependent));
            }
        }
    }
    Ok(RecordedWorkload {
        name: name.to_owned(),
        records,
        llc,
    })
}

/// [`try_record_for_core`] over a columnar batch source — the fast door
/// for buffered `.sdbt` traces.
///
/// The inner loop reads the three columns directly (no per-record
/// `Result`, no `Instr`/`Option<MemRef>` construction), which is where
/// the batch decode path's throughput actually lands in the recorder.
/// The L1/L2 filter is inherently sequential state, so batches are
/// consumed in order; output is bit-identical to the streaming path.
///
/// # Errors
///
/// As [`try_record_for_core`], with source errors already stringly typed
/// at the [`InstrBatcher`] boundary.
pub fn try_record_batches(
    name: &str,
    batches: &mut dyn InstrBatcher,
    instructions: u64,
    core: u8,
) -> Result<RecordedWorkload, RecordError<String>> {
    if instructions > u64::from(u32::MAX) {
        return Err(RecordError::TooLong {
            wanted: instructions,
        });
    }
    let mut upper = UpperLevels::new();
    let mut records = Vec::with_capacity(usize::try_from(instructions).unwrap_or(0));
    let mut llc = Vec::new();
    let mut taken: u64 = 0;
    while taken < instructions {
        let batch = match batches.next_batch() {
            Ok(Some(b)) => b,
            Ok(None) => {
                return Err(RecordError::Exhausted {
                    got: taken,
                    wanted: instructions,
                })
            }
            Err(e) => return Err(RecordError::Source(e)),
        };
        let room = usize::try_from(instructions - taken).unwrap_or(usize::MAX);
        let rows = batch
            .flags()
            .iter()
            .zip(batch.pcs())
            .zip(batch.addrs())
            .take(room);
        for ((&flags, &pc), &addr) in rows {
            if flags & FLAG_MEM == 0 {
                records.push(InstrRecord::new(InstrKind::NonMem, false));
            } else {
                let is_write = flags & FLAG_WRITE != 0;
                let block = Addr::new(addr).block();
                let kind = match upper.access(block, is_write) {
                    ServiceLevel::L1 => InstrKind::L1Hit,
                    ServiceLevel::L2 => InstrKind::L2Hit,
                    ServiceLevel::Llc => {
                        llc.push(LlcAccess {
                            pc: Pc::new(pc),
                            block: BlockAddr::new(tag_block(block.raw(), core)),
                            kind: if is_write {
                                AccessKind::Write
                            } else {
                                AccessKind::Read
                            },
                            core,
                            #[expect(
                                clippy::cast_possible_truncation,
                                reason = "taken < instructions <= u32::MAX, guarded at entry"
                            )]
                            instr: taken as u32,
                        });
                        InstrKind::Llc
                    }
                };
                records.push(InstrRecord::new(kind, flags & FLAG_DEPENDENT != 0));
            }
            taken += 1;
        }
    }
    Ok(RecordedWorkload {
        name: name.to_owned(),
        records,
        llc,
    })
}

/// Merges per-core LLC streams into one shared-LLC stream, ordered by the
/// issuing instruction index (all cores progress at the same instruction
/// rate, the methodology of the paper's §VI-A2).
pub fn merge_streams(workloads: &[RecordedWorkload]) -> Vec<LlcAccess> {
    let streams: Vec<&[LlcAccess]> = workloads.iter().map(|w| w.llc.as_slice()).collect();
    merge_llc_streams(&streams)
}

/// [`merge_streams`] over borrowed access slices.
pub fn merge_llc_streams(streams: &[&[LlcAccess]]) -> Vec<LlcAccess> {
    let mut cursors = vec![0usize; streams.len()];
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut merged = Vec::with_capacity(total);
    loop {
        // Ties on `instr` go to the lowest core index: `<` keeps the
        // first candidate seen, and streams are scanned in core order.
        let mut best: Option<(usize, LlcAccess)> = None;
        for (c, (s, cur)) in streams.iter().zip(&cursors).enumerate() {
            if let Some(&a) = s.get(*cur) {
                if best.is_none_or(|(_, b): (usize, LlcAccess)| a.instr < b.instr) {
                    best = Some((c, a));
                }
            }
        }
        match best {
            Some((c, a)) => {
                merged.push(a);
                if let Some(cur) = cursors.get_mut(c) {
                    *cur += 1;
                }
            }
            None => break,
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::{Addr, MemRef, TraceBuilder};

    fn stream(seed: u64) -> impl Iterator<Item = Instr> {
        TraceBuilder::new(seed)
            .kernel(KernelSpec::streaming(1 << 21))
            .kernel(KernelSpec::hot_set(1 << 13))
            .build()
    }

    #[test]
    fn record_is_deterministic() {
        let a = record("x", stream(4), 50_000);
        let b = record("x", stream(4), 50_000);
        assert_eq!(a.records, b.records);
        assert_eq!(a.llc, b.llc);
    }

    #[test]
    fn record_counts_add_up() {
        let w = record("x", stream(4), 50_000);
        assert_eq!(w.instructions(), 50_000);
        let llc_records = w
            .records
            .iter()
            .filter(|r| r.kind() == InstrKind::Llc)
            .count();
        assert_eq!(llc_records, w.llc.len());
        assert!(w.llc_apki() > 0.0);
    }

    #[test]
    fn l1_filters_repeated_touches() {
        // Two back-to-back touches of one block: second must hit L1.
        let instrs = vec![
            Instr::mem(Pc::new(0x400), MemRef::read(Addr::new(0x1000))),
            Instr::mem(Pc::new(0x404), MemRef::read(Addr::new(0x1008))),
        ];
        let w = record("pair", instrs, 2);
        assert_eq!(w.records[0].kind(), InstrKind::Llc);
        assert_eq!(w.records[1].kind(), InstrKind::L1Hit);
        assert_eq!(w.llc.len(), 1);
    }

    #[test]
    fn dependent_flag_survives_recording() {
        let instrs = vec![Instr::mem(
            Pc::new(0x400),
            MemRef::read(Addr::new(0x2000)).dependent(),
        )];
        let w = record("dep", instrs, 1);
        assert!(w.records[0].dependent());
    }

    #[test]
    fn core_tag_disambiguates_blocks() {
        let instrs = || vec![Instr::mem(Pc::new(0x400), MemRef::read(Addr::new(0x3000)))];
        let w0 = record_for_core("a", instrs(), 1, 0);
        let w1 = record_for_core("a", instrs(), 1, 1);
        assert_ne!(w0.llc[0].block, w1.llc[0].block);
        assert_eq!(w0.llc[0].core, 0);
        assert_eq!(w1.llc[0].core, 1);
    }

    #[test]
    fn merge_orders_by_instruction_index() {
        let w0 = record_for_core("a", stream(1), 20_000, 0);
        let w1 = record_for_core("b", stream(2), 20_000, 1);
        let merged = merge_streams(&[w0.clone(), w1.clone()]);
        assert_eq!(merged.len(), w0.llc.len() + w1.llc.len());
        for pair in merged.windows(2) {
            assert!(
                pair[0].instr <= pair[1].instr + 1_000,
                "merge wildly out of order: {} then {}",
                pair[0].instr,
                pair[1].instr
            );
        }
        // Per-core subsequences must be preserved exactly.
        let sub0: Vec<_> = merged.iter().filter(|a| a.core == 0).copied().collect();
        assert_eq!(sub0, w0.llc);
    }

    #[test]
    fn instr_record_round_trips() {
        for kind in [
            InstrKind::NonMem,
            InstrKind::L1Hit,
            InstrKind::L2Hit,
            InstrKind::Llc,
        ] {
            for dep in [false, true] {
                let r = InstrRecord::new(kind, dep);
                assert_eq!(r.kind(), kind);
                assert_eq!(r.dependent(), dep);
            }
        }
    }

    #[test]
    #[should_panic(expected = "ended at")]
    fn short_stream_panics() {
        let _ = record("short", vec![Instr::non_mem(Pc::new(0))], 2);
    }

    #[test]
    fn try_record_matches_infallible_record() {
        let a = record("x", stream(4), 20_000);
        let b = try_record_for_core("x", stream(4).map(Ok::<_, String>), 20_000, 0)
            .expect("infallible stream records");
        assert_eq!(a.records, b.records);
        assert_eq!(a.llc, b.llc);
    }

    struct VecBatcher {
        cols: Vec<sdbp_trace::ColumnBuf>,
        next: usize,
    }

    impl VecBatcher {
        fn from_instrs(instrs: impl Iterator<Item = Instr>, per_batch: usize) -> Self {
            let mut cols = vec![sdbp_trace::ColumnBuf::default()];
            for i in instrs {
                if cols.last().is_some_and(|c| c.len() >= per_batch) {
                    cols.push(sdbp_trace::ColumnBuf::default());
                }
                if let Some(last) = cols.last_mut() {
                    last.push(&i);
                }
            }
            VecBatcher { cols, next: 0 }
        }
    }

    impl sdbp_trace::InstrBatcher for VecBatcher {
        fn next_batch(&mut self) -> Result<Option<sdbp_trace::InstrBatch<'_>>, String> {
            let Some(c) = self.cols.get(self.next) else {
                return Ok(None);
            };
            self.next += 1;
            Ok(Some(c.as_batch()))
        }
    }

    #[test]
    fn batched_record_is_bit_identical_to_streaming() {
        let want = record_for_core("x", stream(4), 30_000, 1);
        let mut batcher = VecBatcher::from_instrs(stream(4).take(30_000), 997);
        let got = try_record_batches("x", &mut batcher, 30_000, 1).expect("clean batched record");
        assert_eq!(got.records, want.records);
        assert_eq!(got.llc, want.llc);
        assert_eq!(got.name, want.name);
    }

    #[test]
    fn batched_record_stops_mid_batch_and_reports_exhaustion() {
        // One big batch, but only 10 instructions wanted: stop mid-batch.
        let mut batcher = VecBatcher::from_instrs(stream(4).take(100), 100);
        let got = try_record_batches("x", &mut batcher, 10, 0).unwrap();
        assert_eq!(got.instructions(), 10);
        // Exhaustion surfaces as a value, like the streaming path.
        let mut short = VecBatcher::from_instrs(stream(4).take(5), 4);
        let err = try_record_batches("x", &mut short, 10, 0).unwrap_err();
        assert_eq!(err, RecordError::Exhausted { got: 5, wanted: 10 });
    }

    #[test]
    fn try_record_reports_exhaustion_as_value() {
        let err = try_record_for_core(
            "short",
            vec![Ok::<_, String>(Instr::non_mem(Pc::new(0)))],
            2,
            0,
        )
        .unwrap_err();
        assert_eq!(err, RecordError::Exhausted { got: 1, wanted: 2 });
        assert!(err.to_string().contains("ended at 1 of 2"));
    }

    #[test]
    fn try_record_propagates_source_errors() {
        let items = vec![Ok(Instr::non_mem(Pc::new(0))), Err("bad chunk".to_owned())];
        let err = try_record_for_core("corrupt", items, 2, 0).unwrap_err();
        assert_eq!(err, RecordError::Source("bad chunk".to_owned()));
        assert!(err.to_string().contains("bad chunk"));
    }
}
