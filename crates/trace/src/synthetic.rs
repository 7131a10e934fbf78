//! Composition of [`kernel`](crate::kernel) archetypes into full instruction
//! streams.
//!
//! A [`SyntheticTrace`] is an infinite `Iterator<Item = Instr>`: callers take
//! as many instructions as their simulation budget allows. Kernel PC slots
//! and address regions are mapped onto disjoint global ranges so that two
//! kernels can never alias, and every memory instruction is surrounded by
//! non-memory instructions according to the configured memory fraction.

use crate::access::{Addr, Instr, MemRef, Pc};
use crate::kernel::{Kernel, KernelSpec};
use crate::rng::Rng64;
use std::fmt;

/// Base virtual address for kernel data regions.
const DATA_BASE: u64 = 0x1_0000_0000;
/// Alignment (and minimum spacing) between kernel regions.
const REGION_ALIGN: u64 = 1 << 26; // 64 MiB
/// Base PC for synthetic code.
const CODE_BASE: u64 = 0x40_0000;
/// PC space reserved per kernel (64 Ki instruction slots).
const KERNEL_CODE_SPAN: u64 = 0x4_0000;
/// Scatters a kernel's PC slot across its 64 Ki-slot code span, salted per
/// kernel. Synthetic PCs are thereby spread like real text addresses
/// rather than packed sequentially — predictors that hash, sum, or
/// truncate PCs see realistic dispersion, and two kernels' slots never
/// alias structurally after 15-bit truncation.
fn scatter_pc_slot(slot: u32, kernel_salt: u64) -> u64 {
    let x = (u64::from(slot) ^ kernel_salt.wrapping_mul(0x517c_c1b7_2722_0a95))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (x >> 24) & 0xffff
}
/// Number of distinct PCs used for non-memory instructions.
const NON_MEM_PCS: u64 = 16;

/// Builder for [`SyntheticTrace`].
///
/// ```
/// use sdbp_trace::{TraceBuilder, kernel::KernelSpec};
/// let mut trace = TraceBuilder::new(7)
///     .memory_fraction(0.5)
///     .kernel(KernelSpec::hot_set(4096))
///     .build();
/// let first = trace.find(|i| i.is_mem()).unwrap();
/// assert!(first.pc.raw() >= 0x40_0000);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct TraceBuilder {
    seed: u64,
    memory_fraction: f64,
    specs: Vec<KernelSpec>,
}

impl TraceBuilder {
    /// Starts a builder with the given RNG seed. The same seed and kernel
    /// list always produce the identical instruction stream.
    pub fn new(seed: u64) -> Self {
        TraceBuilder {
            seed,
            memory_fraction: 0.35,
            specs: Vec::new(),
        }
    }

    /// Sets the fraction of instructions that reference memory
    /// (default 0.35, typical of SPEC CPU 2006 integer codes).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn memory_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "memory fraction must be in (0, 1], got {fraction}"
        );
        self.memory_fraction = fraction;
        self
    }

    /// Adds a kernel to the interleave.
    pub fn kernel(mut self, spec: KernelSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds several kernels at once.
    pub fn kernels<I: IntoIterator<Item = KernelSpec>>(mut self, specs: I) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Builds the infinite trace.
    ///
    /// Per-kernel randomness is split off the builder seed with
    /// [`Rng64::fork`]: kernel `idx` instantiates from stream `2*idx + 1`
    /// and draws its PC-scatter salt from stream `2*idx + 2`, while the
    /// interleaving stream itself runs on stream 0. Every sub-stream is
    /// therefore a pure function of `(seed, idx)` — no hand-offset
    /// constants, and adding a kernel never perturbs the streams of the
    /// kernels before it.
    ///
    /// # Panics
    ///
    /// Panics if no kernel was added.
    pub fn build(self) -> SyntheticTrace {
        assert!(!self.specs.is_empty(), "a trace needs at least one kernel");
        let root = Rng64::seed_from_u64(self.seed);
        let mut kernels = Vec::with_capacity(self.specs.len());
        let mut cume_weights = Vec::with_capacity(self.specs.len());
        let mut total = 0.0;
        let mut next_region = DATA_BASE;
        for (idx, spec) in self.specs.iter().enumerate() {
            let mut kernel_rng = root.fork(2 * idx as u64 + 1);
            let kernel = spec.instantiate(&mut kernel_rng);
            let span = kernel.region_bytes();
            let placed = KernelInstance {
                kernel,
                addr_base: next_region,
                pc_base: CODE_BASE + idx as u64 * KERNEL_CODE_SPAN,
                pc_salt: root.fork(2 * idx as u64 + 2).next_u64(),
            };
            // Round the next region base up so regions never overlap and
            // start block-aligned at a large power-of-two boundary.
            let spans = span.div_ceil(REGION_ALIGN);
            next_region += spans.max(1) * REGION_ALIGN;
            total += spec.weight;
            cume_weights.push(total);
            kernels.push(placed);
        }
        SyntheticTrace {
            kernels,
            cume_weights,
            total_weight: total,
            memory_fraction: self.memory_fraction,
            rng: root.fork(0),
            non_mem_pc_cursor: 0,
        }
    }
}

struct KernelInstance {
    kernel: Box<dyn Kernel>,
    addr_base: u64,
    pc_base: u64,
    /// Salt for [`scatter_pc_slot`], forked off the builder seed per
    /// kernel so two kernels (or two traces) never share PC structure.
    pc_salt: u64,
}

impl fmt::Debug for KernelInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelInstance")
            .field("kernel", &self.kernel)
            .field("addr_base", &format_args!("{:#x}", self.addr_base))
            .field("pc_base", &format_args!("{:#x}", self.pc_base))
            .field("pc_salt", &format_args!("{:#x}", self.pc_salt))
            .finish()
    }
}

/// An infinite, deterministic synthetic instruction stream.
///
/// Produced by [`TraceBuilder::build`]; see the [crate docs](crate) for an
/// end-to-end example.
#[derive(Debug)]
pub struct SyntheticTrace {
    kernels: Vec<KernelInstance>,
    cume_weights: Vec<f64>,
    total_weight: f64,
    memory_fraction: f64,
    rng: Rng64,
    non_mem_pc_cursor: u64,
}

impl SyntheticTrace {
    fn pick_kernel(&mut self) -> usize {
        if self.kernels.len() == 1 {
            return 0;
        }
        let x = self.rng.gen_range(0.0..self.total_weight);
        // Linear scan: kernel counts are tiny (< 10).
        self.cume_weights
            .iter()
            .position(|&w| x < w)
            .unwrap_or(self.kernels.len() - 1)
    }

    fn next_mem_instr(&mut self) -> Instr {
        let idx = self.pick_kernel();
        let inst = &mut self.kernels[idx];
        let step = inst.kernel.step(&mut self.rng);
        let scattered = scatter_pc_slot(step.pc_slot, inst.pc_salt);
        let pc = Pc::new(inst.pc_base + scattered * 4);
        let mem = MemRef {
            addr: Addr::new(inst.addr_base + step.region_offset),
            kind: step.kind,
            dependent: step.dependent,
        };
        Instr::mem(pc, mem)
    }

    fn next_non_mem_instr(&mut self) -> Instr {
        let pc = Pc::new(CODE_BASE - 0x1000 + (self.non_mem_pc_cursor % NON_MEM_PCS) * 4);
        self.non_mem_pc_cursor = self.non_mem_pc_cursor.wrapping_add(1);
        Instr::non_mem(pc)
    }
}

impl Iterator for SyntheticTrace {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let is_mem = self.rng.gen_bool(self.memory_fraction);
        Some(if is_mem {
            self.next_mem_instr()
        } else {
            self.next_non_mem_instr()
        })
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only oracles: membership and grouping checks whose iteration order never reaches an output"
)]
mod tests {
    use super::*;
    use crate::access::AccessKind;

    fn simple(seed: u64) -> SyntheticTrace {
        TraceBuilder::new(seed)
            .kernel(KernelSpec::streaming(1 << 16).weight(1.0))
            .kernel(KernelSpec::hot_set(1 << 14).weight(2.0))
            .build()
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<Instr> = simple(11).take(5_000).collect();
        let b: Vec<Instr> = simple(11).take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_stream() {
        let a: Vec<Instr> = simple(11).take(5_000).collect();
        let b: Vec<Instr> = simple(12).take(5_000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn memory_fraction_is_respected() {
        let trace = TraceBuilder::new(3)
            .memory_fraction(0.25)
            .kernel(KernelSpec::hot_set(1 << 14))
            .build();
        let n = 40_000;
        let mem = trace.take(n).filter(Instr::is_mem).count() as f64;
        let frac = mem / n as f64;
        assert!(
            (frac - 0.25).abs() < 0.02,
            "memory fraction {frac} far from 0.25"
        );
    }

    #[test]
    fn kernel_regions_do_not_overlap() {
        let trace = TraceBuilder::new(3)
            .kernel(KernelSpec::streaming(1 << 20))
            .kernel(KernelSpec::hot_set(1 << 20))
            .build();
        let mut regions: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 2];
        // Region bases are 64 MiB apart; bucket addresses by base.
        for i in trace.take(50_000) {
            if let Some(m) = i.mem {
                let bucket = ((m.addr.raw() - super::DATA_BASE) / super::REGION_ALIGN) as usize;
                assert!(bucket < 2, "address outside any kernel region");
                regions[bucket].insert(m.addr.block().raw());
            }
        }
        assert!(!regions[0].is_empty() && !regions[1].is_empty());
    }

    #[test]
    fn kernel_pcs_are_disjoint_from_non_mem_pcs() {
        let trace = simple(9);
        for i in trace.take(20_000) {
            match i.mem {
                Some(_) => assert!(i.pc.raw() >= CODE_BASE),
                None => assert!(i.pc.raw() < CODE_BASE),
            }
        }
    }

    #[test]
    fn weights_bias_kernel_selection() {
        // Kernel 1 (hot set) has twice the weight of kernel 0 (streaming).
        let trace = simple(5);
        let mut counts = [0usize; 2];
        for i in trace.take(60_000) {
            if let Some(m) = i.mem {
                let bucket = ((m.addr.raw() - super::DATA_BASE) / super::REGION_ALIGN) as usize;
                counts[bucket] += 1;
            }
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(
            (ratio - 2.0).abs() < 0.2,
            "weight ratio {ratio} far from 2.0"
        );
    }

    #[test]
    fn reads_and_writes_both_occur() {
        let trace = simple(17);
        let kinds: std::collections::HashSet<AccessKind> = trace
            .take(10_000)
            .filter_map(|i| i.mem.map(|m| m.kind))
            .collect();
        assert!(kinds.contains(&AccessKind::Read));
        assert!(kinds.contains(&AccessKind::Write));
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_builder_panics() {
        let _ = TraceBuilder::new(0).build();
    }

    #[test]
    #[should_panic(expected = "memory fraction")]
    fn bad_memory_fraction_panics() {
        let _ = TraceBuilder::new(0).memory_fraction(0.0);
    }
}
