//! Reuse-archetype kernels: the building blocks of synthetic workloads.
//!
//! A [`Kernel`] produces a stream of memory references within its own private
//! address region, labelling each reference with a *PC slot* (a small integer
//! naming which of the kernel's synthetic instructions performed it). The
//! [`crate::synthetic::TraceBuilder`] maps PC slots and regions onto disjoint
//! global PCs and addresses, and interleaves several kernels into a full
//! instruction stream.
//!
//! The archetypes encode the behaviours that matter to dead block
//! predictors:
//!
//! * [`ReusePattern::Streaming`] — sequential scans whose blocks are dead (or
//!   dead-on-arrival) after a short burst of touches; the last touch always
//!   comes from the same PC slot, the signal SDBP learns.
//! * [`ReusePattern::HotSet`] — a resident working set whose blocks are
//!   essentially never dead.
//! * [`ReusePattern::Generational`] — blocks live for a fixed number of
//!   touches issued by a *PC sequence*, then die; the terminating slot is
//!   deterministic unless `adversarial` is set, in which case the slot is
//!   random and the last-touch PC carries no information (the `astar`-like
//!   failure mode in the paper's Figure 9).
//! * [`ReusePattern::PointerChase`] — dependent loads walking a random
//!   permutation; destroys memory-level parallelism in the timing model.
//! * [`ReusePattern::StackDistance`] — reuse distances drawn from a geometric
//!   distribution over an LRU stack, giving tunable, smooth miss-rate versus
//!   cache-size curves (used for Table IV's sensitivity curves).

use crate::access::{AccessKind, BLOCK_BYTES};
use crate::rng::Rng64;
use std::fmt;

/// Upper bound on the LRU-stack tracked by [`ReusePattern::StackDistance`].
const STACK_DISTANCE_CAP: usize = 1 << 16;

/// One reference emitted by a kernel, in kernel-local coordinates.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct KernelStep {
    /// Which of the kernel's synthetic instructions issued the reference.
    pub pc_slot: u32,
    /// Byte offset of the reference within the kernel's region.
    pub region_offset: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// True if the next instruction depends on this load's value.
    pub dependent: bool,
}

/// A source of kernel-local memory references.
///
/// `Send` so a composed [`SyntheticTrace`](crate::SyntheticTrace) can be
/// opened by a [`TraceSource`](crate::TraceSource) inside a worker job.
pub trait Kernel: fmt::Debug + Send {
    /// Number of distinct PC slots this kernel may emit.
    fn pc_slots(&self) -> u32;

    /// Size in bytes of the address region this kernel references.
    fn region_bytes(&self) -> u64;

    /// Produces the next reference.
    fn step(&mut self, rng: &mut Rng64) -> KernelStep;
}

/// Declarative description of a kernel, turned into a live [`Kernel`] by
/// [`KernelSpec::instantiate`].
#[derive(Clone, PartialEq, Debug)]
pub enum ReusePattern {
    /// Sequential scan over `region_bytes`; each block is touched
    /// `touches_per_block` times (by PC slots `0..touches`) before the scan
    /// moves on, then wraps around forever.
    Streaming {
        /// Region size in bytes.
        region_bytes: u64,
        /// Touches per block before moving to the next block.
        touches_per_block: u32,
        /// Stride between consecutive blocks, in blocks (>= 1).
        stride_blocks: u64,
        /// Fraction of touches that are writes.
        write_fraction: f64,
    },
    /// Uniform random references within a (typically cache-resident) region.
    HotSet {
        /// Region size in bytes.
        region_bytes: u64,
        /// Number of distinct PC slots used.
        pc_slots: u32,
        /// Fraction of touches that are writes.
        write_fraction: f64,
    },
    /// A pool of `live_slots` concurrently-live blocks; each step touches a
    /// random live block. A block dies after `touches_per_block` touches and
    /// its slot is refilled with a fresh block.
    Generational {
        /// Region size in bytes (allocation wraps within it).
        region_bytes: u64,
        /// Touches each block receives before dying.
        touches_per_block: u32,
        /// Number of concurrently live blocks.
        live_slots: usize,
        /// If true, the PC slot for each touch is random rather than the
        /// touch index, decorrelating the last-touch PC from death.
        adversarial: bool,
        /// Fraction of touches that are writes.
        write_fraction: f64,
    },
    /// Dependent loads walking a pseudo-random permutation of the region.
    PointerChase {
        /// Region size in bytes.
        region_bytes: u64,
        /// Probability of revisiting a recently-touched block instead of
        /// following the chain (produces some temporal locality).
        revisit: f64,
        /// Number of recently-touched blocks eligible for revisits.
        revisit_window: usize,
    },
    /// A pool of concurrently-live blocks whose *lifetime class* is drawn
    /// at allocation: a class-`k` block receives `classes[k].touches`
    /// touches and then dies. With `shared_prefix` false each class uses
    /// its own PC slots (a clean, perfectly PC-correlated death signal —
    /// the hmmer-like case); with `shared_prefix` true all classes share
    /// one PC sequence, so a short class's terminal PC is a longer class's
    /// *mid-life* PC — the ambiguity that punishes aggressive predictors
    /// (the astar-like case).
    Classed {
        /// Region size in bytes (allocation wraps within it).
        region_bytes: u64,
        /// Number of concurrently live blocks.
        live_slots: usize,
        /// Lifetime classes: `(weight, touches)`.
        classes: Vec<(f64, u32)>,
        /// Whether classes share the same PC sequence (ambiguous signal).
        shared_prefix: bool,
        /// Number of distinct PCs playing each role (real programs touch a
        /// data structure from many static instructions). Role semantics
        /// are identical across a role's variants, but predictors that
        /// build *composite* signatures (reference traces) see a
        /// combinatorial signature space, as they do on real code.
        pc_variants: u32,
        /// Probability that a non-terminal touch is immediately followed by
        /// the block's next touch. Chained touches land while the block is
        /// still L1/L2-resident, so the mid-level cache filters them from
        /// the LLC's view: the *visible* reference trace varies randomly
        /// per block (the paper's §VII-A3 filtering effect), while the
        /// terminal touch — never chained — stays visible.
        quick_chain: f64,
        /// Fraction of touches that are writes.
        write_fraction: f64,
    },
    /// LRU-stack model: with probability `reuse`, re-touch the block at a
    /// geometric stack depth with the given mean; otherwise touch a fresh
    /// block.
    StackDistance {
        /// Region size in bytes (fresh blocks allocate within it, wrapping).
        region_bytes: u64,
        /// Probability a reference reuses an existing block.
        reuse: f64,
        /// Mean LRU-stack depth of reuses (in blocks).
        mean_depth: f64,
        /// Fraction of touches that are writes.
        write_fraction: f64,
    },
}

/// A [`ReusePattern`] plus its interleaving weight.
#[derive(Clone, PartialEq, Debug)]
pub struct KernelSpec {
    /// The reuse behaviour.
    pub pattern: ReusePattern,
    /// Relative probability of this kernel supplying the next memory
    /// reference when interleaved with other kernels.
    pub weight: f64,
}

impl KernelSpec {
    /// Wraps a pattern with weight 1.0.
    pub fn new(pattern: ReusePattern) -> Self {
        KernelSpec {
            pattern,
            weight: 1.0,
        }
    }

    /// A pure streaming scan: one touch per block (dead on arrival at the
    /// LLC once the L1 captures the spatial locality).
    pub fn streaming(region_bytes: u64) -> Self {
        Self::new(ReusePattern::Streaming {
            region_bytes,
            touches_per_block: 1,
            stride_blocks: 1,
            write_fraction: 0.2,
        })
    }

    /// A streaming scan with a short per-block touch burst.
    pub fn scan_burst(region_bytes: u64, touches_per_block: u32) -> Self {
        Self::new(ReusePattern::Streaming {
            region_bytes,
            touches_per_block,
            stride_blocks: 1,
            write_fraction: 0.2,
        })
    }

    /// A cache-resident hot working set.
    pub fn hot_set(region_bytes: u64) -> Self {
        Self::new(ReusePattern::HotSet {
            region_bytes,
            pc_slots: 4,
            write_fraction: 0.3,
        })
    }

    /// Generational blocks with PC-correlated death.
    pub fn generational(region_bytes: u64, touches_per_block: u32, live_slots: usize) -> Self {
        Self::new(ReusePattern::Generational {
            region_bytes,
            touches_per_block,
            live_slots,
            adversarial: false,
            write_fraction: 0.25,
        })
    }

    /// Generational blocks whose last-touch PC is uninformative.
    pub fn adversarial(region_bytes: u64, touches_per_block: u32, live_slots: usize) -> Self {
        Self::new(ReusePattern::Generational {
            region_bytes,
            touches_per_block,
            live_slots,
            adversarial: true,
            write_fraction: 0.25,
        })
    }

    /// Dependent pointer chasing over the region.
    pub fn pointer_chase(region_bytes: u64) -> Self {
        Self::new(ReusePattern::PointerChase {
            region_bytes,
            revisit: 0.0,
            revisit_window: 64,
        })
    }

    /// Pointer chasing with some short-range revisits.
    pub fn pointer_chase_with_revisit(region_bytes: u64, revisit: f64) -> Self {
        Self::new(ReusePattern::PointerChase {
            region_bytes,
            revisit,
            revisit_window: 64,
        })
    }

    /// Lifetime classes with *distinct* PC pools: death is perfectly
    /// PC-correlated (the signal dead block predictors exploit).
    pub fn classed(region_bytes: u64, live_slots: usize, classes: Vec<(f64, u32)>) -> Self {
        Self::new(ReusePattern::Classed {
            region_bytes,
            live_slots,
            classes,
            shared_prefix: false,
            pc_variants: 1,
            quick_chain: 0.0,
            write_fraction: 0.25,
        })
    }

    /// Lifetime classes sharing one PC sequence: the last-touch PC of a
    /// short-lived block is a mid-life PC of longer-lived ones, so the
    /// dead/live training signal is inherently ambiguous.
    pub fn classed_ambiguous(
        region_bytes: u64,
        live_slots: usize,
        classes: Vec<(f64, u32)>,
    ) -> Self {
        Self::new(ReusePattern::Classed {
            region_bytes,
            live_slots,
            classes,
            shared_prefix: true,
            pc_variants: 1,
            quick_chain: 0.0,
            write_fraction: 0.25,
        })
    }

    /// Geometric stack-distance reuse.
    pub fn stack_distance(region_bytes: u64, reuse: f64, mean_depth: f64) -> Self {
        Self::new(ReusePattern::StackDistance {
            region_bytes,
            reuse,
            mean_depth,
            write_fraction: 0.3,
        })
    }

    /// Sets the number of PC variants per role (classed kernels only).
    ///
    /// # Panics
    ///
    /// Panics if the pattern is not [`ReusePattern::Classed`] or `n` is 0.
    pub fn variants(mut self, n: u32) -> Self {
        assert!(n >= 1, "variant count must be positive");
        match &mut self.pattern {
            ReusePattern::Classed { pc_variants, .. } => *pc_variants = n,
            other => panic!("variants() only applies to classed kernels, not {other:?}"),
        }
        self
    }

    /// Sets the quick-chain probability (classed kernels only): how often
    /// a non-terminal touch is immediately followed by the next one, which
    /// the L1/L2 then filter from the LLC's view.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is not [`ReusePattern::Classed`] or `q` is
    /// outside `[0, 1)`.
    pub fn chained(mut self, q: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&q),
            "chain probability must be in [0, 1)"
        );
        match &mut self.pattern {
            ReusePattern::Classed { quick_chain, .. } => *quick_chain = q,
            other => panic!("chained() only applies to classed kernels, not {other:?}"),
        }
        self
    }

    /// Sets the interleaving weight (builder style).
    pub fn weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0, "kernel weight must be positive");
        self.weight = weight;
        self
    }

    /// Builds the runnable kernel.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's parameters are degenerate (empty region, zero
    /// touches, probabilities outside `[0, 1]`).
    pub fn instantiate(&self, rng: &mut Rng64) -> Box<dyn Kernel> {
        match self.pattern.clone() {
            ReusePattern::Streaming {
                region_bytes,
                touches_per_block,
                stride_blocks,
                write_fraction,
            } => Box::new(StreamingKernel::new(
                region_bytes,
                touches_per_block,
                stride_blocks,
                write_fraction,
            )),
            ReusePattern::HotSet {
                region_bytes,
                pc_slots,
                write_fraction,
            } => Box::new(HotSetKernel::new(region_bytes, pc_slots, write_fraction)),
            ReusePattern::Generational {
                region_bytes,
                touches_per_block,
                live_slots,
                adversarial,
                write_fraction,
            } => Box::new(GenerationalKernel::new(
                region_bytes,
                touches_per_block,
                live_slots,
                adversarial,
                write_fraction,
                rng,
            )),
            ReusePattern::Classed {
                region_bytes,
                live_slots,
                classes,
                shared_prefix,
                pc_variants,
                quick_chain,
                write_fraction,
            } => Box::new(ClassedKernel::new(
                region_bytes,
                live_slots,
                classes,
                shared_prefix,
                pc_variants,
                quick_chain,
                write_fraction,
                rng,
            )),
            ReusePattern::PointerChase {
                region_bytes,
                revisit,
                revisit_window,
            } => Box::new(PointerChaseKernel::new(
                region_bytes,
                revisit,
                revisit_window,
                rng,
            )),
            ReusePattern::StackDistance {
                region_bytes,
                reuse,
                mean_depth,
                write_fraction,
            } => Box::new(StackDistanceKernel::new(
                region_bytes,
                reuse,
                mean_depth,
                write_fraction,
            )),
        }
    }
}

fn region_blocks(region_bytes: u64) -> u64 {
    let blocks = region_bytes / BLOCK_BYTES;
    assert!(blocks >= 1, "kernel region must hold at least one block");
    blocks
}

fn pick_kind(rng: &mut Rng64, write_fraction: f64) -> AccessKind {
    debug_assert!((0.0..=1.0).contains(&write_fraction));
    if write_fraction > 0.0 && rng.gen_bool(write_fraction) {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// See [`ReusePattern::Streaming`].
#[derive(Debug)]
struct StreamingKernel {
    blocks: u64,
    touches_per_block: u32,
    stride_blocks: u64,
    write_fraction: f64,
    cursor_block: u64,
    touch: u32,
}

impl StreamingKernel {
    fn new(
        region_bytes: u64,
        touches_per_block: u32,
        stride_blocks: u64,
        write_fraction: f64,
    ) -> Self {
        assert!(
            touches_per_block >= 1,
            "touches_per_block must be at least 1"
        );
        assert!(stride_blocks >= 1, "stride_blocks must be at least 1");
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write_fraction must be a probability"
        );
        StreamingKernel {
            blocks: region_blocks(region_bytes),
            touches_per_block,
            stride_blocks,
            write_fraction,
            cursor_block: 0,
            touch: 0,
        }
    }
}

impl Kernel for StreamingKernel {
    fn pc_slots(&self) -> u32 {
        self.touches_per_block
    }

    fn region_bytes(&self) -> u64 {
        self.blocks * BLOCK_BYTES
    }

    fn step(&mut self, rng: &mut Rng64) -> KernelStep {
        let slot = self.touch;
        // Touch different words within the block so the L1 sees spatial reuse.
        let word = (slot as u64 * 8) % BLOCK_BYTES;
        let step = KernelStep {
            pc_slot: slot,
            region_offset: self.cursor_block * BLOCK_BYTES + word,
            kind: pick_kind(rng, self.write_fraction),
            dependent: false,
        };
        self.touch += 1;
        if self.touch == self.touches_per_block {
            self.touch = 0;
            self.cursor_block = (self.cursor_block + self.stride_blocks) % self.blocks;
        }
        step
    }
}

/// See [`ReusePattern::HotSet`].
#[derive(Debug)]
struct HotSetKernel {
    blocks: u64,
    pc_slots: u32,
    write_fraction: f64,
}

impl HotSetKernel {
    fn new(region_bytes: u64, pc_slots: u32, write_fraction: f64) -> Self {
        assert!(pc_slots >= 1, "pc_slots must be at least 1");
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write_fraction must be a probability"
        );
        HotSetKernel {
            blocks: region_blocks(region_bytes),
            pc_slots,
            write_fraction,
        }
    }
}

impl Kernel for HotSetKernel {
    fn pc_slots(&self) -> u32 {
        self.pc_slots
    }

    fn region_bytes(&self) -> u64 {
        self.blocks * BLOCK_BYTES
    }

    fn step(&mut self, rng: &mut Rng64) -> KernelStep {
        let block = rng.gen_range(0..self.blocks);
        KernelStep {
            pc_slot: rng.gen_range(0..self.pc_slots),
            region_offset: block * BLOCK_BYTES,
            kind: pick_kind(rng, self.write_fraction),
            dependent: false,
        }
    }
}

/// See [`ReusePattern::Generational`].
#[derive(Debug)]
struct GenerationalKernel {
    blocks: u64,
    touches_per_block: u32,
    adversarial: bool,
    write_fraction: f64,
    /// (block, touches so far) for each live slot.
    live: Vec<(u64, u32)>,
    next_alloc: u64,
}

impl GenerationalKernel {
    fn new(
        region_bytes: u64,
        touches_per_block: u32,
        live_slots: usize,
        adversarial: bool,
        write_fraction: f64,
        rng: &mut Rng64,
    ) -> Self {
        assert!(
            touches_per_block >= 1,
            "touches_per_block must be at least 1"
        );
        assert!(live_slots >= 1, "live_slots must be at least 1");
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write_fraction must be a probability"
        );
        let blocks = region_blocks(region_bytes);
        assert!(
            live_slots as u64 <= blocks,
            "live_slots ({live_slots}) exceeds region blocks ({blocks})"
        );
        // Stagger initial touch counts so deaths are spread in time.
        let live = (0..live_slots as u64)
            .map(|i| (i, rng.gen_range(0..touches_per_block)))
            .collect();
        GenerationalKernel {
            blocks,
            touches_per_block,
            adversarial,
            write_fraction,
            live,
            next_alloc: live_slots as u64,
        }
    }
}

impl Kernel for GenerationalKernel {
    fn pc_slots(&self) -> u32 {
        self.touches_per_block
    }

    fn region_bytes(&self) -> u64 {
        self.blocks * BLOCK_BYTES
    }

    fn step(&mut self, rng: &mut Rng64) -> KernelStep {
        let slot_idx = rng.gen_range(0..self.live.len());
        let (block, touches) = self.live[slot_idx];
        let pc_slot = if self.adversarial {
            rng.gen_range(0..self.touches_per_block)
        } else {
            touches
        };
        let step = KernelStep {
            pc_slot,
            region_offset: block * BLOCK_BYTES,
            kind: pick_kind(rng, self.write_fraction),
            dependent: false,
        };
        if touches + 1 == self.touches_per_block {
            // Block is now dead; refill the slot with a fresh block.
            self.live[slot_idx] = (self.next_alloc % self.blocks, 0);
            self.next_alloc = self.next_alloc.wrapping_add(1);
        } else {
            self.live[slot_idx].1 = touches + 1;
        }
        step
    }
}

/// See [`ReusePattern::Classed`].
#[derive(Debug)]
struct ClassedKernel {
    blocks: u64,
    /// `(weight cumulative, touches)` per class.
    classes: Vec<(f64, u32)>,
    total_weight: f64,
    /// PC slot offset of each class (0 for all when sharing a prefix).
    class_pc_base: Vec<u32>,
    pc_variants: u32,
    pc_slots: u32,
    quick_chain: f64,
    write_fraction: f64,
    /// `(block, class, touches so far)` per live slot.
    live: Vec<(u64, u32, u32)>,
    /// Slot whose next touch must come immediately (quick chain).
    pending: Option<usize>,
    next_alloc: u64,
}

impl ClassedKernel {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the pattern fields
    fn new(
        region_bytes: u64,
        live_slots: usize,
        classes: Vec<(f64, u32)>,
        shared_prefix: bool,
        pc_variants: u32,
        quick_chain: f64,
        write_fraction: f64,
        rng: &mut Rng64,
    ) -> Self {
        assert!(
            !classes.is_empty(),
            "classed kernel needs at least one class"
        );
        assert!(pc_variants >= 1, "pc_variants must be positive");
        assert!(
            (0.0..1.0).contains(&quick_chain),
            "quick_chain must be in [0, 1)"
        );
        assert!(live_slots >= 1, "live_slots must be at least 1");
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write_fraction must be a probability"
        );
        let blocks = region_blocks(region_bytes);
        assert!(
            live_slots as u64 <= blocks,
            "live_slots ({live_slots}) exceeds region blocks ({blocks})"
        );
        let mut cume = 0.0;
        let mut cume_classes = Vec::with_capacity(classes.len());
        let mut class_pc_base = Vec::with_capacity(classes.len());
        let mut next_base = 0u32;
        for &(w, touches) in &classes {
            assert!(w > 0.0, "class weight must be positive");
            assert!(touches >= 1, "class touches must be at least 1");
            cume += w;
            cume_classes.push((cume, touches));
            class_pc_base.push(if shared_prefix { 0 } else { next_base });
            next_base += touches;
        }
        let roles = if shared_prefix {
            classes
                .iter()
                .map(|&(_, t)| t)
                .max()
                .expect("non-empty classes")
        } else {
            next_base
        };
        let pc_slots = roles * pc_variants;
        let mut kernel = ClassedKernel {
            blocks,
            classes: cume_classes,
            total_weight: cume,
            class_pc_base,
            pc_variants,
            pc_slots,
            quick_chain,
            write_fraction,
            live: Vec::with_capacity(live_slots),
            pending: None,
            next_alloc: 0,
        };
        for _ in 0..live_slots {
            let class = kernel.pick_class(rng);
            let block = kernel.next_alloc % kernel.blocks;
            kernel.next_alloc += 1;
            // Stagger starting progress so deaths spread out in time.
            let start = rng.gen_range(0..kernel.classes[class as usize].1);
            kernel.live.push((block, class, start));
        }
        kernel
    }

    fn pick_class(&self, rng: &mut Rng64) -> u32 {
        let x = rng.gen_range(0.0..self.total_weight);
        self.classes
            .iter()
            .position(|&(c, _)| x < c)
            .unwrap_or(self.classes.len() - 1) as u32
    }
}

impl Kernel for ClassedKernel {
    fn pc_slots(&self) -> u32 {
        self.pc_slots
    }

    fn region_bytes(&self) -> u64 {
        self.blocks * BLOCK_BYTES
    }

    fn step(&mut self, rng: &mut Rng64) -> KernelStep {
        let slot_idx = match self.pending.take() {
            Some(slot) => slot,
            None => rng.gen_range(0..self.live.len()),
        };
        let (block, class, touches) = self.live[slot_idx];
        let class_touches = self.classes[class as usize].1;
        let role = self.class_pc_base[class as usize] + touches;
        let variant = if self.pc_variants > 1 {
            rng.gen_range(0..self.pc_variants)
        } else {
            0
        };
        let step = KernelStep {
            pc_slot: role * self.pc_variants + variant,
            region_offset: block * BLOCK_BYTES,
            kind: pick_kind(rng, self.write_fraction),
            dependent: false,
        };
        if touches + 1 == class_touches {
            // Dead: refill the slot with a fresh block of a fresh class.
            let new_class = self.pick_class(rng);
            self.live[slot_idx] = (self.next_alloc % self.blocks, new_class, 0);
            self.next_alloc = self.next_alloc.wrapping_add(1);
        } else {
            self.live[slot_idx].2 = touches + 1;
            // Chain only when the *next* touch is not the terminal one, so
            // the visible trace varies but the last touch stays visible.
            if self.quick_chain > 0.0
                && touches + 2 < class_touches
                && rng.gen_bool(self.quick_chain)
            {
                self.pending = Some(slot_idx);
            }
        }
        step
    }
}

/// See [`ReusePattern::PointerChase`].
#[derive(Debug)]
struct PointerChaseKernel {
    blocks: u64,
    revisit: f64,
    cursor: u64,
    /// Multiplicative-congruential walk parameters giving a full cycle over
    /// the (power-of-two-rounded) block space.
    mult: u64,
    inc: u64,
    recent: Vec<u64>,
    recent_cursor: usize,
}

impl PointerChaseKernel {
    fn new(region_bytes: u64, revisit: f64, revisit_window: usize, rng: &mut Rng64) -> Self {
        assert!(
            (0.0..=1.0).contains(&revisit),
            "revisit must be a probability"
        );
        assert!(revisit_window >= 1, "revisit_window must be at least 1");
        let blocks = region_blocks(region_bytes);
        // LCG over 2^k with odd increment and mult ≡ 1 (mod 4) has full
        // period; mapping into `blocks` by rejection-free modulo keeps the
        // walk pseudo-random with negligible bias for our purposes.
        let mult = 6364136223846793005;
        let inc = rng.next_u64() | 1;
        PointerChaseKernel {
            blocks,
            revisit,
            cursor: rng.gen_range(0..blocks),
            mult,
            inc,
            recent: Vec::with_capacity(revisit_window),
            recent_cursor: 0,
        }
    }

    fn advance(&mut self) -> u64 {
        self.cursor = self.cursor.wrapping_mul(self.mult).wrapping_add(self.inc);
        self.cursor % self.blocks
    }
}

impl Kernel for PointerChaseKernel {
    fn pc_slots(&self) -> u32 {
        2 // slot 0: the chase load, slot 1: revisit loads
    }

    fn region_bytes(&self) -> u64 {
        self.blocks * BLOCK_BYTES
    }

    fn step(&mut self, rng: &mut Rng64) -> KernelStep {
        if !self.recent.is_empty() && self.revisit > 0.0 && rng.gen_bool(self.revisit) {
            let block = self.recent[rng.gen_range(0..self.recent.len())];
            return KernelStep {
                pc_slot: 1,
                region_offset: block * BLOCK_BYTES,
                kind: AccessKind::Read,
                dependent: false,
            };
        }
        let block = self.advance();
        if self.recent.len() < self.recent.capacity() {
            self.recent.push(block);
        } else {
            self.recent[self.recent_cursor] = block;
            self.recent_cursor = (self.recent_cursor + 1) % self.recent.len();
        }
        KernelStep {
            pc_slot: 0,
            region_offset: block * BLOCK_BYTES,
            kind: AccessKind::Read,
            dependent: true,
        }
    }
}

/// See [`ReusePattern::StackDistance`].
#[derive(Debug)]
struct StackDistanceKernel {
    blocks: u64,
    reuse: f64,
    /// Geometric success probability derived from the mean depth.
    geo_p: f64,
    write_fraction: f64,
    /// Move-to-front LRU stack of recently used blocks (bounded).
    stack: Vec<u64>,
    next_alloc: u64,
}

impl StackDistanceKernel {
    fn new(region_bytes: u64, reuse: f64, mean_depth: f64, write_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&reuse), "reuse must be a probability");
        assert!(mean_depth >= 1.0, "mean_depth must be at least 1");
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write_fraction must be a probability"
        );
        StackDistanceKernel {
            blocks: region_blocks(region_bytes),
            reuse,
            geo_p: 1.0 / mean_depth,
            write_fraction,
            stack: Vec::new(),
            next_alloc: 0,
        }
    }

    fn geometric(&self, rng: &mut Rng64) -> usize {
        // Inverse-CDF sampling of a geometric distribution on {0, 1, ...}.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (u.ln() / (1.0 - self.geo_p).ln()) as usize
    }
}

impl Kernel for StackDistanceKernel {
    fn pc_slots(&self) -> u32 {
        3 // 0: allocation, 1: shallow reuse, 2: deep reuse
    }

    fn region_bytes(&self) -> u64 {
        self.blocks * BLOCK_BYTES
    }

    fn step(&mut self, rng: &mut Rng64) -> KernelStep {
        let kind = pick_kind(rng, self.write_fraction);
        if !self.stack.is_empty() && rng.gen_bool(self.reuse) {
            let depth = self.geometric(rng).min(self.stack.len() - 1);
            let block = self.stack.remove(depth);
            self.stack.insert(0, block);
            let pc_slot = if depth < 16 { 1 } else { 2 };
            return KernelStep {
                pc_slot,
                region_offset: block * BLOCK_BYTES,
                kind,
                dependent: false,
            };
        }
        let block = self.next_alloc % self.blocks;
        self.next_alloc = self.next_alloc.wrapping_add(1);
        self.stack.insert(0, block);
        if self.stack.len() > STACK_DISTANCE_CAP {
            self.stack.pop();
        }
        KernelStep {
            pc_slot: 0,
            region_offset: block * BLOCK_BYTES,
            kind,
            dependent: false,
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only oracles: membership and grouping checks whose iteration order never reaches an output"
)]
mod tests {
    use super::*;
    fn rng() -> Rng64 {
        Rng64::seed_from_u64(42)
    }

    fn run(spec: KernelSpec, n: usize) -> Vec<KernelStep> {
        let mut r = rng();
        let mut k = spec.instantiate(&mut r);
        (0..n).map(|_| k.step(&mut r)).collect()
    }

    #[test]
    fn streaming_touches_blocks_in_order() {
        let steps = run(KernelSpec::streaming(1 << 12), 64);
        let blocks: Vec<u64> = steps
            .iter()
            .map(|s| s.region_offset / BLOCK_BYTES)
            .collect();
        // 4 KiB region = 64 blocks, one touch each, sequential then wrap.
        assert_eq!(blocks, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn streaming_burst_uses_distinct_pc_slots() {
        let steps = run(KernelSpec::scan_burst(1 << 12, 3), 9);
        let slots: Vec<u32> = steps.iter().map(|s| s.pc_slot).collect();
        assert_eq!(slots, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
        // Three touches stay within one block before moving on.
        assert_eq!(
            steps[0].region_offset / BLOCK_BYTES,
            steps[2].region_offset / BLOCK_BYTES
        );
        assert_ne!(
            steps[0].region_offset / BLOCK_BYTES,
            steps[3].region_offset / BLOCK_BYTES
        );
    }

    #[test]
    fn hot_set_stays_in_region() {
        let region = 1 << 14;
        let steps = run(KernelSpec::hot_set(region), 1000);
        assert!(steps.iter().all(|s| s.region_offset < region));
    }

    #[test]
    fn generational_last_touch_slot_is_terminal() {
        let touches = 4;
        let mut r = rng();
        let spec = KernelSpec::generational(1 << 20, touches, 8);
        let mut k = spec.instantiate(&mut r);
        // Track per-block touch history; every block that completes must have
        // seen pc slots 0..touches in order.
        let mut seen: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        for _ in 0..10_000 {
            let s = k.step(&mut r);
            seen.entry(s.region_offset / BLOCK_BYTES)
                .or_default()
                .push(s.pc_slot);
        }
        let mut complete = 0;
        for slots in seen.values() {
            // A block history is one or more full generations plus a suffix.
            for chunk in slots.chunks(touches as usize) {
                if chunk.len() == touches as usize {
                    assert_eq!(chunk, (0..touches).collect::<Vec<_>>().as_slice());
                    complete += 1;
                }
            }
        }
        assert!(
            complete > 100,
            "expected many completed generations, saw {complete}"
        );
    }

    #[test]
    fn adversarial_slots_are_not_sequential() {
        let steps = run(KernelSpec::adversarial(1 << 20, 4, 8), 1000);
        let sequential = steps
            .windows(4)
            .filter(|w| w.iter().enumerate().all(|(i, s)| s.pc_slot == i as u32))
            .count();
        // With random slots, exact 0,1,2,3 windows should be rare.
        assert!(
            sequential < 100,
            "adversarial kernel looks sequential: {sequential}"
        );
    }

    #[test]
    fn pointer_chase_is_dependent_and_covers_region() {
        let steps = run(KernelSpec::pointer_chase(1 << 16), 4000);
        assert!(steps.iter().all(|s| s.dependent));
        let unique: std::collections::HashSet<u64> = steps
            .iter()
            .map(|s| s.region_offset / BLOCK_BYTES)
            .collect();
        // 64 KiB = 1024 blocks; a pseudo-random walk of 4000 steps should
        // touch most of them.
        assert!(
            unique.len() > 700,
            "walk covered only {} blocks",
            unique.len()
        );
    }

    #[test]
    fn pointer_chase_revisits_when_asked() {
        let steps = run(KernelSpec::pointer_chase_with_revisit(1 << 16, 0.5), 2000);
        let revisits = steps.iter().filter(|s| s.pc_slot == 1).count();
        assert!(revisits > 500, "expected ~50% revisits, got {revisits}");
        assert!(steps
            .iter()
            .filter(|s| s.pc_slot == 1)
            .all(|s| !s.dependent));
    }

    #[test]
    fn stack_distance_reuse_rate_tracks_parameter() {
        let steps = run(KernelSpec::stack_distance(1 << 24, 0.7, 32.0), 20_000);
        let reuses = steps.iter().filter(|s| s.pc_slot != 0).count() as f64;
        let rate = reuses / steps.len() as f64;
        assert!((rate - 0.7).abs() < 0.05, "reuse rate {rate} far from 0.7");
    }

    #[test]
    fn classed_distinct_pools_have_terminal_slots() {
        // Two classes: 2-touch (slots 0..2) and 4-touch (slots 2..6).
        let mut r = rng();
        let spec = KernelSpec::classed(1 << 20, 64, vec![(1.0, 2), (1.0, 4)]);
        let mut k = spec.instantiate(&mut r);
        assert_eq!(k.pc_slots(), 6);
        let mut histories: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        for _ in 0..20_000 {
            let s = k.step(&mut r);
            histories
                .entry(s.region_offset / BLOCK_BYTES)
                .or_default()
                .push(s.pc_slot);
        }
        // After the (staggered) initial generation, every completed
        // generation is exactly [0,1] or [2,3,4,5].
        let mut complete = 0;
        for h in histories.values() {
            // Skip the partial initial generation: class starts are 0 or 2.
            let mut i = match h.iter().position(|&s| s == 0 || s == 2) {
                Some(i) => i,
                None => continue,
            };
            while i < h.len() {
                if h[i] == 0 {
                    if i + 2 <= h.len() && h[i..].len() >= 2 && h[i + 1] == 1 {
                        complete += 1;
                        i += 2;
                    } else {
                        break; // truncated generation at the end
                    }
                } else if h[i] == 2 {
                    if i + 4 <= h.len() && h[i + 1..i + 4] == [3, 4, 5] {
                        complete += 1;
                        i += 4;
                    } else {
                        break;
                    }
                } else {
                    panic!("generation starting at unexpected slot {}", h[i]);
                }
            }
        }
        assert!(
            complete > 1000,
            "expected many completed generations, got {complete}"
        );
    }

    #[test]
    fn classed_shared_prefix_overlaps_slots() {
        let mut r = rng();
        // Small region so block numbers recycle and death→rebirth pairs
        // appear within one block's history.
        let spec = KernelSpec::classed_ambiguous(1 << 13, 64, vec![(1.0, 2), (1.0, 4)]);
        let mut k = spec.instantiate(&mut r);
        assert_eq!(k.pc_slots(), 4);
        // Slot 1 must be both terminal (class 2) and mid-life (class 4):
        // check that accesses with slot 1 are followed sometimes by slot 2
        // on the same block and sometimes by slot 0 (new generation).
        let mut after_slot1: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        for _ in 0..20_000 {
            let s = k.step(&mut r);
            after_slot1
                .entry(s.region_offset / BLOCK_BYTES)
                .or_default()
                .push(s.pc_slot);
        }
        let mut continued = 0;
        let mut died = 0;
        for h in after_slot1.values() {
            for w in h.windows(2) {
                if w[0] == 1 {
                    if w[1] == 2 {
                        continued += 1;
                    } else if w[1] == 0 {
                        died += 1;
                    }
                }
            }
        }
        assert!(continued > 100, "slot 1 never continued: {continued}");
        assert!(died > 100, "slot 1 never terminal: {died}");
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn classed_requires_classes() {
        let mut r = rng();
        let _ = KernelSpec::classed(1 << 12, 4, vec![]).instantiate(&mut r);
    }

    #[test]
    fn kernels_respect_declared_regions_and_slots() {
        let specs = vec![
            KernelSpec::streaming(1 << 16),
            KernelSpec::scan_burst(1 << 16, 3),
            KernelSpec::hot_set(1 << 14),
            KernelSpec::generational(1 << 18, 5, 16),
            KernelSpec::adversarial(1 << 18, 5, 16),
            KernelSpec::classed(1 << 18, 16, vec![(2.0, 1), (1.0, 3), (0.5, 6)]),
            KernelSpec::classed_ambiguous(1 << 18, 16, vec![(1.0, 2), (1.0, 5)]),
            KernelSpec::pointer_chase(1 << 16),
            KernelSpec::stack_distance(1 << 20, 0.5, 16.0),
        ];
        for spec in specs {
            let mut r = rng();
            let mut k = spec.instantiate(&mut r);
            let region = k.region_bytes();
            let slots = k.pc_slots();
            for _ in 0..2000 {
                let s = k.step(&mut r);
                assert!(s.region_offset < region, "{spec:?} escaped its region");
                assert!(s.pc_slot < slots, "{spec:?} used undeclared pc slot");
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_is_rejected() {
        let _ = KernelSpec::streaming(1 << 12).weight(0.0);
    }

    #[test]
    #[should_panic(expected = "region must hold at least one block")]
    fn empty_region_is_rejected() {
        let mut r = rng();
        let _ = KernelSpec::streaming(1).instantiate(&mut r);
    }

    #[test]
    #[should_panic(expected = "live_slots")]
    fn generational_live_slots_must_fit_region() {
        let mut r = rng();
        let _ = KernelSpec::generational(1 << 7, 2, 100).instantiate(&mut r);
    }
}
