//! The timing model of one hart.
//!
//! Consumes the stream the shared functional interpreter emits and charges
//! cycles for front-end (I-cache, branch prediction), execute (mul/div
//! latency), and memory (D-cache, DRAM, remote-memory faults). The same
//! instruction stream the functional simulators execute is what gets
//! timed — timing never changes architectural behaviour.
//!
//! # The stream
//!
//! The interpreter does not send instructions. It sends control flow and
//! addresses, in [`Batch`]es:
//!
//! - a block mark per block: the slot of the predecoded [`Page`] it ran on,
//!   its first pc, and the exact number of ops it retired;
//! - with a block's first mark on a page it has not sent before, the page
//!   itself: filled pages are immutable and shared, and a refill after a
//!   code store is a new page, so self-modifying code stays exact;
//! - a taken bit per conditional branch, and a word per load or store
//!   address and per `jalr` target;
//! - an explicit record only for an instruction an uncached fallback step
//!   retired (its pc, [`Class`] and call/return flags);
//! - a record per serviced syscall, and the remote-memory window whenever
//!   it changes.
//!
//! [`Pipeline::charge`], the one charging body, walks each block's page
//! from its pc to rebuild the pc sequence, reading the facts in order. It
//! charges each run of plain ops ([`Class::is_plain`]) in one step —
//! instructions, a cycle each, mul/div latency and one I-cache probe per
//! line the run enters — from per-slot run summaries it computes once,
//! when a page is published to it.

use std::ops::Range;
use std::sync::Arc;

use marshal_isa::interp::{RetireKind, Retired};
use marshal_isa::predecode::{Class, Emit, Page, MAX_PAGES, PAGE_SIZE, SLOTS_PER_PAGE};

use crate::bpred::{Predictor, ReturnAddressStack};
use crate::cache::{Access, Cache, CacheStats};
use crate::config::{HardwareConfig, RemoteMemConfig};
use crate::pfa::{PfaStats, RemoteMemory, RemoteMode};

/// Instructions one [`Batch`] carries at most. A timing thread that keeps
/// up with the interpreter sleeps between batches, and each wake-up costs
/// the interpreter microseconds on a virtualised host, so a batch is large
/// enough to make them rare.
pub const BATCH: usize = 16384;

/// Words one [`Batch`] holds: marks, explicit records and facts. An
/// instruction emits at most one word, so a block may retire as many ops
/// as the smaller room allows. The ten intspeed binaries emit about 0.15
/// words per instruction, so instructions fill a batch first; the array
/// stays small because every run allocates one.
const WORDS: usize = BATCH / 4;

/// The tag in the low byte of a record's first word.
mod tag {
    /// A block: `count << 32 | slot << 8 | PUBLISH? | BLOCK`, then its pc.
    pub const BLOCK: u64 = 0;
    /// An uncached step: `ret << 17 | call << 16 | class << 8 | STEP`,
    /// then its pc; its facts follow as a block's do.
    pub const STEP: u64 = 1;
    /// A serviced syscall, then its number.
    pub const SYSCALL: u64 = 2;
    /// The remote-memory window, then its start and end.
    pub const REMOTE: u64 = 3;
    /// The bits of the tag.
    pub const MASK: u64 = 3;
    /// A block whose page comes next in [`super::Batch`]'s page list.
    pub const PUBLISH: u64 = 4;
}

/// One batch of the interpreter's stream (see the module docs), written in
/// program order and read by [`Pipeline::charge`].
///
/// A block entered with [`Batch::enter`] may retire as many ops as it
/// returns: each op writes at most one word and one bit, so facts are
/// written without a bounds check that could fail.
#[derive(Debug)]
pub struct Batch {
    words: Box<[u64; WORDS]>,
    len: usize,
    bits: Box<[u64; BATCH / 64]>,
    branches: usize,
    insts: usize,
    /// The index of the open block's mark.
    open: usize,
    pages: Vec<Arc<Page>>,
}

impl Default for Batch {
    fn default() -> Batch {
        Batch::new()
    }
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch {
            words: Box::new([0; WORDS]),
            len: 0,
            bits: Box::new([0; BATCH / 64]),
            branches: 0,
            insts: 0,
            open: 0,
            pages: Vec::new(),
        }
    }

    /// Whether nothing is written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `words` more words and `insts` more instructions fit.
    pub fn has_room(&self, words: usize, insts: usize) -> bool {
        self.len + words <= WORDS && self.insts + insts <= BATCH
    }

    /// The instructions written so far.
    pub fn instructions(&self) -> usize {
        self.insts
    }

    /// The bytes the batch hands over: its words, its taken bits and its
    /// page handles.
    pub fn bytes(&self) -> usize {
        8 * self.len + self.branches.div_ceil(8) + std::mem::size_of_val(&self.pages[..])
    }

    /// Empties the batch for reuse.
    pub fn clear(&mut self) {
        self.bits[..self.branches.div_ceil(64)].fill(0);
        self.len = 0;
        self.branches = 0;
        self.insts = 0;
        self.pages.clear();
    }

    #[inline(always)]
    fn push(&mut self, word: u64) {
        debug_assert!(self.len < WORDS, "a fact beyond the block's bound");
        self.words[self.len & (WORDS - 1)] = word;
        self.len += 1;
    }

    /// Opens a block at `pc` on the page in `slot`, handing `page` over
    /// when `publish` is set (the slot's first block since it was filled).
    /// Returns the most ops the block may retire; it needs room for its
    /// mark.
    #[inline]
    pub fn enter(&mut self, slot: usize, page: &Arc<Page>, publish: bool, pc: u64) -> u64 {
        debug_assert!(slot < MAX_PAGES && self.has_room(2, 0));
        self.open = self.len;
        self.push(((slot as u64) << 8) | (u64::from(publish) * tag::PUBLISH) | tag::BLOCK);
        self.push(pc);
        if publish {
            self.publish(page);
        }
        (BATCH - self.insts).min(WORDS - self.len) as u64
    }

    #[cold]
    fn publish(&mut self, page: &Arc<Page>) {
        self.pages.push(Arc::clone(page));
    }

    /// Closes the open block: it retired `retired` ops.
    #[inline]
    pub fn leave(&mut self, retired: u64) {
        self.words[self.open & (WORDS - 1)] |= retired << 32;
        self.insts += retired as usize;
    }

    /// An instruction retired by an uncached step. Needs room for three
    /// words and one instruction.
    pub fn step(&mut self, r: &Retired) {
        let (call, ret) = match r.kind {
            RetireKind::Jump { call, .. } => (call, false),
            RetireKind::JumpReg { call, ret, .. } => (call, ret),
            _ => (false, false),
        };
        let class = r.kind.class() as u64;
        self.push((u64::from(ret) << 17) | (u64::from(call) << 16) | (class << 8) | tag::STEP);
        self.push(r.pc);
        self.insts += 1;
        match r.kind {
            RetireKind::Load { addr } | RetireKind::Store { addr } => self.access(addr),
            RetireKind::Branch { taken, .. } => self.branch(taken),
            RetireKind::JumpReg { target, .. } => self.jump(target),
            _ => {}
        }
    }

    /// A serviced syscall. Needs room for two words.
    pub fn syscall(&mut self, sys: u64) {
        self.push(tag::SYSCALL);
        self.push(sys);
    }

    /// The remote-memory window from here on. Needs room for three words.
    pub fn remote(&mut self, window: Range<u64>) {
        self.push(tag::REMOTE);
        self.push(window.start);
        self.push(window.end);
    }
}

impl Emit for Batch {
    #[inline(always)]
    fn branch(&mut self, taken: bool) {
        let i = self.branches;
        debug_assert!(i < BATCH, "a branch beyond the block's bound");
        self.bits[(i / 64) & (BATCH / 64 - 1)] |= u64::from(taken) << (i % 64);
        self.branches = i + 1;
    }

    #[inline(always)]
    fn access(&mut self, addr: u64) {
        self.push(addr);
    }

    #[inline(always)]
    fn jump(&mut self, target: u64) {
        self.push(target);
    }
}

/// Reads a [`Batch`] back in order.
struct Reader<'a> {
    words: &'a [u64],
    at: usize,
    bits: &'a [u64],
    branch: usize,
}

impl Reader<'_> {
    #[inline]
    fn word(&mut self) -> u64 {
        let word = self.words[self.at];
        self.at += 1;
        word
    }

    #[inline]
    fn taken(&mut self) -> bool {
        let i = self.branch;
        self.branch += 1;
        (self.bits[i / 64] >> (i % 64)) & 1 != 0
    }
}

/// Performance counters for one simulated node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Total cycles (user + kernel).
    pub cycles: u64,
    /// Instructions retired by user programs.
    pub instructions: u64,
    /// Cycles attributed to user execution.
    pub user_cycles: u64,
    /// Cycles attributed to the (modelled) kernel: syscalls and software
    /// paging.
    pub kernel_cycles: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Indirect jumps retired.
    pub indirect_jumps: u64,
    /// Indirect jumps whose target was predicted by the RAS.
    pub ras_hits: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Multiply operations.
    pub mul_ops: u64,
    /// Divide operations.
    pub div_ops: u64,
    /// Syscalls serviced.
    pub syscalls: u64,
    /// Cycles stalled on remote-memory faults.
    pub remote_stall_cycles: u64,
}

impl PerfCounters {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Conditional branch prediction accuracy in [0, 1].
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// What a block walk does from one slot of a page: the plain run that
/// starts there (the consecutive plain ops, and the multiplies and divides
/// among them), then the op that ends it. Runs end at the first op that is
/// not plain, at the latest the page's sentinel.
#[derive(Debug, Clone, Copy)]
struct Step {
    run: u16,
    mul: u16,
    div: u16,
    class: Class,
    call: bool,
    ret: bool,
}

/// A page published to the pipeline, with the [`Step`] from each of its
/// slots, the sentinel's included.
#[derive(Debug)]
struct Published {
    page: Arc<Page>,
    steps: Box<[Step]>,
}

impl Published {
    fn new(page: Arc<Page>) -> Published {
        let mut steps: Vec<Step> = Vec::with_capacity(SLOTS_PER_PAGE + 1);
        for op in page.ops().iter().rev() {
            let class = op.class();
            let step = match steps.last() {
                Some(&next) if class.is_plain() => Step {
                    run: next.run + 1,
                    mul: next.mul + u16::from(class == Class::Mul),
                    div: next.div + u16::from(class == Class::Div),
                    ..next
                },
                _ => Step {
                    run: 0,
                    mul: 0,
                    div: 0,
                    class,
                    call: op.is_call(),
                    ret: op.is_ret(),
                },
            };
            steps.push(step);
        }
        steps.reverse();
        Published {
            page,
            steps: steps.into_boxed_slice(),
        }
    }
}

/// Where an op sends control, as [`Pipeline::execute`] reads it.
enum Flow {
    /// To the next word.
    Next,
    /// To the op's static target: a taken branch or a `jal`.
    Taken,
    /// To a `jalr` target.
    To(u64),
}

/// The timing pipeline attached to one hart.
pub struct Pipeline {
    core: crate::config::CoreConfig,
    dram_latency: u64,
    predictor: Predictor,
    ras: ReturnAddressStack,
    icache: Cache,
    dcache: Cache,
    l2: Option<Cache>,
    remote: Option<RemoteMemory>,
    /// The remote-memory window, as `(start, length)`.
    window: (u64, u64),
    counters: PerfCounters,
    /// The conditional branches of the batch being charged, `(pc, taken)`:
    /// the predictor resolves them in a second pass.
    branches: Vec<(u64, bool)>,
    /// The page published in each decode-cache slot.
    pages: Vec<Option<Published>>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("bpred", &self.predictor.name())
            .field("counters", &self.counters)
            .finish()
    }
}

/// What [`Pipeline::charge`] keeps in locals for a batch: the counters and
/// the last I- and D-line, which repeat for free.
struct Locals {
    counters: PerfCounters,
    i_line: Option<u64>,
    d_line: Option<u64>,
}

impl Pipeline {
    /// Builds the pipeline described by a hardware configuration.
    pub fn new(hw: &HardwareConfig) -> Pipeline {
        let remote = match &hw.remote {
            RemoteMemConfig::None => None,
            RemoteMemConfig::SoftwarePaging(t) => {
                Some(RemoteMemory::new(RemoteMode::SoftwarePaging, *t, 4096))
            }
            RemoteMemConfig::Pfa(t) => Some(RemoteMemory::new(RemoteMode::Pfa, *t, 4096)),
        };
        Pipeline {
            core: hw.core,
            dram_latency: hw.dram_latency,
            predictor: Predictor::new(&hw.bpred),
            ras: ReturnAddressStack::default(),
            icache: Cache::new(hw.icache),
            dcache: Cache::new(hw.dcache),
            l2: hw.l2.map(Cache::new),
            remote,
            window: (0, 0),
            counters: PerfCounters::default(),
            branches: Vec::new(),
            pages: (0..MAX_PAGES).map(|_| None).collect(),
        }
    }

    /// The counters so far.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// The branch predictor's name.
    pub fn bpred_name(&self) -> &'static str {
        self.predictor.name()
    }

    /// I-cache statistics.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// D-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Remote-memory statistics (when remote memory is configured).
    pub fn pfa_stats(&self) -> Option<PfaStats> {
        self.remote.as_ref().map(RemoteMemory::stats)
    }

    /// L2 statistics (when configured).
    pub fn l2_stats(&self) -> Option<CacheStats> {
        self.l2.as_ref().map(Cache::stats)
    }

    /// Charges a batch, in order: the pipeline's one charging body.
    ///
    /// The counters and the last I- and D-line live in locals for the
    /// batch and are written back at its end. The L1 access counts are
    /// added then too, since every instruction fetches once and every load
    /// and store accesses the D-cache once. Conditional branches are
    /// predicted in a second pass over the batch: predictor state follows
    /// the branch sequence alone and cycles add up, so every count is the
    /// one an instruction-by-instruction body gives.
    ///
    /// # Panics
    ///
    /// Panics if a block runs on a slot no page was published to, or reads
    /// past the facts the batch holds.
    pub fn charge(&mut self, batch: &Batch) {
        let before = self.counters;
        let mut locals = Locals {
            counters: before,
            i_line: self.icache.last_line(),
            d_line: self.dcache.last_line(),
        };
        let mut reader = Reader {
            words: &batch.words[..batch.len],
            at: 0,
            bits: &batch.bits[..],
            branch: 0,
        };
        let mut pages = batch.pages.iter();
        while reader.at < batch.len {
            let head = reader.word();
            match head & tag::MASK {
                tag::BLOCK => {
                    let pc = reader.word();
                    let slot = (head >> 8) as u8 as usize;
                    if head & tag::PUBLISH != 0 {
                        let page = pages.next().expect("a published page");
                        self.pages[slot] = Some(Published::new(Arc::clone(page)));
                    }
                    let page = self.pages[slot].take().expect("a page in the slot");
                    self.walk(&mut locals, &mut reader, &page, pc, head >> 32);
                    self.pages[slot] = Some(page);
                }
                tag::STEP => {
                    let pc = reader.word();
                    let class = Class::ALL[(head >> 8) as u8 as usize];
                    let (call, ret) = ((head >> 16) & 1 != 0, (head >> 17) & 1 != 0);
                    let (mul, div) = (class == Class::Mul, class == Class::Div);
                    self.charge_run(&mut locals, pc, 1, u64::from(mul), u64::from(div));
                    self.execute(&mut locals, &mut reader, pc, class, call, ret);
                }
                tag::SYSCALL => {
                    let sys = reader.word();
                    let c = &mut locals.counters;
                    c.syscalls += 1;
                    c.kernel_cycles += self.core.syscall_base_cost + syscall_cost(sys);
                }
                _ => {
                    let (start, end) = (reader.word(), reader.word());
                    self.window = (start, end - start);
                }
            }
        }
        let c = &mut locals.counters;
        let mispredicts = self.predictor.mispredicts(&self.branches);
        self.branches.clear();
        c.mispredicts += mispredicts;
        c.user_cycles += mispredicts * self.core.mispredict_penalty;
        c.cycles = before.cycles
            + (c.user_cycles - before.user_cycles)
            + (c.kernel_cycles - before.kernel_cycles);
        self.icache.set_last_line(locals.i_line);
        self.dcache.set_last_line(locals.d_line);
        self.icache
            .count_accesses(c.instructions - before.instructions);
        self.dcache
            .count_accesses(c.loads + c.stores - before.loads - before.stores);
        self.counters = *c;
    }

    /// Charges the `count` ops of a block that starts at `pc` on `page`,
    /// following its control flow with the facts in `reader`: a [`Step`]
    /// at a time, its run and the op that ends it fetched in one sweep.
    #[inline]
    fn walk(
        &mut self,
        locals: &mut Locals,
        reader: &mut Reader,
        page: &Published,
        mut pc: u64,
        count: u64,
    ) {
        let base = pc & !(PAGE_SIZE - 1);
        let mut left = count;
        while left > 0 {
            let slot = ((pc - base) / 4) as usize;
            let step = page.steps[slot];
            let run = u64::from(step.run);
            if run >= left {
                // The block ends inside the run: charge its first `left`
                // ops, whose multiplies and divides are the run's less
                // those of the run from the slot after them.
                let rest = page.steps[slot + left as usize];
                let (mul, div) = (step.mul - rest.mul, step.div - rest.div);
                self.charge_run(locals, pc, left, u64::from(mul), u64::from(div));
                return;
            }
            let (mul, div) = (u64::from(step.mul), u64::from(step.div));
            self.charge_run(locals, pc, run + 1, mul, div);
            pc += 4 * run;
            let flow = self.execute(locals, reader, pc, step.class, step.call, step.ret);
            pc = match flow {
                Flow::Next => pc + 4,
                Flow::Taken => page.page.ops()[slot + run as usize].target(pc),
                Flow::To(target) => target,
            };
            left -= run + 1;
        }
    }

    /// Charges the fetch of `n` instructions from `pc`, a cycle each, and
    /// the extra latency of `mul` multiplies and `div` divides among them:
    /// all that a plain op costs. The I-cache is probed once per line the
    /// run enters.
    #[inline]
    fn charge_run(&mut self, locals: &mut Locals, pc: u64, n: u64, mul: u64, div: u64) {
        let c = &mut locals.counters;
        c.instructions += n;
        c.mul_ops += mul;
        c.div_ops += div;
        let mut cycles = n + mul * (self.core.mul_latency - 1) + div * (self.core.div_latency - 1);
        let first = self.icache.line_of(pc);
        let last = self.icache.line_of(pc + 4 * (n - 1));
        let stride = self.icache.lines_per_instruction();
        let mut line = first;
        loop {
            if locals.i_line != Some(line) {
                locals.i_line = Some(line);
                if self.icache.access_line(line) == Access::Miss {
                    let at = if line == first {
                        pc
                    } else {
                        self.icache.line_start(line)
                    };
                    cycles += self.miss_beyond_l1(at);
                }
            }
            if line >= last {
                break;
            }
            line += stride;
        }
        locals.counters.user_cycles += cycles;
    }

    /// Charges what an op of `class` at `pc` costs beyond its fetch and
    /// its cycle ([`Pipeline::charge_run`]), reading its facts from
    /// `reader`; branch outcomes and total cycles are left to
    /// [`Pipeline::charge`]. Plain ops cost nothing more. Returns where it
    /// sends control.
    #[inline(always)]
    fn execute(
        &mut self,
        locals: &mut Locals,
        reader: &mut Reader,
        pc: u64,
        class: Class,
        call: bool,
        ret: bool,
    ) -> Flow {
        let c = &mut locals.counters;
        let mut cycles = 0;
        let flow = match class {
            Class::Alu | Class::Mul | Class::Div | Class::Csr | Class::System => Flow::Next,
            Class::Load | Class::Store => {
                let addr = reader.word();
                if class == Class::Load {
                    c.loads += 1;
                } else {
                    c.stores += 1;
                }
                if let Some(remote) = &mut self.remote {
                    if addr.wrapping_sub(self.window.0) < self.window.1 {
                        let stall = remote.access(addr);
                        c.remote_stall_cycles += stall;
                        // Software paging burns the stall in the kernel;
                        // the PFA stalls the hart in user mode.
                        if remote.mode() == RemoteMode::SoftwarePaging {
                            c.kernel_cycles += stall;
                        } else {
                            cycles += stall;
                        }
                    }
                }
                let line = self.dcache.line_of(addr);
                let hit = locals.d_line == Some(line) || {
                    locals.d_line = Some(line);
                    self.dcache.access_line(line) == Access::Hit
                };
                if hit {
                    cycles += self.dcache.config().hit_latency - 1;
                } else {
                    cycles += self.miss_beyond_l1(addr);
                }
                Flow::Next
            }
            Class::Branch => {
                // Predicted after the batch: predictor state follows the
                // branch sequence alone, and cycles add up the same.
                let taken = reader.taken();
                c.branches += 1;
                self.branches.push((pc, taken));
                if taken {
                    Flow::Taken
                } else {
                    Flow::Next
                }
            }
            Class::Jump => {
                // Direct jumps resolve in the front end (BTB assumed);
                // calls push the RAS.
                if call {
                    self.ras.push(pc.wrapping_add(4));
                }
                Flow::Taken
            }
            Class::JumpReg => {
                let target = reader.word();
                c.indirect_jumps += 1;
                let mut predicted = false;
                if ret {
                    // `ret`: consult the RAS.
                    if self.ras.pop() == Some(target) {
                        predicted = true;
                        c.ras_hits += 1;
                    }
                } else if call {
                    // Indirect call: push the return address.
                    self.ras.push(pc.wrapping_add(4));
                }
                if !predicted {
                    cycles += self.core.jalr_penalty;
                }
                Flow::To(target)
            }
            Class::Ecall | Class::Ebreak | Class::Stop => {
                unreachable!("a {class:?} op retires no record")
            }
        };
        c.user_cycles += cycles;
        flow
    }

    /// Cost of an L1 miss: the L2 (when present) absorbs it at its hit
    /// latency, otherwise DRAM.
    fn miss_beyond_l1(&mut self, addr: u64) -> u64 {
        match &mut self.l2 {
            Some(l2) => match l2.access(addr) {
                Access::Hit => l2.config().hit_latency,
                Access::Miss => l2.config().hit_latency + self.dram_latency,
            },
            None => self.dram_latency,
        }
    }
}

/// The modelled kernel cost of syscall `sys`, beyond the core's base cost.
fn syscall_cost(sys: u64) -> u64 {
    use marshal_isa::abi::sys as s;
    match sys {
        s::WRITE => 300,
        s::READ => 250,
        s::OPEN => 1000,
        s::CLOSE => 200,
        s::EXIT => 100,
        s::ARGC | s::ARGV => 50,
        s::MMAP_REMOTE => 1500,
        s::TRACE => 100,
        _ => 400,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BpredConfig;
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
    use marshal_isa::inst::Reg;
    use marshal_isa::interp::{Cpu, StepOutcome};
    use marshal_isa::mem::{Bus, FlatMemory};

    /// Charges `r` as an uncached step in a batch of its own; `is_remote`
    /// puts its address in the remote window first.
    fn retire(pipe: &mut Pipeline, r: &Retired, is_remote: bool) {
        let mut batch = Batch::new();
        let window = match r.kind {
            RetireKind::Load { addr } | RetireKind::Store { addr } if is_remote => addr..addr + 1,
            _ => 0..0,
        };
        batch.remote(window);
        batch.step(r);
        pipe.charge(&batch);
    }

    /// Runs a program through both the functional core and the pipeline,
    /// returning the cycles charged for each retired instruction.
    fn retire_costs(src: &str, hw: &HardwareConfig) -> (Vec<u64>, Pipeline) {
        let exe = assemble(src, abi::USER_BASE).unwrap();
        let mut mem = FlatMemory::new(1 << 21);
        exe.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(exe.entry());
        cpu.write_reg(Reg::SP, 0x10_0000);
        let mut pipe = Pipeline::new(hw);
        let mut costs = Vec::new();
        loop {
            match cpu.step(&mut mem).unwrap() {
                StepOutcome::Retired(r) => {
                    let before = pipe.counters().cycles;
                    retire(&mut pipe, &r, false);
                    costs.push(pipe.counters().cycles - before);
                }
                StepOutcome::Ecall => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        (costs, pipe)
    }

    /// [`retire_costs`], returning the cycle count and counters.
    fn time_program(src: &str, hw: &HardwareConfig) -> (u64, PerfCounters) {
        let (_, pipe) = retire_costs(src, hw);
        (pipe.counters().cycles, *pipe.counters())
    }

    const LOOP: &str = r#"
_start:
        li      t0, 1000
loop:   addi    t0, t0, -1
        bnez    t0, loop
        ecall
"#;

    #[test]
    fn timing_is_deterministic() {
        let hw = HardwareConfig::boom_tage();
        assert_eq!(time_program(LOOP, &hw).0, time_program(LOOP, &hw).0);
    }

    #[test]
    fn better_predictor_fewer_cycles() {
        // The loop branch is taken 999 times then falls through: an
        // always-taken predictor mispredicts once; never-taken mispredicts
        // 999 times.
        let base = HardwareConfig::rocket();
        let (cyc_taken, c_taken) =
            time_program(LOOP, &base.clone().with_bpred(BpredConfig::AlwaysTaken));
        let (cyc_never, c_never) =
            time_program(LOOP, &base.clone().with_bpred(BpredConfig::NeverTaken));
        assert_eq!(c_taken.mispredicts, 1);
        assert_eq!(c_never.mispredicts, 999);
        assert!(cyc_taken < cyc_never);
        assert_eq!(
            cyc_never - cyc_taken,
            998 * base.core.mispredict_penalty,
            "cycle gap must be exactly the mispredict penalty difference"
        );
    }

    #[test]
    fn ipc_below_one_with_stalls() {
        let hw = HardwareConfig::rocket().with_bpred(BpredConfig::NeverTaken);
        let (_, c) = time_program(LOOP, &hw);
        assert!(c.ipc() < 1.0);
        assert!(c.branch_accuracy() < 0.01);
    }

    #[test]
    fn dcache_miss_costs_dram_latency() {
        // Two loads to the same line: one miss, one hit. All instructions
        // share one I-cache line, so only the first pays an I-cache miss.
        let src = r#"
_start:
        li      t0, 0x4000
        ld      a0, 0(t0)
        ld      a1, 8(t0)
        ecall
"#;
        let hw = HardwareConfig::rocket();
        let (costs, pipe) = retire_costs(src, &hw);
        let c = pipe.counters();
        assert_eq!(c.loads, 2);
        // Rocket has no L2: an L1 miss goes straight to DRAM.
        assert_eq!(
            costs,
            [
                1 + hw.dram_latency,
                1 + hw.dram_latency,
                hw.dcache.hit_latency
            ],
            "li (I-cache miss), ld (D-cache miss), ld (D-cache hit)"
        );
        assert_eq!(c.cycles, costs.iter().sum::<u64>());
        assert_eq!(pipe.dcache_stats().accesses, 2);
        assert_eq!(pipe.dcache_stats().misses, 1);
        assert_eq!(pipe.icache_stats().misses, 1);
    }

    #[test]
    fn ras_predicts_call_ret() {
        let src = r#"
_start:
        li      t0, 50
loop:
        call    leaf
        addi    t0, t0, -1
        bnez    t0, loop
        ecall
leaf:
        ret
"#;
        let hw = HardwareConfig::rocket();
        let (_, c) = time_program(src, &hw);
        assert_eq!(c.indirect_jumps, 50);
        assert_eq!(c.ras_hits, 50, "every ret should hit the RAS");
    }

    #[test]
    fn mul_div_latencies_charged() {
        let alu = "_start:\n add a0, a1, a2\n ecall\n";
        let mul = "_start:\n mul a0, a1, a2\n ecall\n";
        let div = "_start:\n div a0, a1, a2\n ecall\n";
        let hw = HardwareConfig::rocket();
        let (c_alu, _) = time_program(alu, &hw);
        let (c_mul, cm) = time_program(mul, &hw);
        let (c_div, cd) = time_program(div, &hw);
        assert_eq!(c_mul - c_alu, hw.core.mul_latency - 1);
        assert_eq!(c_div - c_alu, hw.core.div_latency - 1);
        assert_eq!(cm.mul_ops, 1);
        assert_eq!(cd.div_ops, 1);
    }

    #[test]
    fn syscall_cost_is_kernel_time() {
        let mut pipe = Pipeline::new(&HardwareConfig::rocket());
        let mut batch = Batch::new();
        batch.syscall(marshal_isa::abi::sys::WRITE);
        pipe.charge(&batch);
        let cost = pipe.counters().cycles;
        assert!(cost > 0);
        assert_eq!(pipe.counters().kernel_cycles, cost);
        assert_eq!(pipe.counters().user_cycles, 0);
        assert_eq!(pipe.counters().syscalls, 1);
    }

    #[test]
    fn batches_hand_the_last_lines_to_the_next_batch() {
        // The charging loop keeps the last I- and D-line in locals; the
        // caches must hold them after each batch, so a batch that starts
        // on the same lines repeats them without a set lookup.
        let load = |pc, addr| Retired {
            pc,
            next_pc: pc + 4,
            kind: RetireKind::Load { addr },
        };
        let mut pipe = Pipeline::new(&HardwareConfig::rocket());
        for (pc, addr) in [(0x1000, 0x8000), (0x1040, 0x8040), (0x1044, 0x8048)] {
            retire(&mut pipe, &load(pc, addr), false);
            assert_eq!(pipe.icache.last_line(), Some(pc >> 6));
            assert_eq!(pipe.dcache.last_line(), Some(addr >> 6));
        }
        assert_eq!(pipe.icache_stats().misses, 2);
        assert_eq!(pipe.dcache_stats().misses, 2);
    }

    /// The page of a program of `nop`s at address 0.
    fn plain_page() -> Arc<Page> {
        struct Grab(Option<Arc<Page>>);
        impl Emit for Grab {
            fn branch(&mut self, _taken: bool) {}
            fn access(&mut self, _addr: u64) {}
            fn jump(&mut self, _target: u64) {}
        }
        impl marshal_isa::BlockSink for Grab {
            fn clock(&mut self) -> Option<u64> {
                None
            }
            fn enter(&mut self, _slot: usize, page: &Arc<Page>, _pc: u64) -> u64 {
                self.0 = Some(Arc::clone(page));
                u64::MAX
            }
            fn leave(&mut self, _retired: u64) {}
            fn step(&mut self, _r: &Retired) {}
        }
        let mut mem = FlatMemory::new(1 << 13);
        for pc in (0..PAGE_SIZE).step_by(4) {
            mem.store(pc, 4, 0x13).unwrap(); // addi x0, x0, 0
        }
        let mut grab = Grab(None);
        marshal_isa::DecodeCache::new()
            .run_block(&mut Cpu::new(0), &mut mem, 1, &mut grab)
            .unwrap();
        grab.0.expect("a block ran")
    }

    #[test]
    fn a_block_never_outgrows_its_batch() {
        // Plain ops write no words, so a batch of long plain blocks runs
        // out of instructions (and taken bits) long before words: each
        // block's bound must respect both rooms.
        let page = plain_page();
        let mut batch = Batch::new();
        let mut publish = true;
        while batch.has_room(2, 1) {
            let bound = batch.enter(0, &page, publish, 0);
            publish = false;
            assert!(batch.instructions() as u64 + bound <= BATCH as u64);
            batch.leave(bound.min(1000));
        }
        assert!(batch.instructions() <= BATCH);
        let mut pipe = Pipeline::new(&HardwareConfig::rocket());
        pipe.charge(&batch);
        assert_eq!(pipe.counters().instructions, batch.instructions() as u64);
    }

    #[test]
    fn remote_stall_accounting_differs_by_mode() {
        use crate::pfa::RemoteTimings;
        let t = RemoteTimings::default();
        let retired = Retired {
            pc: 0x1000,
            next_pc: 0x1004,
            kind: RetireKind::Load { addr: 0x1000_0000 },
        };
        let mut sw = Pipeline::new(
            &HardwareConfig::rocket().with_remote(RemoteMemConfig::SoftwarePaging(t)),
        );
        retire(&mut sw, &retired, true);
        assert!(
            sw.counters().kernel_cycles > 0,
            "sw paging stalls in kernel"
        );

        let mut hw = Pipeline::new(&HardwareConfig::rocket().with_remote(RemoteMemConfig::Pfa(t)));
        retire(&mut hw, &retired, true);
        assert_eq!(hw.counters().kernel_cycles, 0, "pfa stalls in hardware");
        assert!(hw.counters().remote_stall_cycles > 0);
        assert!(
            hw.counters().remote_stall_cycles < sw.counters().remote_stall_cycles,
            "pfa critical path shorter"
        );
    }
}
