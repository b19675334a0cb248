//! The user-program runner: executes MEXE binaries over the syscall ABI.
//!
//! Programs run in a flat user address space with a downward-growing stack.
//! `ecall`s are serviced against an [`OsServices`] implementation — the
//! functional guest OS here, or the cycle-exact simulator's timed variant.
//! [`UserRunner::run`] is the one step loop both simulator tiers share: it
//! executes a predecoded block at a time and reports every block, serviced
//! syscall and remote-memory window to a [`Timing`] model — `()` for the
//! functional tier, the rtl pipeline's feed for the cycle-exact one — so
//! both observe the exact same execution.

use std::collections::BTreeMap;
use std::ops::Range;

use marshal_isa::abi::{self, fd, flags, sys};
use marshal_isa::interp::Cpu;
use marshal_isa::mem::{Bus, PagedMemory};
use marshal_isa::predecode::{BlockEnd, BlockSink, DecodeCache};
use marshal_isa::{MexeFile, Reg, Trap};

use crate::machine::SimError;

/// Base address of the remote-memory window mapped by `mmap_remote`.
pub const REMOTE_BASE: u64 = 0x1000_0000;
/// Maximum size of the remote-memory window.
pub const REMOTE_MAX: u64 = 0x1000_0000;
/// Guest page size.
pub const PAGE_SIZE: u64 = 4096;
/// Memory-mapped UART transmit register (bare-metal machines only).
///
/// Bare-metal unit tests (§IV-A-1) may poke the serial device directly
/// instead of going through the syscall ABI, like real driver bring-up
/// code. A store of a byte to this address emits it on the console; loads
/// return 0 (always ready).
pub const UART_TX: u64 = 0x6000_0000;
/// Size of the UART MMIO window.
pub const UART_SPAN: u64 = 0x1000;

/// Services a user program requests from its operating environment.
pub trait OsServices {
    /// Writes bytes to the serial console (stdout/stderr).
    fn serial_write(&mut self, bytes: &[u8]);

    /// Reads a whole file; `None` when missing.
    fn file_read(&mut self, path: &str) -> Option<Vec<u8>>;

    /// Writes a whole file; returns false on failure.
    fn file_write(&mut self, path: &str, data: &[u8]) -> bool;
}

/// A timing model attached to [`UserRunner::run`].
///
/// The functional simulators use `()`: no model, and the CPU's own clock
/// ticks once per instruction. The cycle-exact simulator's pipeline is fed
/// the blocks the program runs (as a [`BlockSink`]), every serviced
/// syscall, and the remote-memory window that classes its loads and
/// stores, and feeds its modelled time back to `rdcycle`.
///
/// [`BlockSink::clock`] is asked only where the value is observed: right
/// before a `cycle`/`time` CSR read, which sees it, and by
/// [`crate::guest::exec_timed`] around a program, which charges it to the
/// guest clock. A model may therefore lag behind the interpreter between
/// calls, as long as each call first takes in everything reported so far.
pub trait Timing: BlockSink {
    /// Charges one serviced syscall (`sys` is the syscall number).
    fn syscall(&mut self, sys: u64);

    /// The program's remote-memory window, empty when none is mapped: a
    /// load or store inside it is remote. Told when a run starts and after
    /// each serviced syscall, before the next block.
    fn remote(&mut self, window: Range<u64>);
}

/// The functional timing: no model.
impl Timing for () {
    #[inline]
    fn syscall(&mut self, _sys: u64) {}

    #[inline]
    fn remote(&mut self, _window: Range<u64>) {}
}

struct OpenFile {
    path: String,
    data: Vec<u8>,
    cursor: usize,
    dirty: bool,
}

/// The user address space: local RAM, the lazily-mapped remote window,
/// and (on bare-metal machines) a memory-mapped UART.
#[derive(Debug)]
pub struct UserBus {
    local: PagedMemory,
    remote: Option<PagedMemory>,
    uart_enabled: bool,
    uart_tx: Vec<u8>,
}

impl UserBus {
    fn new() -> UserBus {
        UserBus {
            local: PagedMemory::with_base(0, abi::USER_MEM_SIZE),
            remote: None,
            uart_enabled: false,
            uart_tx: Vec::new(),
        }
    }

    /// Enables the memory-mapped UART at [`UART_TX`] (bare-metal mode).
    pub fn enable_uart(&mut self) {
        self.uart_enabled = true;
    }

    /// Drains bytes written to the MMIO UART since the last call.
    pub fn drain_uart(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.uart_tx)
    }

    #[inline]
    fn is_uart(&self, addr: u64) -> bool {
        self.uart_enabled && (UART_TX..UART_TX + UART_SPAN).contains(&addr)
    }

    /// Maps `pages` pages of remote memory, returning the window base.
    pub fn map_remote(&mut self, pages: u64) -> Option<u64> {
        if self.remote.is_some() || pages == 0 || pages * PAGE_SIZE > REMOTE_MAX {
            return None;
        }
        self.remote = Some(PagedMemory::with_base(
            REMOTE_BASE,
            (pages * PAGE_SIZE) as usize,
        ));
        Some(REMOTE_BASE)
    }

    /// Whether an address falls inside the mapped remote window.
    #[inline]
    pub fn is_remote(&self, addr: u64) -> bool {
        self.remote.as_ref().is_some_and(|r| r.contains(addr, 1))
    }

    /// The mapped remote window, empty when none is mapped.
    pub fn remote_window(&self) -> Range<u64> {
        self.remote
            .as_ref()
            .map_or(0..0, |r| r.base()..r.base() + r.size() as u64)
    }

    /// The local memory (for loaders and argument setup).
    pub fn local_mut(&mut self) -> &mut PagedMemory {
        &mut self.local
    }
}

impl Bus for UserBus {
    #[inline]
    fn load(&mut self, addr: u64, size: usize) -> Result<u64, Trap> {
        if self.is_uart(addr) {
            return Ok(0); // status: always ready
        }
        if let Some(remote) = &mut self.remote {
            if remote.contains(addr, size) {
                return remote.load(addr, size);
            }
        }
        self.local.load(addr, size)
    }

    #[inline]
    fn store(&mut self, addr: u64, size: usize, value: u64) -> Result<(), Trap> {
        if self.is_uart(addr) {
            let _ = size;
            self.uart_tx.push(value as u8);
            return Ok(());
        }
        if let Some(remote) = &mut self.remote {
            if remote.contains(addr, size) {
                return remote.store(addr, size, value);
            }
        }
        self.local.store(addr, size, value)
    }
}

/// Executes one MEXE program against an [`OsServices`].
pub struct UserRunner {
    /// CPU state (public so timing models can read counters and write
    /// modelled cycles back for `rdcycle`).
    pub cpu: Cpu,
    /// The user address space.
    pub bus: UserBus,
    /// Predecoded instruction cache. Guest stores invalidate it as they
    /// retire; the syscall writes below invalidate it explicitly, so
    /// self-modifying code stays correct.
    dcache: DecodeCache,
    args: Vec<String>,
    files: BTreeMap<u64, OpenFile>,
    next_fd: u64,
    exited: Option<i64>,
}

impl UserRunner {
    /// Loads a program and prepares argv and the stack.
    ///
    /// # Errors
    ///
    /// [`SimError::BadArtifact`] when a segment does not fit user memory.
    pub fn new(exe: &MexeFile, args: &[String]) -> Result<UserRunner, SimError> {
        let mut bus = UserBus::new();
        exe.load_into(bus.local_mut())
            .map_err(|t| SimError::BadArtifact(format!("loading program: {t}")))?;
        let mut cpu = Cpu::new(exe.entry());
        cpu.write_reg(Reg::SP, abi::USER_STACK_TOP);
        Ok(UserRunner {
            cpu,
            bus,
            dcache: DecodeCache::new(),
            args: args.to_vec(),
            files: BTreeMap::new(),
            next_fd: fd::FIRST_OPEN,
            exited: None,
        })
    }

    /// The program's exit code, if it has exited.
    pub fn exit_code(&self) -> Option<i64> {
        self.exited
    }

    /// Runs to completion within an instruction budget, reporting every
    /// block, serviced syscall and remote window to `timing`.
    ///
    /// This is the one step loop of both simulator tiers. It executes a
    /// predecoded block at a time ([`DecodeCache::run_block`]); each block
    /// may run only as far as the budget allows, so a hung guest stops at
    /// the same instruction as a per-step loop would. A `cycle`/`time` CSR
    /// read first sets the CPU clock from [`BlockSink::clock`] (when the
    /// model keeps one), so `rdcycle` observes modelled time. Returns the
    /// exit code — `None` when the program retired more than `budget`
    /// instructions — and the instructions retired.
    ///
    /// # Errors
    ///
    /// [`SimError::Trap`] on architectural traps, plus any error servicing
    /// a syscall.
    pub fn run<S: OsServices + ?Sized, T: Timing + ?Sized>(
        &mut self,
        os: &mut S,
        budget: u64,
        timing: &mut T,
    ) -> Result<(Option<i64>, u64), SimError> {
        let start = self.cpu.instret;
        if self.exited.is_some() {
            return Ok((self.exited, 0));
        }
        timing.remote(self.bus.remote_window());
        loop {
            let executed = self.cpu.instret - start;
            if executed > budget {
                return Ok((None, executed));
            }
            let end =
                self.dcache
                    .run_block(&mut self.cpu, &mut self.bus, budget + 1 - executed, timing);
            // Forward MMIO UART traffic to the console before anything the
            // block's last instruction asks for (a syscall, or a trap).
            if !self.bus.uart_tx.is_empty() {
                let bytes = self.bus.drain_uart();
                os.serial_write(&bytes);
            }
            if end != Ok(BlockEnd::Next) {
                match self.service(end, os)? {
                    Some(sys) => {
                        timing.syscall(sys);
                        timing.remote(self.bus.remote_window());
                    }
                    None => return Ok((self.exited, self.cpu.instret - start)),
                }
            }
        }
    }

    /// The end of a block that needs servicing — an `ecall`, an `ebreak`
    /// or a trap — kept out of line so [`UserRunner::run`] stays small.
    /// Returns the syscall number serviced, or `None` once the program has
    /// exited.
    #[cold]
    #[inline(never)]
    fn service<S: OsServices + ?Sized>(
        &mut self,
        end: Result<BlockEnd, Trap>,
        os: &mut S,
    ) -> Result<Option<u64>, SimError> {
        match end {
            Ok(BlockEnd::Ecall) => {
                let sys = self.cpu.read_reg(Reg::A7);
                self.handle_syscall(sys, os)?;
                if self.exited.is_some() {
                    self.flush_files(os);
                    return Ok(None);
                }
                Ok(Some(sys))
            }
            Ok(BlockEnd::Ebreak) => {
                // Treat like abort(): exit code 134 (SIGABRT convention).
                self.exited = Some(134);
                self.flush_files(os);
                Ok(None)
            }
            Ok(BlockEnd::Next) => unreachable!("a block that ran through needs no servicing"),
            Err(trap) => Err(SimError::Trap(format!("{trap} (pc {:#x})", self.cpu.pc))),
        }
    }

    fn flush_files<S: OsServices + ?Sized>(&mut self, os: &mut S) {
        for f in self.files.values() {
            if f.dirty {
                os.file_write(&f.path, &f.data);
            }
        }
        self.files.clear();
    }

    fn read_guest_bytes(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, SimError> {
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..len {
            let b = self
                .bus
                .load(addr + i, 1)
                .map_err(|t| SimError::Trap(t.to_string()))?;
            out.push(b as u8);
        }
        Ok(out)
    }

    fn write_guest_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), SimError> {
        for (i, b) in bytes.iter().enumerate() {
            self.bus
                .store(addr + i as u64, 1, *b as u64)
                .map_err(|t| SimError::Trap(t.to_string()))?;
        }
        // Syscalls (READ, ARGV) write behind the interpreter's back.
        self.dcache.invalidate_range(addr, bytes.len());
        Ok(())
    }

    fn read_cstr(&mut self, addr: u64) -> Result<String, SimError> {
        let mut out = Vec::new();
        for i in 0..4096 {
            let b = self
                .bus
                .load(addr + i, 1)
                .map_err(|t| SimError::Trap(t.to_string()))? as u8;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    fn handle_syscall<S: OsServices + ?Sized>(
        &mut self,
        sysno: u64,
        os: &mut S,
    ) -> Result<(), SimError> {
        let a0 = self.cpu.read_reg(Reg::A0);
        let a1 = self.cpu.read_reg(Reg::A1);
        let a2 = self.cpu.read_reg(Reg::A2);
        let ret = match sysno {
            sys::EXIT => {
                self.exited = Some(a0 as i64);
                return Ok(());
            }
            sys::WRITE => {
                let bytes = self.read_guest_bytes(a1, a2)?;
                match a0 {
                    fd::STDOUT | fd::STDERR => {
                        os.serial_write(&bytes);
                        bytes.len() as u64
                    }
                    other => match self.files.get_mut(&other) {
                        Some(f) => {
                            f.data.extend_from_slice(&bytes);
                            f.dirty = true;
                            bytes.len() as u64
                        }
                        None => u64::MAX, // -1: bad fd
                    },
                }
            }
            sys::READ => {
                let len = a2 as usize;
                match self.files.get_mut(&a0) {
                    Some(f) => {
                        let available = f.data.len().saturating_sub(f.cursor);
                        let n = available.min(len);
                        let chunk = f.data[f.cursor..f.cursor + n].to_vec();
                        f.cursor += n;
                        self.write_guest_bytes(a1, &chunk)?;
                        n as u64
                    }
                    None => u64::MAX,
                }
            }
            sys::OPEN => {
                let path = self.read_cstr(a0)?;
                let fdnum = self.next_fd;
                match a1 {
                    flags::O_RDONLY => match os.file_read(&path) {
                        Some(data) => {
                            self.files.insert(
                                fdnum,
                                OpenFile {
                                    path,
                                    data,
                                    cursor: 0,
                                    dirty: false,
                                },
                            );
                            self.next_fd += 1;
                            fdnum
                        }
                        None => u64::MAX,
                    },
                    flags::O_WRONLY => {
                        self.files.insert(
                            fdnum,
                            OpenFile {
                                path,
                                data: Vec::new(),
                                cursor: 0,
                                dirty: true,
                            },
                        );
                        self.next_fd += 1;
                        fdnum
                    }
                    flags::O_APPEND => {
                        let data = os.file_read(&path).unwrap_or_default();
                        self.files.insert(
                            fdnum,
                            OpenFile {
                                path,
                                data,
                                cursor: 0,
                                dirty: true,
                            },
                        );
                        self.next_fd += 1;
                        fdnum
                    }
                    _ => u64::MAX,
                }
            }
            sys::CLOSE => match self.files.remove(&a0) {
                Some(f) => {
                    if f.dirty {
                        os.file_write(&f.path, &f.data);
                    }
                    0
                }
                None => u64::MAX,
            },
            sys::ARGC => self.args.len() as u64,
            sys::ARGV => {
                let idx = a0 as usize;
                match self.args.get(idx) {
                    Some(arg) => {
                        let bytes = arg.as_bytes();
                        let n = bytes.len().min(a2 as usize);
                        let chunk = bytes[..n].to_vec();
                        self.write_guest_bytes(a1, &chunk)?;
                        // NUL-terminate when there is room.
                        if n < a2 as usize {
                            self.write_guest_bytes(a1 + n as u64, &[0])?;
                        }
                        n as u64
                    }
                    None => u64::MAX,
                }
            }
            sys::MMAP_REMOTE => match self.bus.map_remote(a0) {
                Some(base) => {
                    // The window was previously unmapped: drop any pages
                    // predecoded while fetches there still faulted.
                    self.dcache.clear();
                    base
                }
                None => u64::MAX,
            },
            sys::TRACE => {
                os.serial_write(format!("[trace] marker {a0}\n").as_bytes());
                0
            }
            other => {
                os.serial_write(format!("[guest] unknown syscall {other}\n").as_bytes());
                u64::MAX
            }
        };
        self.cpu.write_reg(Reg::A0, ret);
        Ok(())
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_isa::asm::assemble;

    /// Minimal OsServices backed by in-memory maps.
    #[derive(Default)]
    pub struct TestOs {
        pub serial: Vec<u8>,
        pub files: BTreeMap<String, Vec<u8>>,
    }

    impl OsServices for TestOs {
        fn serial_write(&mut self, bytes: &[u8]) {
            self.serial.extend_from_slice(bytes);
        }
        fn file_read(&mut self, path: &str) -> Option<Vec<u8>> {
            self.files.get(path).cloned()
        }
        fn file_write(&mut self, path: &str, data: &[u8]) -> bool {
            self.files.insert(path.to_owned(), data.to_vec());
            true
        }
    }

    fn run_asm(src: &str, args: &[&str], os: &mut TestOs) -> (i64, u64) {
        let exe = assemble(src, abi::USER_BASE).expect("assemble");
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let mut runner = UserRunner::new(&exe, &args).unwrap();
        match runner.run(os, 10_000_000, &mut ()).unwrap() {
            (Some(code), insts) => (code, insts),
            (None, _) => panic!("budget exhausted"),
        }
    }

    #[test]
    fn hello_world_to_serial() {
        let src = r#"
        .data
msg:    .ascii "hello from guest\n"
        .equ MSGLEN, 17
        .text
_start:
        li      a0, 1          # stdout
        la      a1, msg
        li      a2, MSGLEN
        li      a7, 64         # WRITE
        ecall
        li      a0, 0
        li      a7, 93         # EXIT
        ecall
"#;
        let mut os = TestOs::default();
        let (code, _) = run_asm(src, &[], &mut os);
        assert_eq!(code, 0);
        assert_eq!(String::from_utf8_lossy(&os.serial), "hello from guest\n");
    }

    #[test]
    fn file_write_and_read_back() {
        let src = r#"
        .data
path:   .asciiz "/output/result.txt"
body:   .ascii "42\n"
        .text
_start:
        la      a0, path
        li      a1, 1          # O_WRONLY
        li      a7, 1024       # OPEN
        ecall
        mv      t0, a0         # fd
        mv      a0, t0
        la      a1, body
        li      a2, 3
        li      a7, 64         # WRITE
        ecall
        mv      a0, t0
        li      a7, 57         # CLOSE
        ecall
        li      a0, 0
        li      a7, 93
        ecall
"#;
        let mut os = TestOs::default();
        let (code, _) = run_asm(src, &[], &mut os);
        assert_eq!(code, 0);
        assert_eq!(os.files["/output/result.txt"], b"42\n");
    }

    #[test]
    fn read_existing_file() {
        let src = r#"
        .data
path:   .asciiz "/etc/input"
buf:    .space 16
        .text
_start:
        la      a0, path
        li      a1, 0          # O_RDONLY
        li      a7, 1024
        ecall
        mv      t0, a0
        la      a1, buf
        li      a2, 16
        li      a7, 63         # READ
        ecall
        mv      t1, a0         # bytes read
        li      a0, 1
        la      a1, buf
        mv      a2, t1
        li      a7, 64         # echo to serial
        ecall
        li      a0, 0
        li      a7, 93
        ecall
"#;
        let mut os = TestOs::default();
        os.files.insert("/etc/input".to_owned(), b"ping".to_vec());
        run_asm(src, &[], &mut os);
        assert_eq!(&os.serial, b"ping");
    }

    #[test]
    fn argv_delivery() {
        let src = r#"
        .data
buf:    .space 32
        .text
_start:
        li      a7, 2000       # ARGC
        ecall
        mv      t0, a0
        li      a0, 1          # argv[1]
        la      a1, buf
        li      a2, 32
        li      a7, 2001       # ARGV
        ecall
        mv      t1, a0         # len
        li      a0, 1
        la      a1, buf
        mv      a2, t1
        li      a7, 64
        ecall
        mv      a0, t0         # exit code = argc
        li      a7, 93
        ecall
"#;
        let mut os = TestOs::default();
        let (code, _) = run_asm(src, &["prog", "600.perlbench_s"], &mut os);
        assert_eq!(code, 2);
        assert_eq!(&os.serial, b"600.perlbench_s");
    }

    #[test]
    fn mmap_remote_window() {
        let src = r#"
_start:
        li      a0, 4          # pages
        li      a7, 2002       # MMAP_REMOTE
        ecall
        mv      t0, a0
        li      t1, 99
        sd      t1, 0(t0)      # write remote
        ld      a0, 0(t0)      # read back
        li      a7, 93
        ecall
"#;
        let mut os = TestOs::default();
        let (code, _) = run_asm(src, &[], &mut os);
        assert_eq!(code, 99);
    }

    #[test]
    fn missing_file_open_fails() {
        let src = r#"
        .data
path:   .asciiz "/nope"
        .text
_start:
        la      a0, path
        li      a1, 0
        li      a7, 1024
        ecall
        # a0 is -1 on failure; exit with 1 if so
        li      t0, -1
        beq     a0, t0, fail
        li      a0, 0
        li      a7, 93
        ecall
fail:
        li      a0, 1
        li      a7, 93
        ecall
"#;
        let mut os = TestOs::default();
        let (code, _) = run_asm(src, &[], &mut os);
        assert_eq!(code, 1);
    }

    #[test]
    fn budget_enforced() {
        let exe = assemble("_start:\n j _start\n", abi::USER_BASE).unwrap();
        let mut runner = UserRunner::new(&exe, &[]).unwrap();
        let mut os = TestOs::default();
        assert!(matches!(
            runner.run(&mut os, 1000, &mut ()),
            Ok((None, 1001))
        ));
    }

    #[test]
    fn ebreak_aborts() {
        let exe = assemble("_start:\n ebreak\n", abi::USER_BASE).unwrap();
        let mut runner = UserRunner::new(&exe, &[]).unwrap();
        let mut os = TestOs::default();
        let (code, _) = runner.run(&mut os, 1000, &mut ()).unwrap();
        assert_eq!(code, Some(134));
    }

    #[test]
    fn trap_reports_pc() {
        let exe = assemble(
            "_start:\n li t0, 0x7f000000\n ld a0, 0(t0)\n",
            abi::USER_BASE,
        )
        .unwrap();
        let mut runner = UserRunner::new(&exe, &[]).unwrap();
        let mut os = TestOs::default();
        match runner.run(&mut os, 1000, &mut ()) {
            Err(SimError::Trap(m)) => assert!(m.contains("load fault")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deterministic_instruction_counts() {
        let src = r#"
_start:
        li      t0, 1000
loop:   addi    t0, t0, -1
        bnez    t0, loop
        li      a0, 0
        li      a7, 93
        ecall
"#;
        let mut os1 = TestOs::default();
        let mut os2 = TestOs::default();
        let (_, n1) = run_asm(src, &[], &mut os1);
        let (_, n2) = run_asm(src, &[], &mut os2);
        assert_eq!(n1, n2);
        assert_eq!(n1, 1 + 2000 + 3); // li + 1000*(addi+bnez) + li,li,ecall
    }
}
