//! The SPEC2017-intspeed-shaped benchmark suite (§IV-B, Listing 2).
//!
//! SPEC is closed-source, so each benchmark is a synthetic program whose
//! *character* mimics its namesake: interpreter dispatch for perlbench,
//! pointer chasing for mcf, predictable arithmetic for x264, and so on.
//! What the case study needs — ten independent, long-running, branchy jobs
//! whose predictor sensitivity varies — is preserved (see DESIGN.md §2).
//!
//! Cross-compilation is modelled by `speckle-build.ms` (the Speckle
//! substitute): a `host-init` script that assembles each source into the
//! workload overlay, exactly where Listing 2 put Speckle's output.

use crate::runtime::compose_benchmark;

/// The ten benchmark names, in suite order.
pub const NAMES: [&str; 10] = [
    "600.perlbench_s",
    "602.gcc_s",
    "605.mcf_s",
    "620.omnetpp_s",
    "623.xalancbmk_s",
    "625.x264_s",
    "631.deepsjeng_s",
    "641.leela_s",
    "648.exchange2_s",
    "657.xz_s",
];

/// Returns `(name, full assembly source)` for every benchmark.
pub fn benchmarks() -> Vec<(&'static str, String)> {
    vec![
        (
            "600.perlbench_s",
            compose_benchmark("600.perlbench_s", PERLBENCH),
        ),
        ("602.gcc_s", compose_benchmark("602.gcc_s", GCC)),
        ("605.mcf_s", compose_benchmark("605.mcf_s", MCF)),
        ("620.omnetpp_s", compose_benchmark("620.omnetpp_s", OMNETPP)),
        (
            "623.xalancbmk_s",
            compose_benchmark("623.xalancbmk_s", XALANCBMK),
        ),
        ("625.x264_s", compose_benchmark("625.x264_s", X264)),
        (
            "631.deepsjeng_s",
            compose_benchmark("631.deepsjeng_s", DEEPSJENG),
        ),
        ("641.leela_s", compose_benchmark("641.leela_s", LEELA)),
        (
            "648.exchange2_s",
            compose_benchmark("648.exchange2_s", EXCHANGE2),
        ),
        ("657.xz_s", compose_benchmark("657.xz_s", XZ)),
    ]
}

/// Interpreter dispatch: a byte-code loop driven through a jump table —
/// indirect jumps and data-dependent handler branches, perlbench's
/// signature behaviour.
const PERLBENCH: &str = r#"
        .data
        .align  3
optable: .dword op_add, op_sub, op_xor, op_shl, op_shr, op_mul, op_store, op_load
bytecode: .space 256
memcell: .space 64
        .text
bench_main:
        # Generate the byte-code program with an LCG.
        la      t0, bytecode
        li      t1, 256
        li      t2, 12345
gen:
        li      t5, 1103515245
        mul     t2, t2, t5
        li      t6, 12345
        add     t2, t2, t6
        srli    t3, t2, 16
        andi    t3, t3, 255
        sb      t3, 0(t0)
        addi    t0, t0, 1
        addi    t1, t1, -1
        bnez    t1, gen
        # Interpret it repeatedly.
        li      s2, 150            # outer iterations
        li      s3, 0              # accumulator
outer:
        la      s4, bytecode
        li      s5, 256
dispatch:
        lbu     t0, 0(s4)
        andi    t1, t0, 7
        la      t2, optable
        slli    t3, t1, 3
        add     t2, t2, t3
        ld      t2, 0(t2)
        srli    s6, t0, 3          # operand
        jr      t2
op_add:
        add     s3, s3, s6
        j       next
op_sub:
        sub     s3, s3, s6
        j       next
op_xor:
        xor     s3, s3, s6
        j       next
op_shl:
        andi    t4, s6, 7
        sll     s3, s3, t4
        j       next
op_shr:
        andi    t4, s6, 7
        srl     s3, s3, t4
        j       next
op_mul:
        ori     t4, s6, 1
        mul     s3, s3, t4
        j       next
op_store:
        la      t4, memcell
        andi    t5, s6, 7
        slli    t5, t5, 3
        add     t4, t4, t5
        sd      s3, 0(t4)
        j       next
op_load:
        la      t4, memcell
        andi    t5, s6, 7
        slli    t5, t5, 3
        add     t4, t4, t5
        ld      t5, 0(t4)
        add     s3, s3, t5
        j       next
next:
        addi    s4, s4, 1
        addi    s5, s5, -1
        bnez    s5, dispatch
        addi    s2, s2, -1
        bnez    s2, outer
        slli    a0, s3, 32
        srli    a0, a0, 32
        ret
"#;

/// Pointer-heavy structure walking with value-dependent branches — gcc's
/// IR-traversal character.
const GCC: &str = r#"
        .data
        .align  3
nodes:  .space  8192               # 512 nodes x 16 bytes (next, value)
        .text
bench_main:
        # Link nodes in a strided permutation: next(i) = (i*167+13) % 512.
        li      t1, 0
        li      t2, 512
build:
        li      t3, 167
        mul     t4, t1, t3
        addi    t4, t4, 13
        andi    t4, t4, 511
        slli    t5, t4, 4
        la      t6, nodes
        add     t5, t6, t5
        slli    t6, t1, 4
        la      t3, nodes
        add     t6, t3, t6
        sd      t5, 0(t6)
        sw      t1, 8(t6)
        addi    t1, t1, 1
        bne     t1, t2, build
        # Walk with value-dependent branches.
        la      t0, nodes
        li      s2, 40000
        li      s3, 0
walk:
        lw      t1, 8(t0)
        andi    t2, t1, 3
        beqz    t2, w_xor
        add     s3, s3, t1
        j       w_next
w_xor:
        xor     s3, s3, t1
w_next:
        ld      t0, 0(t0)
        addi    s2, s2, -1
        bnez    s2, walk
        mv      a0, s3
        ret
"#;

/// Dependent pointer chasing over a 64 KiB permutation — far beyond the
/// 16 KiB L1, mcf's cache-miss-bound character.
const MCF: &str = r#"
        .data
        .align  3
chase:  .space  65536              # 8192 u64 slots
        .text
bench_main:
        li      t1, 0
        li      t2, 8192
mbuild:
        li      t3, 3023
        mul     t4, t1, t3
        addi    t4, t4, 7
        li      t5, 8191
        and     t4, t4, t5
        slli    t6, t1, 3
        la      t5, chase
        add     t6, t5, t6
        sd      t4, 0(t6)
        addi    t1, t1, 1
        bne     t1, t2, mbuild
        li      s2, 60000
        li      s3, 0
        li      s4, 0
mchase:
        slli    t0, s3, 3
        la      t1, chase
        add     t0, t1, t0
        ld      s3, 0(t0)
        add     s4, s4, s3
        addi    s2, s2, -1
        bnez    s2, mchase
        mv      a0, s4
        ret
"#;

/// Discrete-event-style binary heap churn — omnetpp's priority-queue
/// character (sift loops with hard-to-predict comparisons).
const OMNETPP: &str = r#"
        .data
        .align  3
heap:   .space  8200
        .text
bench_main:
        li      s2, 0              # heap size
        li      s3, 99991          # lcg state
        li      s4, 18000          # operations
        li      s5, 0              # checksum
o_loop:
        li      t0, 6364136223846793005
        mul     s3, s3, t0
        li      t0, 1442695040888963407
        add     s3, s3, t0
        srli    s6, s3, 33         # key
        li      t0, 1000
        blt     s2, t0, push
pop:
        la      t0, heap
        ld      t1, 0(t0)          # root
        add     s5, s5, t1
        addi    s2, s2, -1
        slli    t2, s2, 3
        add     t2, t0, t2
        ld      t3, 0(t2)          # last element
        sd      t3, 0(t0)
        li      t4, 0              # i = 0, sift down
sift_down:
        slli    t5, t4, 1
        addi    t5, t5, 1          # left child
        bge     t5, s2, o_next
        addi    t6, t5, 1          # right child
        bge     t6, s2, sd_useleft
        # pick larger child
        slli    a1, t5, 3
        add     a1, t0, a1
        ld      a2, 0(a1)
        slli    a3, t6, 3
        add     a3, t0, a3
        ld      a4, 0(a3)
        bgeu    a2, a4, sd_useleft
        mv      t5, t6
sd_useleft:
        slli    a1, t4, 3
        add     a1, t0, a1
        ld      a2, 0(a1)          # parent value
        slli    a3, t5, 3
        add     a3, t0, a3
        ld      a4, 0(a3)          # child value
        bgeu    a2, a4, o_next     # heap property holds
        sd      a4, 0(a1)
        sd      a2, 0(a3)
        mv      t4, t5
        j       sift_down
push:
        la      t0, heap
        slli    t1, s2, 3
        add     t1, t0, t1
        sd      s6, 0(t1)
        mv      t2, s2             # i
        addi    s2, s2, 1
sift_up:
        beqz    t2, o_next
        addi    t3, t2, -1
        srli    t3, t3, 1          # parent
        slli    t4, t3, 3
        add     t4, t0, t4
        ld      t5, 0(t4)
        slli    t6, t2, 3
        add     t6, t0, t6
        ld      a1, 0(t6)
        bgeu    t5, a1, o_next
        sd      a1, 0(t4)
        sd      t5, 0(t6)
        mv      t2, t3
        j       sift_up
o_next:
        addi    s4, s4, -1
        bnez    s4, o_loop
        mv      a0, s5
        ret
"#;

/// Byte-wise text scanning with many small classification branches —
/// xalancbmk's parsing character.
const XALANCBMK: &str = r#"
        .data
text:   .space  4096
        .text
bench_main:
        # Fill with printable pseudo-text.
        la      t0, text
        li      t1, 4096
        li      t2, 7777
xfill:
        li      t3, 1103515245
        mul     t2, t2, t3
        li      t4, 12345
        add     t2, t2, t4
        srli    t3, t2, 16
        andi    t3, t3, 95
        addi    t3, t3, 32         # ' '..~
        sb      t3, 0(t0)
        addi    t0, t0, 1
        addi    t1, t1, -1
        bnez    t1, xfill
        li      s2, 15             # passes
        li      s3, 0              # vowels
        li      s4, 0              # digits
        li      s5, 0              # words
xpass:
        la      t0, text
        li      t1, 4096
        li      s6, 0              # in-word flag
xscan:
        lbu     t2, 0(t0)
        # digit?
        li      t3, 48
        blt     t2, t3, xnotdigit
        li      t3, 58
        bge     t2, t3, xnotdigit
        addi    s4, s4, 1
xnotdigit:
        # vowel? (a e i o u lowercase)
        li      t3, 97
        beq     t2, t3, xvowel
        li      t3, 101
        beq     t2, t3, xvowel
        li      t3, 105
        beq     t2, t3, xvowel
        li      t3, 111
        beq     t2, t3, xvowel
        li      t3, 117
        beq     t2, t3, xvowel
        j       xword
xvowel:
        addi    s3, s3, 1
xword:
        # word boundary: space -> non-space
        li      t3, 32
        bne     t2, t3, xinword
        li      s6, 0
        j       xnext
xinword:
        bnez    s6, xnext
        li      s6, 1
        addi    s5, s5, 1
xnext:
        addi    t0, t0, 1
        addi    t1, t1, -1
        bnez    t1, xscan
        addi    s2, s2, -1
        bnez    s2, xpass
        slli    a0, s3, 20
        slli    t0, s4, 10
        add     a0, a0, t0
        add     a0, a0, s5
        ret
"#;

/// Regular SAD/MAC blocks over pixel buffers — x264's predictable,
/// arithmetic-dense character (the predictor-insensitive control).
const X264: &str = r#"
        .data
frame_a: .space 4096
frame_b: .space 4096
        .text
bench_main:
        # Fill both frames.
        la      t0, frame_a
        la      t1, frame_b
        li      t2, 4096
        li      t3, 5555
vfill:
        li      t4, 1103515245
        mul     t3, t3, t4
        li      t6, 12345
        add     t3, t3, t6
        srli    t4, t3, 16
        andi    t5, t4, 255
        sb      t5, 0(t0)
        srli    t4, t3, 24
        andi    t5, t4, 255
        sb      t5, 0(t1)
        addi    t0, t0, 1
        addi    t1, t1, 1
        addi    t2, t2, -1
        bnez    t2, vfill
        li      s2, 30             # passes
        li      s3, 0              # SAD accumulator
vpass:
        la      t0, frame_a
        la      t1, frame_b
        li      t2, 4096
vsad:
        lbu     t3, 0(t0)
        lbu     t4, 0(t1)
        sub     t5, t3, t4
        srai    t6, t5, 63
        xor     t5, t5, t6
        sub     t5, t5, t6         # |a-b| branchless
        mul     t5, t5, t3
        add     s3, s3, t5
        addi    t0, t0, 1
        addi    t1, t1, 1
        addi    t2, t2, -1
        bnez    t2, vsad
        addi    s2, s2, -1
        bnez    s2, vpass
        mv      a0, s3
        ret
"#;

/// Recursive game-tree search with data-dependent pruning — deepsjeng's
/// minimax character (deep call stacks, branchy).
const DEEPSJENG: &str = r#"
        .text
bench_main:
        addi    sp, sp, -16
        sd      ra, 8(sp)
        li      a0, 18             # depth
        li      a1, 77777          # state
        call    negamax
        ld      ra, 8(sp)
        addi    sp, sp, 16
        ret

# negamax(depth a0, state a1) -> score a0
negamax:
        bnez    a0, ng_inner
        andi    a0, a1, 255        # leaf: score from state
        ret
ng_inner:
        addi    sp, sp, -48
        sd      ra, 40(sp)
        sd      s2, 32(sp)
        sd      s3, 24(sp)
        sd      s4, 16(sp)
        mv      s2, a0             # depth
        mv      s3, a1             # state
        # left child
        li      t0, 6364136223846793005
        mul     a1, s3, t0
        addi    a1, a1, 1
        addi    a0, s2, -1
        call    negamax
        mv      s4, a0             # best
        # prune right subtree 1 time in 4 (state-dependent)
        andi    t0, s3, 3
        beqz    t0, ng_done
        li      t0, 2862933555777941757
        mul     a1, s3, t0
        li      t1, 3037
        add     a1, a1, t1
        addi    a0, s2, -1
        call    negamax
        blt     a0, s4, ng_done
        mv      s4, a0
ng_done:
        # negate and fold, minimax-style
        li      t0, 255
        sub     a0, t0, s4
        ld      s4, 16(sp)
        ld      s3, 24(sp)
        ld      s2, 32(sp)
        ld      ra, 40(sp)
        addi    sp, sp, 48
        ret
"#;

/// Pseudo-random playout walks on a 19x19 board — leela's Monte-Carlo
/// character (incompressible branch outcomes).
const LEELA: &str = r#"
        .data
        .align  3
visits: .space  2888               # 19*19 u64 visit counts
        .text
bench_main:
        li      s2, 9              # x
        li      s3, 9              # y
        li      s4, 40000          # steps
        li      s5, 31337          # lcg
        li      s6, 0              # checksum
l_step:
        li      t0, 6364136223846793005
        mul     s5, s5, t0
        li      t0, 1442695040888963407
        add     s5, s5, t0
        srli    t1, s5, 59         # direction bits
        andi    t1, t1, 3
        beqz    t1, l_north
        li      t2, 1
        beq     t1, t2, l_south
        li      t2, 2
        beq     t1, t2, l_east
        # west
        beqz    s2, l_mark
        addi    s2, s2, -1
        j       l_mark
l_north:
        beqz    s3, l_mark
        addi    s3, s3, -1
        j       l_mark
l_south:
        li      t2, 18
        bge     s3, t2, l_mark
        addi    s3, s3, 1
        j       l_mark
l_east:
        li      t2, 18
        bge     s2, t2, l_mark
        addi    s2, s2, 1
l_mark:
        li      t3, 19
        mul     t4, s3, t3
        add     t4, t4, s2
        slli    t4, t4, 3
        la      t5, visits
        add     t4, t5, t4
        ld      t6, 0(t4)
        addi    t6, t6, 1
        sd      t6, 0(t4)
        add     s6, s6, s2
        xor     s6, s6, s3
        addi    s4, s4, -1
        bnez    s4, l_step
        mv      a0, s6
        ret
"#;

/// Deep nested counting loops with simple guards — exchange2's extremely
/// predictable branch character.
const EXCHANGE2: &str = r#"
        .text
bench_main:
        li      s2, 0              # combinations found
        li      t0, 0              # i
e_i:
        li      t1, 0              # j
e_j:
        li      t2, 0              # k
e_k:
        li      t3, 0              # l
e_l:
        li      t4, 0              # m
e_m:
        # count tuples where no adjacent pair is equal
        beq     t0, t1, e_m_next
        beq     t1, t2, e_m_next
        beq     t2, t3, e_m_next
        beq     t3, t4, e_m_next
        addi    s2, s2, 1
e_m_next:
        addi    t4, t4, 1
        li      t5, 8
        blt     t4, t5, e_m
        addi    t3, t3, 1
        blt     t3, t5, e_l
        addi    t2, t2, 1
        blt     t2, t5, e_k
        addi    t1, t1, 1
        blt     t1, t5, e_j
        addi    t0, t0, 1
        blt     t0, t5, e_i
        mv      a0, s2
        ret
"#;

/// LZ-style longest-match scanning over an 8 KiB window — xz's
/// semi-random comparison character.
const XZ: &str = r#"
        .data
window: .space  8192
        .text
bench_main:
        # Fill the window with compressible-ish pseudo-data (low entropy).
        la      t0, window
        li      t1, 8192
        li      t2, 4242
zfill:
        li      t3, 1103515245
        mul     t2, t2, t3
        li      t4, 12345
        add     t2, t2, t4
        srli    t3, t2, 18
        andi    t3, t3, 15         # only 16 symbols: matches are common
        sb      t3, 0(t0)
        addi    t0, t0, 1
        addi    t1, t1, -1
        bnez    t1, zfill
        li      s2, 4000           # match attempts
        li      s3, 987654321      # lcg
        li      s4, 0              # total match length (checksum)
z_attempt:
        li      t0, 6364136223846793005
        mul     s3, s3, t0
        addi    s3, s3, 1
        srli    t1, s3, 40
        li      t2, 4095
        and     t1, t1, t2         # position p in [0, 4095]
        la      t3, window
        add     t3, t3, t1         # &window[p]
        addi    t4, t3, 64         # candidate start: p+64
        li      t5, 0              # best length
        li      t6, 16             # candidates to try
z_cand:
        li      a1, 0              # match length
z_cmp:
        add     a2, t3, a1
        lbu     a3, 0(a2)
        add     a2, t4, a1
        lbu     a4, 0(a2)
        bne     a3, a4, z_cmp_done
        addi    a1, a1, 1
        li      a2, 32
        blt     a1, a2, z_cmp
z_cmp_done:
        ble     a1, t5, z_cand_next
        mv      t5, a1
z_cand_next:
        addi    t4, t4, 17         # next candidate
        addi    t6, t6, -1
        bnez    t6, z_cand
        add     s4, s4, t5
        addi    s2, s2, -1
        bnez    s2, z_attempt
        mv      a0, s4
        ret
"#;

/// The Listing-2-shaped workload spec.
pub fn spec_json() -> String {
    let jobs: Vec<String> = NAMES
        .iter()
        .map(|n| {
            format!(
                r#"    {{ "name" : "{n}",
      "command": "/intspeed.sh {n} --threads 1" }}"#
            )
        })
        .collect();
    format!(
        r#"{{ "name" : "intspeed",
  "base" : "br-base.json",
  "host-init" : "speckle-build.ms intspeed ref",
  "overlay" : "overlay/intspeed/ref",
  "rootfs-size" : "3GiB",
  "outputs" : ["/output"],
  "post-run-hook" : "handle-results.ms",
  "jobs" : [
{}
  ]
}}
"#,
        jobs.join(",\n")
    )
}

/// The Speckle-substitute build script (`host-init`).
pub fn speckle_build_script() -> String {
    let mut s = String::from(
        r#"#!mscript
# speckle-build.ms <suite> <dataset> — cross-compile the suite into the
# overlay, the way Speckle drove GCC in the paper's SPEC workload.
let a = args()
let suite = a[0]
let dataset = a[1]
let root = "overlay/" + suite + "/" + dataset
print("speckle: building " + suite + " (" + dataset + " dataset)")
copy("static/intspeed.sh", root + "/intspeed.sh")
"#,
    );
    for n in NAMES {
        s.push_str(&format!(
            "assemble(\"src/{n}.s\", root + \"/intspeed/bin/{n}\")\nprint(\"speckle: built {n}\")\n"
        ));
    }
    s
}

/// The in-guest run script (`/intspeed.sh`).
pub const INTSPEED_SH: &str = r#"#!mscript
# usage: /intspeed.sh <benchmark> [--threads N]
let a = args()
let bench = a[0]
print("Running " + bench + " (ref dataset, 1 thread)")
let rc = exec("/intspeed/bin/" + bench)
write_file("/output/" + bench + ".status", "rc=" + str(rc) + "\n")
print(bench + " complete rc=" + str(rc))
"#;

/// The result-combining post-run hook (`handle-results.ms`): emits the
/// Listing 3 CSV (`name,RealTime,UserTime,KernelTime,score`).
///
/// Reference times (milliseconds of simulated time) play SPEC's reference
/// machine role; they are calibrated so the boom-gshare configuration
/// scores near 1.0.
pub fn handle_results_script() -> String {
    let mut s = String::from(
        r#"#!mscript
# handle-results.ms — combine per-job stats into results.csv (Listing 3).
fn fmt_ms(us) {
    # microseconds -> "millis.micros" fixed point string
    let whole = us / 1000
    let frac = us % 1000
    let f = str(frac)
    while len(f) < 3 { f = "0" + f }
    return str(whole) + "." + f
}
fn fmt_score(x100) {
    let f = str(x100 % 100)
    while len(f) < 2 { f = "0" + f }
    return str(x100 / 100) + "." + f
}
let refs = map()
"#,
    );
    for (name, ref_us) in REFERENCE_TIMES_US {
        s.push_str(&format!("refs[\"{name}\"] = {ref_us}\n"));
    }
    s.push_str(
        r#"let rows = ["name,RealTime,UserTime,KernelTime,score"]
for job in args() {
    if exists(job + "/stats") {
        let stat_lines = lines(read_file(job + "/stats"))
        let f = split(stat_lines[1], ",")
        let cycles = parse_int(f[0])
        let user = parse_int(f[1])
        let kernel = parse_int(f[2])
        let freq_mhz = parse_int(f[4])
        # microseconds of simulated time
        let real_us = cycles / freq_mhz
        let user_us = user / freq_mhz
        let kernel_us = kernel / freq_mhz
        # job dirs are qualified (workload.jobname): score by suffix
        let parts = split(job, ".")
        let bench = parts[len(parts) - 2] + "." + parts[len(parts) - 1]
        let ref_us = get(refs, bench, 0)
        let score = 0
        if real_us > 0 { score = ref_us * 100 / real_us }
        rows = push(rows, csv_row([bench, fmt_ms(real_us), fmt_ms(user_us), fmt_ms(kernel_us), fmt_score(score)]))
    }
}
write_file("results.csv", join(rows, "\n") + "\n")
print("handle-results: wrote results.csv (" + str(len(rows) - 1) + " benchmarks)")
"#,
    );
    s
}

/// Per-benchmark reference times in microseconds of simulated time
/// (SPEC's "reference machine"). Calibrated near the boom-gshare results
/// so Fig. 6 scores land in SPEC's typical 0.5–3 range.
pub const REFERENCE_TIMES_US: [(&str, u64); 10] = [
    ("600.perlbench_s", 1080),
    ("602.gcc_s", 420),
    ("605.mcf_s", 2600),
    ("620.omnetpp_s", 4000),
    ("623.xalancbmk_s", 2100),
    ("625.x264_s", 2700),
    ("631.deepsjeng_s", 1600),
    ("641.leela_s", 2000),
    ("648.exchange2_s", 580),
    ("657.xz_s", 2100),
];

/// Writes the whole intspeed workload directory.
///
/// # Errors
///
/// I/O failures.
pub fn materialize(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir.join("src"))?;
    std::fs::create_dir_all(dir.join("static"))?;
    std::fs::create_dir_all(dir.join("overlay/intspeed/ref/intspeed/bin"))?;
    std::fs::write(dir.join("intspeed.json"), spec_json())?;
    std::fs::write(dir.join("speckle-build.ms"), speckle_build_script())?;
    std::fs::write(dir.join("static/intspeed.sh"), INTSPEED_SH)?;
    std::fs::write(dir.join("handle-results.ms"), handle_results_script())?;
    for (name, source) in benchmarks() {
        std::fs::write(dir.join("src").join(format!("{name}.s")), source)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_bare;
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
    use marshal_sim_functional::{FunctionalSim, LaunchMode, LoadedJob, SimKind};

    #[test]
    fn all_benchmarks_assemble_and_run() {
        for (name, source) in benchmarks() {
            let exe = assemble(&source, abi::USER_BASE).unwrap_or_else(|e| panic!("{name}: {e}"));
            let result = run_bare(&FunctionalSim::new(SimKind::Qemu), &exe)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(result.exit_code, 0, "{name} serial: {}", result.serial);
            assert!(
                result.serial.contains(&format!("{name} checksum: ")),
                "{name} must print its checksum: {}",
                result.serial
            );
            assert!(
                result.instructions > 50_000,
                "{name} too short: {} instructions",
                result.instructions
            );
            assert!(
                result.instructions < 5_000_000,
                "{name} too long: {} instructions",
                result.instructions
            );
        }
    }

    #[test]
    fn checksums_deterministic() {
        for (name, source) in benchmarks().into_iter().take(3) {
            let exe = assemble(&source, abi::USER_BASE).unwrap();
            let qemu = FunctionalSim::new(SimKind::Qemu);
            let a = run_bare(&qemu, &exe).unwrap();
            let b = run_bare(&qemu, &exe).unwrap();
            assert_eq!(a.serial, b.serial, "{name} must be deterministic");
        }
    }

    #[test]
    fn spec_matches_listing2_shape() {
        let (spec, warnings) =
            marshal_config::WorkloadSpec::parse_str(&spec_json(), "intspeed.json").unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(spec.jobs.len(), 10);
        assert_eq!(spec.rootfs_size, Some(3 << 30));
        assert_eq!(spec.outputs, vec!["/output"]);
        assert_eq!(
            spec.jobs[0].command.as_deref(),
            Some("/intspeed.sh 600.perlbench_s --threads 1")
        );
        assert_eq!(spec.jobs[9].name, "657.xz_s");
    }

    #[test]
    fn benchmarks_have_distinct_characters() {
        // Sanity: instruction mixes must differ meaningfully; compare
        // dynamic counts between a predictable and an unpredictable bench.
        use marshal_sim_rtl::{FireSim, HardwareConfig};
        let run = |name: &str| {
            let source = benchmarks()
                .into_iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1;
            let job = LoadedJob::Bare {
                bin: assemble(&source, abi::USER_BASE).unwrap().to_bytes(),
            };
            let (_, report, _) = FireSim::new(HardwareConfig::boom_gshare())
                .run(&job, LaunchMode::Run, None)
                .unwrap();
            report
        };
        let leela = run("641.leela_s"); // random branches
        let exchange = run("648.exchange2_s"); // predictable branches
        assert!(
            leela.counters.branch_accuracy() < exchange.counters.branch_accuracy(),
            "leela {:.4} must be harder to predict than exchange2 {:.4}",
            leela.counters.branch_accuracy(),
            exchange.counters.branch_accuracy()
        );
        let mcf = run("605.mcf_s"); // cache-hostile
        let x264 = run("625.x264_s"); // streaming
        assert!(
            mcf.dcache.miss_rate() > x264.dcache.miss_rate(),
            "mcf {:.4} must miss more than x264 {:.4}",
            mcf.dcache.miss_rate(),
            x264.dcache.miss_rate()
        );
    }
}
