//! An ONNX-runtime-style DNN inference workload.
//!
//! §IV-B: "there are other similar benchmark workloads already available
//! including CoreMark and the ONNX-runtime deep learning framework." This
//! workload mirrors that port: a fixed-point multi-layer-perceptron
//! inference (tiled matrix-vector products + ReLU, the §IV-C class's
//! kernel), run on the full-featured Fedora base with dependencies
//! installed by `guest-init` at build time — the paper's end-to-end
//! benchmark flow.

use crate::runtime::compose_benchmark;

/// The workload spec: Fedora base + guest-init, like the paper's
/// end-to-end macro-benchmarks (§IV-A-3).
pub const DNN_JSON: &str = r#"{
    "name": "onnx-infer",
    "base": "fedora-base.json",
    "host-init": "build.ms",
    "guest-init": "install-deps.ms",
    "overlay": "overlay",
    "command": "/bin/dnn-infer",
    "outputs": ["/output"],
    "testing": { "refDir": "refs" }
}
"#;

/// Host-init: cross-compile the inference binary.
pub const BUILD_MS: &str = r#"#!mscript
print("onnx: building inference benchmark")
assemble("src/dnn-infer.s", "overlay/bin/dnn-infer")
"#;

/// Guest-init: install the runtime's dependencies with the package
/// manager, exactly once at build time.
pub const INSTALL_DEPS_MS: &str = r#"#!mscript
print("onnx: installing runtime dependencies")
install_packages("onnxruntime", "protobuf", "python3-numpy")
"#;

/// The inference program: a 3-layer fixed-point MLP over a 16-wide input.
/// Weights are LCG-generated (deterministic); activations are Q8 fixed
/// point with ReLU between layers; the checksum folds the output vector.
pub fn dnn_source() -> String {
    compose_benchmark(
        "onnx-infer",
        r#"
        .data
        .align  3
weights: .space 6144               # 3 layers x 16x16 i64 weights
acts:    .space 256                # double-buffered 16-wide activations
acts2:   .space 128
        .text
bench_main:
        # --- generate weights deterministically -------------------------
        la      t0, weights
        li      t1, 768            # 3*16*16 weights
        li      t2, 1234567
wgen:
        li      t3, 6364136223846793005
        mul     t2, t2, t3
        li      t3, 1442695040888963407
        add     t2, t2, t3
        srai    t4, t2, 56         # small signed weight in [-128, 127]
        sd      t4, 0(t0)
        addi    t0, t0, 8
        addi    t1, t1, -1
        bnez    t1, wgen
        # --- initial activations: ramp --------------------------------
        la      t0, acts
        li      t1, 0
ainit:
        slli    t2, t1, 3
        add     t2, t0, t2
        addi    t3, t1, 1
        slli    t3, t3, 4          # input pixel value
        sd      t3, 0(t2)
        addi    t1, t1, 1
        li      t4, 16
        blt     t1, t4, ainit
        # --- run many inferences (the benchmark loop) ------------------
        li      s2, 0              # checksum
        li      s9, 200            # inferences
infer:
        la      s3, acts           # in
        la      s4, acts2          # out
        li      s5, 0              # layer
layer:
        # out[j] = relu(sum_k w[layer][j][k] * in[k] >> 8)
        li      t0, 0              # j
lj:
        li      t1, 0              # k
        li      t2, 0              # acc
        # weight row base: weights + (layer*256 + j*16) * 8
        slli    t3, s5, 8
        slli    t4, t0, 4
        add     t3, t3, t4
        slli    t3, t3, 3
        la      t4, weights
        add     t3, t4, t3
lk:
        slli    t5, t1, 3
        add     t6, t3, t5         # &w[j][k]
        ld      t6, 0(t6)
        add     t5, s3, t5         # &in[k]
        ld      t5, 0(t5)
        mul     t5, t5, t6
        add     t2, t2, t5
        addi    t1, t1, 1
        li      t5, 16
        blt     t1, t5, lk
        srai    t2, t2, 8          # fixed-point rescale
        bgez    t2, relu_done      # ReLU
        li      t2, 0
relu_done:
        slli    t5, t0, 3
        add     t5, s4, t5
        sd      t2, 0(t5)
        addi    t0, t0, 1
        li      t5, 16
        blt     t0, t5, lj
        # swap buffers, next layer
        mv      t0, s3
        mv      s3, s4
        mv      s4, t0
        addi    s5, s5, 1
        li      t5, 3
        blt     s5, t5, layer
        # fold the output vector into the checksum
        li      t0, 0
fold:
        slli    t1, t0, 3
        add     t1, s3, t1
        ld      t1, 0(t1)
        add     s2, s2, t1
        xor     s2, s2, t0
        addi    t0, t0, 1
        li      t5, 16
        blt     t0, t5, fold
        addi    s9, s9, -1
        bnez    s9, infer
        slli    a0, s2, 32
        srli    a0, a0, 32
        ret
"#,
    )
}

/// The known-good checksum, computed by running the program functionally.
pub fn known_checksum() -> u64 {
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
    let exe = assemble(&dnn_source(), abi::USER_BASE).expect("dnn assembles");
    let qemu = marshal_sim_functional::FunctionalSim::new(marshal_sim_functional::SimKind::Qemu);
    let result = crate::runtime::run_bare(&qemu, &exe).expect("dnn runs");
    let line = result
        .serial
        .lines()
        .find(|l| l.starts_with("onnx-infer checksum: "))
        .expect("checksum line");
    line["onnx-infer checksum: ".len()..]
        .trim()
        .parse()
        .expect("numeric checksum")
}

/// Writes the workload directory.
///
/// # Errors
///
/// I/O failures.
pub fn materialize(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir.join("src"))?;
    std::fs::create_dir_all(dir.join("overlay/bin"))?;
    std::fs::create_dir_all(dir.join("refs"))?;
    std::fs::write(dir.join("onnx-infer.json"), DNN_JSON)?;
    std::fs::write(dir.join("build.ms"), BUILD_MS)?;
    std::fs::write(dir.join("install-deps.ms"), INSTALL_DEPS_MS)?;
    std::fs::write(dir.join("src/dnn-infer.s"), dnn_source())?;
    std::fs::write(
        dir.join("refs/uartlog"),
        format!("onnx-infer checksum: {}\n", known_checksum()),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_inference() {
        assert_eq!(known_checksum(), known_checksum());
    }

    #[test]
    fn spec_parses_with_fedora_base() {
        let (spec, w) =
            marshal_config::WorkloadSpec::parse_str(DNN_JSON, "onnx-infer.json").unwrap();
        assert!(w.is_empty());
        assert_eq!(spec.base.as_deref(), Some("fedora-base.json"));
        assert_eq!(spec.guest_init.as_deref(), Some("install-deps.ms"));
    }
}
