#!/usr/bin/env bash
# Golden-assembly pin for the sweep kernel's f64x4 lane loops.
#
# The vector path in antmoc-solver (simd.rs + the group-vectorized
# kernel) deliberately avoids intrinsics: it writes fixed-trip-count lane
# loops and relies on LLVM's autovectorizer to lower them to packed
# double-precision arithmetic. That contract is invisible to the test
# suite — the scalar fallback is bitwise identical by design — so a
# toolchain or codegen regression that silently de-vectorizes the kernel
# would only show up as a perf cliff. This script pins the contract: the
# release-mode assembly of antmoc-solver must contain packed f64 ops.
#
# It also pins the shape of the per-segment loop. `sweep_track` dispatches
# once per track to a never-inlined `sweep_track_g::<G>` body whose segment
# loop must be straight-line: every instantiation is scanned, and a
# `memcpy` (a run-time-length lane copy) or a call into an outlined
# `for_each`/closure body (a per-segment call with the loop state spilled)
# inside one fails the check — both cost ~1/3 of the kernel's time when
# they were there, and no test can see them. So does a reference to libm's
# `exp`/`expm1`: the kernel evaluates `1 - exp(-tau)` with the in-tree
# routine (exp.rs), staged a track slab at a time.
#
# That slab evaluator is pinned too: its two instantiations of one source
# loop — `slab_baseline` and the `#[target_feature(enable = "avx2")]`
# `slab_avx2` — must both exist as symbols, the first with packed
# mulpd/addpd, the second with packed ops on ymm registers.
#
# Enforced on x86_64 (packed SSE2/AVX: [v]addpd / [v]mulpd / [v]subpd /
# vfmadd*pd). On other architectures the packed-op check degrades to a
# warning: NEON/SVE mnemonics vary too much across triples to pin reliably.
#
#   scripts/check_simd_asm.sh
set -euo pipefail
cd "$(dirname "$0")/.."

arch="$(uname -m)"

echo "check_simd_asm: emitting release assembly for antmoc-solver ($arch)"
cargo rustc --release -q -p antmoc-solver -- --emit asm

asm_files=$(ls -t target/release/deps/antmoc_solver-*.s 2>/dev/null || true)
if [ -z "$asm_files" ]; then
    echo "check_simd_asm: FAIL — no assembly emitted (expected target/release/deps/antmoc_solver-*.s)" >&2
    exit 1
fi
newest=$(echo "$asm_files" | head -1)

case "$arch" in
x86_64 | amd64)
    pattern='\bv?(addpd|mulpd|subpd)\b|\bvfmadd[0-9]*pd\b'
    ;;
*)
    # aarch64 'fadd v0.2d' and friends as a courtesy check only.
    pattern='\bfadd[[:space:]]+v[0-9]+\.2d|\bfmul[[:space:]]+v[0-9]+\.2d'
    ;;
esac

# Instruction lines (tab-indented, not a directive) inside any function
# whose symbol names the kernel, that mention memcpy or an outlined
# iterator/closure body.
kernel_report=$(awk '
    /^[^ \t.#][^ \t]*sweep_track[^ \t]*:$/ { infn = 1; fns++; name = $1 }
    infn && /^\t[a-z]/ && /memcpy|for_each|closure|[^a-z_]expm?1?(@|$)/ { bad++; print "  " name " " $0 }
    /\.cfi_endproc/ { infn = 0 }
    END { print fns + 0, bad + 0 }
' "$newest")
read -r kernel_fns kernel_bad <<<"$(echo "$kernel_report" | tail -1)"
echo "check_simd_asm: $kernel_fns sweep_track symbol(s), $kernel_bad memcpy/outlined-closure/libm-exp reference(s)"
if [ "$kernel_fns" -eq 0 ]; then
    echo "check_simd_asm: FAIL — no sweep_track symbol in the assembly; the kernel was" >&2
    echo "  renamed or inlined away, so its loop shape can no longer be checked" >&2
    exit 1
fi
if [ "$kernel_bad" -gt 0 ]; then
    echo "$kernel_report" | sed '$d' >&2
    echo "check_simd_asm: FAIL — the per-segment loop of sweep_track is no longer straight-line," >&2
    echo "  or calls libm for the exponential again" >&2
    echo "  (see DESIGN.md, \"Why the sweep loop is shaped this way\")" >&2
    exit 1
fi

# Packed-op count inside the one function whose symbol contains $1,
# optionally only instructions that also match $2 (a register class).
packed_in() {
    awk -v sym="$1" -v reg="${2:-.}" '
        $0 ~ "^[^ \t.#][^ \t]*" sym "[^ \t]*:$" { infn = 1; found = 1 }
        infn && /^\tv?(mulpd|addpd)[ \t]/ && $0 ~ reg { hits++ }
        /\.cfi_endproc/ { infn = 0 }
        END { print (found ? hits + 0 : -1) }
    ' "$newest"
}
case "$arch" in
x86_64 | amd64)
    base_hits=$(packed_in slab_baseline)
    avx2_hits=$(packed_in slab_avx2 '%ymm')
    echo "check_simd_asm: exp slab evaluator: $base_hits packed op(s) in slab_baseline, $avx2_hits on ymm in slab_avx2"
    if [ "$base_hits" -le 0 ] || [ "$avx2_hits" -le 0 ]; then
        echo "check_simd_asm: FAIL — the slab evaluator in crates/antmoc-solver/src/exp.rs lost an" >&2
        echo "  instantiation (-1: symbol missing) or no longer autovectorizes (0)" >&2
        exit 1
    fi
    ;;
esac

hits=$(grep -cE "$pattern" "$newest" || true)
echo "check_simd_asm: $newest: $hits packed f64 instruction(s)"

if [ "$hits" -gt 0 ]; then
    echo "check_simd_asm: PASS — lane loops lower to packed arithmetic, segment loop is straight-line"
    exit 0
fi

case "$arch" in
x86_64 | amd64)
    echo "check_simd_asm: FAIL — no packed f64 ops in the release assembly;" >&2
    echo "  the f64x4 lane loops in crates/antmoc-solver/src/simd.rs no longer autovectorize" >&2
    exit 1
    ;;
*)
    echo "check_simd_asm: WARN — no packed ops matched on $arch (check is best-effort off x86_64)"
    exit 0
    ;;
esac
