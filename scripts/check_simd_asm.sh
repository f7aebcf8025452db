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
# `exp`/`expm1` or a call into the in-tree slab evaluator (`slab_*`,
# exp.rs): on the shipped kernel every segment, resident or traced on the
# fly, reads its `1 - exp(-tau)` span from the problem's attenuation table,
# built once by that evaluator when the problem is set up, so a sweep
# evaluates no exponential. The on-the-fly trace that keys a non-resident
# track's segments, the never-inlined `otf_keyed_trace`, must exist as a
# symbol and obeys the same rules.
#
# Nor may the vector loop spill. A restructure of `sweep_track_g` once
# stored `psi` and `vals` to the stack on every segment of the `G = 7`
# loop (+8% per segment on the explicit store) and changed no bit. So the
# packed stores of a vector register to the stack (`v?mov[au]pd %[xyz]mmN,
# K(%rsp)`) inside the innermost loop bodies of the `sweep_track_g`
# symbols are counted, and the total may not exceed the count written
# below. A loop body runs from a label to the last backward jump to it
# within one function; it is innermost when it holds no other. Whole
# symbols and outer loops cannot be counted: their stores, mostly the
# zeroing of `psi` and `vals` ahead of the segment loops, move by more
# than a spill adds whenever the block layout shifts.
#
# That slab evaluator is pinned too: its three instantiations of one source
# loop — `slab_baseline`, the `#[target_feature(enable = "avx2")]`
# `slab_avx2` and the `#[target_feature(enable = "avx512f")]`
# `slab_avx512` — must all exist as symbols, the first with packed
# mulpd/addpd, the others with packed ops on ymm and zmm registers. This
# reads the emitted assembly, so it holds on runners without AVX-512.
#
# So are the per-FSR loops between two sweeps (source.rs): the
# never-inlined `source_rows::<G>` (reduced source) and `flux_rows::<G>`
# (scalar-flux close) must exist as symbols with packed mulpd and divpd,
# or the compile-time group count no longer vectorizes them.
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
# whose symbol contains $1, that mention memcpy, an outlined
# iterator/closure body, libm's exp or the slab evaluator; the last line
# is "<functions> <bad lines>".
loop_report() {
    awk -v sym="$1" '
        $0 ~ "^[^ \t.#][^ \t]*" sym "[^ \t]*:$" { infn = 1; fns++; name = $1 }
        infn && /^\t[a-z]/ && /memcpy|for_each|closure|[^a-z_]expm?1?(@|$)|slab_(baseline|avx2|avx512)/ { bad++; print "  " name " " $0 }
        /\.cfi_endproc/ { infn = 0 }
        END { print fns + 0, bad + 0 }
    ' "$newest"
}
for body in sweep_track otf_keyed_trace; do
    report=$(loop_report "$body")
    read -r fns bad <<<"$(echo "$report" | tail -1)"
    echo "check_simd_asm: $fns $body symbol(s), $bad memcpy/outlined-closure/exp reference(s)"
    if [ "$fns" -eq 0 ]; then
        echo "check_simd_asm: FAIL — no $body symbol in the assembly; it was renamed or" >&2
        echo "  inlined away, so its loop shape can no longer be checked" >&2
        exit 1
    fi
    if [ "$bad" -gt 0 ]; then
        echo "$report" | sed '$d' >&2
        echo "check_simd_asm: FAIL — the per-segment loop of $body is no longer straight-line," >&2
        echo "  or evaluates the exponential again (libm or the slab evaluator)" >&2
        echo "  (see DESIGN.md, \"Why the sweep loop is shaped this way\")" >&2
        exit 1
    fi
done

# Packed vector-register stores to the stack inside the innermost loop
# bodies of the functions whose symbol contains $1; the last line is
# "<functions> <stores>", the lines before it the stores per function.
loop_spills() {
    awk -v sym="$1" '
        $0 ~ "^[^ \t.#][^ \t]*" sym "[^ \t]*:$" {
            infn = 1; fns++; name = $1; n = 0; split("", pos); split("", last); next
        }
        infn {
            line[++n] = $0
            if ($0 ~ /^\.LBB[0-9_]+:$/) { label = $0; sub(/:$/, "", label); pos[label] = n }
            if ($0 ~ /^\tj[a-z]+\t\.LBB[0-9_]+$/ && ($2 in pos)) last[pos[$2]] = n
        }
        infn && /\.cfi_endproc/ {
            infn = 0; here = 0
            for (s in last) {
                inner = 1
                for (t in last) if (t + 0 > s + 0 && last[t] <= last[s]) { inner = 0; break }
                if (!inner) continue
                for (i = s + 0; i <= last[s]; i++)
                    if (line[i] ~ /^\tv?mov[au]pd\t%[xyz]mm[0-9]+, (-?[0-9]+)?\(%rsp\)/) here++
            }
            print "  " here " " name
            stores += here
        }
        END { print fns + 0, stores + 0 }
    ' "$newest"
}
# Innermost-loop stack stores of the 16 `sweep_track_g` instantiations
# when the rule was added (0 to 8 per symbol; 0 in the `G = 7` one).
spill_budget=39
report=$(loop_spills sweep_track_g)
read -r fns stores <<<"$(echo "$report" | tail -1)"
echo "check_simd_asm: $stores vector store(s) to the stack in innermost loops of $fns" \
    "sweep_track_g symbol(s) (budget $spill_budget)"
if [ "$stores" -gt "$spill_budget" ]; then
    echo "$report" | sed '$d' >&2
    echo "check_simd_asm: FAIL — a sweep_track_g loop now spills vector registers to the stack;" >&2
    echo "  compare the G = 7 vector loop's assembly against the parent commit's" >&2
    exit 1
fi

# Count of packed $3 ops (default mulpd/addpd) inside the functions whose
# symbol contains $1, optionally only instructions that also match $2 (a
# register class); -1 when no such symbol exists.
packed_in() {
    awk -v sym="$1" -v reg="${2:-.}" -v ops="${3:-mulpd|addpd}" '
        $0 ~ "^[^ \t.#][^ \t]*" sym "[^ \t]*:$" { infn = 1; found = 1 }
        infn && $0 ~ "^\tv?(" ops ")[ \t]" && $0 ~ reg { hits++ }
        /\.cfi_endproc/ { infn = 0 }
        END { print (found ? hits + 0 : -1) }
    ' "$newest"
}
case "$arch" in
x86_64 | amd64)
    base_hits=$(packed_in slab_baseline)
    avx2_hits=$(packed_in slab_avx2 '%ymm')
    avx512_hits=$(packed_in slab_avx512 '%zmm')
    echo "check_simd_asm: exp slab evaluator: $base_hits packed op(s) in slab_baseline," \
        "$avx2_hits on ymm in slab_avx2, $avx512_hits on zmm in slab_avx512"
    if [ "$base_hits" -le 0 ] || [ "$avx2_hits" -le 0 ] || [ "$avx512_hits" -le 0 ]; then
        echo "check_simd_asm: FAIL — the slab evaluator in crates/antmoc-solver/src/exp.rs lost an" >&2
        echo "  instantiation (-1: symbol missing) or no longer autovectorizes (0)" >&2
        exit 1
    fi
    for body in source_rows flux_rows; do
        mul_hits=$(packed_in "$body" . mulpd)
        div_hits=$(packed_in "$body" . divpd)
        echo "check_simd_asm: $body: $mul_hits packed mulpd, $div_hits packed divpd"
        if [ "$mul_hits" -le 0 ] || [ "$div_hits" -le 0 ]; then
            echo "check_simd_asm: FAIL — $body in crates/antmoc-solver/src/source.rs lost its" >&2
            echo "  monomorphized instantiations (-1: symbol missing) or no longer vectorizes (0)" >&2
            exit 1
        fi
    done
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
