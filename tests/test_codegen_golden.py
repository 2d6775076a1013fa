"""Golden-source tests: canonical TilePrograms render to checked-in text.

Two canonical lowered programs — flat-tiled attention (online softmax) and
a 3-GEMM chain with a recomputed producer — must render to exactly the C
and Triton sources stored under ``tests/golden/``, compared with
normalized whitespace. Any intentional change to either emitter is made
visible in review as a diff of the golden files.

Regenerate after an intentional emitter change with::

    PYTHONPATH=src python tests/test_codegen_golden.py --regen
"""

import pathlib
import re

import pytest

from repro.codegen.program import lower_schedule
from repro.codegen.render_c import render_program
from repro.codegen.triton_ir import triton_from_program
from repro.ir.chain import attention_chain, gemm3_chain
from repro.tiling.expr import TilingExpr
from repro.tiling.schedule import build_schedule
from repro.utils import clear_memos

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _attention_program():
    chain = attention_chain(2, 64, 64, 32, 32, name="golden-attn")
    schedule = build_schedule(
        chain, TilingExpr.parse("mn(k,h)"), {"m": 32, "n": 32, "k": 32, "h": 32}
    )
    return lower_schedule(schedule)


def _gemm3_program(epilogue=None):
    chain = gemm3_chain(2, 40, 25, 70, 66, 42, name="golden-3gemm", epilogue=epilogue)
    schedule = build_schedule(
        chain,
        TilingExpr.parse("npmhk"),
        {"m": 8, "n": 32, "k": 8, "h": 16, "p": 19},
    )
    return lower_schedule(schedule)


CASES = {
    "attention": _attention_program,
    "gemm3": _gemm3_program,
}


def normalize(text: str) -> str:
    """Whitespace-insensitive comparison form: trailing space and blank
    lines are noise, indentation and token spacing are semantics."""
    return "\n".join(
        line.rstrip() for line in text.strip().splitlines() if line.strip()
    )


def _render(name: str) -> tuple[str, str]:
    program = CASES[name]()
    return render_program(program).source, triton_from_program(program).render()


@pytest.mark.parametrize("name", sorted(CASES))
def test_c_source_matches_golden(name):
    c_source, _ = _render(name)
    golden = (GOLDEN_DIR / f"{name}.c").read_text()
    assert normalize(c_source) == normalize(golden), (
        f"C emission for {name} changed; regenerate tests/golden/{name}.c "
        "if intentional (see module docstring)"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_triton_source_matches_golden(name):
    _, triton_source = _render(name)
    golden = (GOLDEN_DIR / f"{name}.triton").read_text()
    assert normalize(triton_source) == normalize(golden), (
        f"Triton emission for {name} changed; regenerate "
        f"tests/golden/{name}.triton if intentional (see module docstring)"
    )


#: One register-resident microkernel block: 4-row blocks over ``t0``,
#: vector chunks over ``t2``, the block's ``mcf_v`` accumulators loaded
#: from one ``acc`` tile before the contracted ``t1`` loop and stored to
#: it after the loop closes.
MICROKERNEL = re.compile(
    r"for \(long t0 = 0; t0 < \d+; t0 \+= 4\) \{\s*"
    r"for \(long t2 = 0; t2 < \d+; t2 \+= \d+\) \{\s*"
    r"(?P<loads>(?:mcf_v (c\d_\d); memcpy\(&\2, (?P<acc>acc\d+) \+ \([^;]*\), "
    r"sizeof\(mcf_v\)\);\s*)+)"
    r"for \(long t1 = 0; t1 < \d+; t1\+\+\) \{(?P<body>[^{}]*)\}\s*"
    r"(?P<stores>(?:memcpy\((?P=acc) \+ \([^;]*\), &c\d_\d, sizeof\(mcf_v\)\);\s*)+)"
)


def microkernels(source: str) -> list[re.Match]:
    return list(MICROKERNEL.finditer(source))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_structure(name):
    """Load-bearing structure of the canonical kernels, independent of the
    exact golden text: entry point, softmax machinery, accumulator reset,
    register-resident 4-row microkernels, SIMD gelu epilogue."""
    program = CASES[name]()
    meta = render_program(program)
    assert meta.entry == "mcfuser_kernel"
    assert "#pragma omp parallel for" in meta.source
    assert "-ffast-math" not in meta.source
    # every contraction is a microkernel whose 4 accumulator rows live in
    # registers across the whole contracted loop
    blocks = microkernels(meta.source)
    assert len(blocks) == (2 if name == "attention" else 3)
    for block in blocks:
        loaded = re.findall(r"mcf_v (c\d_\d);", block["loads"])
        stored = re.findall(r"&(c\d_\d), sizeof", block["stores"])
        assert "c3_0" in loaded and sorted(loaded) == sorted(stored)
        assert "c3_0 += a3 * p0;" in block["body"]
        # the accumulator tile itself is untouched inside the loop
        assert not re.search(rf"\b{block['acc']}\b", block["body"])
    if name == "attention":
        assert "INFINITY" in meta.source  # row-max init for online softmax
        assert "expf" in meta.source
    if name == "gemm3":
        # the recomputed producer resets on every fresh reduction sweep
        assert meta.source.count("memset") >= 3
        # the materialized gelu epilogue loop is a SIMD loop
        lines = render_program(_gemm3_program(epilogue="gelu")).source.splitlines()
        at = [i for i, line in enumerate(lines) if "epilogue(gelu)" in line]
        assert at and all(lines[i - 1].strip() == "#pragma omp simd" for i in at)


@pytest.mark.parametrize("first", ["golden-3gemm", "twin-3gemm"])
def test_render_memo_keeps_each_chain_name(first):
    """Structurally identical chains share every memo but the rendered
    source, whose header names the chain: whichever renders first, each
    kernel must name its own chain (and so hash to its own ``.so``)."""
    clear_memos()
    names = [first, "twin-3gemm" if first == "golden-3gemm" else "golden-3gemm"]
    rendered = {}
    for name in names:
        chain = gemm3_chain(2, 40, 25, 70, 66, 42, name=name)
        schedule = build_schedule(
            chain,
            TilingExpr.parse("npmhk"),
            {"m": 8, "n": 32, "k": 8, "h": 16, "p": 19},
        )
        rendered[name] = render_program(lower_schedule(schedule))
    for name, meta in rendered.items():
        assert f" * chain: {name}" in meta.source
    assert (
        rendered["golden-3gemm"].source_hash != rendered["twin-3gemm"].source_hash
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name in CASES:
            c_source, triton_source = _render(name)
            (GOLDEN_DIR / f"{name}.c").write_text(c_source)
            (GOLDEN_DIR / f"{name}.triton").write_text(triton_source + "\n")
            print(f"regenerated {name}")
    else:
        print(__doc__)
