"""ComputeChain: the fusion-level IR for MBCI operator chains.

A chain is a short sequence of *compute blocks* (tensor contractions,
optionally with a fused softmax or an elementwise epilogue) plus the
*cross-tile loops* they share — exactly the structure of the paper's Fig. 3.
The GEMM chain ``C = A x B, E = C x D`` has loops ``m, n, k, h``; the
self-attention module has the same loop skeleton with an online softmax
between the two contractions.

Every subsystem consumes this IR: the tiling layer enumerates loop
structures over ``chain.loops``, the interpreter executes ``chain`` blocks
tile-by-tile, the performance model prices its statements, and the
baselines read the same object so all systems see identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from repro.ir.tensor import DTYPE_BYTES
from repro.utils import HashedTuple, prod, rng_for

__all__ = [
    "TensorRef",
    "ComputeBlock",
    "ComputeChain",
    "gemm_chain",
    "gemm3_chain",
    "attention_chain",
]


@dataclass(frozen=True)
class TensorRef:
    """A tensor as seen by the chain: which loops index it, and its role.

    ``dims`` are loop names excluding the implicit batch dimension; the
    batch (if any) is the leading axis of every tensor.
    """

    name: str
    dims: tuple[str, ...]
    role: str  # "input" | "intermediate" | "output"

    def __post_init__(self) -> None:
        if self.role not in ("input", "intermediate", "output"):
            raise ValueError(f"tensor {self.name!r}: bad role {self.role!r}")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"tensor {self.name!r}: repeated dims {self.dims}")


@dataclass(frozen=True)
class ComputeBlock:
    """One tensor contraction within a chain.

    Attributes:
        name: Block name; by convention equals its output tensor's name.
        inputs: Operand tensor names, in contraction order.
        output: Output tensor name.
        spatial: Loops indexing the output tile.
        reduction: Contracted loops.
        softmax_over: If set, the *first* input is normalized with a softmax
            along this loop before the contraction (self-attention's
            ``O = softmax(S) x V``). The fused kernel realizes this with an
            online softmax; the reference implementation uses the exact
            two-pass softmax. Both are numerically identical.
        epilogue: Optional elementwise epilogue on the output tile
            (``"relu"`` or ``"gelu"``) — the paper's "standard fusion
            optimizations for memory-intensive operators".
        scale: Constant multiplier applied to the contraction result
            (attention's ``1/sqrt(d_k)``).
    """

    name: str
    inputs: tuple[str, ...]
    output: str
    spatial: tuple[str, ...]
    reduction: tuple[str, ...]
    softmax_over: str | None = None
    epilogue: str | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError(f"block {self.name!r}: needs at least one input")
        overlap = set(self.spatial) & set(self.reduction)
        if overlap:
            raise ValueError(f"block {self.name!r}: loops {overlap} both spatial and reduction")
        if self.epilogue not in (None, "relu", "gelu"):
            raise ValueError(f"block {self.name!r}: unknown epilogue {self.epilogue!r}")
        if self.softmax_over is not None and self.softmax_over not in self.reduction:
            raise ValueError(
                f"block {self.name!r}: softmax_over {self.softmax_over!r} "
                "must be one of its reduction loops"
            )

    @property
    def related(self) -> tuple[str, ...]:
        """All loops this block's computation touches (spatial + reduction)."""
        return self.spatial + self.reduction


def _apply_epilogue(x: np.ndarray, epilogue: str | None) -> np.ndarray:
    if epilogue is None:
        return x
    if epilogue == "relu":
        return np.maximum(x, 0.0)
    if epilogue == "gelu":
        return 0.5 * x * (1.0 + np.tanh(0.7978845608 * (x + 0.044715 * x**3)))
    raise ValueError(f"unknown epilogue {epilogue!r}")


class ComputeChain:
    """A fusable chain of compute blocks over shared cross-tile loops.

    Args:
        name: Workload name (``"G4"``, ``"S2"``, ...).
        loops: Ordered mapping loop-name -> extent (problem size), excluding
            batch. Single lowercase letters by convention (``m, n, k, h``).
        blocks: Contractions in topological (producer-before-consumer) order.
        tensors: Every tensor referenced by the blocks.
        batch: Implicit leading batch dimension shared by all tensors
            (``heads x batch`` for attention); 1 means no batch axis
            materialized but a batch grid loop of extent 1.
        dtype: Storage dtype of all tensors.

    ``loops`` and ``tensors`` are read-only views: a chain never changes
    after construction, so its memo keys are built (and hashed) once.
    """

    def __init__(
        self,
        name: str,
        loops: dict[str, int],
        blocks: tuple[ComputeBlock, ...],
        tensors: dict[str, TensorRef],
        batch: int = 1,
        dtype: str = "float16",
    ) -> None:
        self.name = name
        self.loops = MappingProxyType(dict(loops))
        self.blocks = tuple(blocks)
        self.tensors = MappingProxyType(dict(tensors))
        self.batch = batch
        self.dtype = dtype
        self._validate()
        tensor_items = tuple(self.tensors.items())
        self._structure_key = HashedTuple(
            (tuple(self.loops.items()), batch, dtype, self.blocks, tensor_items)
        )
        self._size_free_key = HashedTuple((self.loop_names, dtype, self.blocks, tensor_items))

    # -- construction-time validation ---------------------------------------

    def _validate(self) -> None:
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.dtype not in DTYPE_BYTES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        for loop, size in self.loops.items():
            if size <= 0:
                raise ValueError(f"loop {loop!r}: non-positive extent {size}")
        produced: set[str] = set()
        for ref in self.tensors.values():
            for d in ref.dims:
                if d not in self.loops:
                    raise ValueError(f"tensor {ref.name!r} uses unknown loop {d!r}")
        for block in self.blocks:
            for t in block.inputs + (block.output,):
                if t not in self.tensors:
                    raise ValueError(f"block {block.name!r} references unknown tensor {t!r}")
            for loop in block.related:
                if loop not in self.loops:
                    raise ValueError(f"block {block.name!r} uses unknown loop {loop!r}")
            out_ref = self.tensors[block.output]
            if tuple(sorted(out_ref.dims)) != tuple(sorted(block.spatial)):
                raise ValueError(
                    f"block {block.name!r}: output dims {out_ref.dims} != spatial {block.spatial}"
                )
            for t in block.inputs:
                ref = self.tensors[t]
                if ref.role == "intermediate" and t not in produced:
                    raise ValueError(f"block {block.name!r} consumes {t!r} before it is produced")
            produced.add(block.output)
            if block.softmax_over is not None and block.softmax_over not in block.reduction:
                raise ValueError(
                    f"block {block.name!r}: softmax_over {block.softmax_over!r} "
                    "must be one of its reduction loops"
                )

    # -- basic queries -------------------------------------------------------

    @property
    def dtype_bytes(self) -> int:
        return DTYPE_BYTES[self.dtype]

    @property
    def loop_names(self) -> tuple[str, ...]:
        return tuple(self.loops)

    @property
    def output(self) -> str:
        """Name of the chain's final output tensor."""
        return self.blocks[-1].output

    @property
    def output_spatial(self) -> tuple[str, ...]:
        """Loops that index the final output — the grid-bindable spatial loops."""
        return self.tensors[self.output].dims

    def block(self, name: str) -> ComputeBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(f"no block named {name!r}")

    def producer_of(self, tensor: str) -> ComputeBlock | None:
        for b in self.blocks:
            if b.output == tensor:
                return b
        return None

    def consumers_of(self, tensor: str) -> tuple[ComputeBlock, ...]:
        return tuple(b for b in self.blocks if tensor in b.inputs)

    def shared_loops(self) -> tuple[str, ...]:
        """Loops related to more than one block (``m, n`` for the GEMM chain)."""
        counts = {loop: 0 for loop in self.loops}
        for b in self.blocks:
            for loop in b.related:
                counts[loop] += 1
        return tuple(loop for loop, c in counts.items() if c > 1)

    def private_loops(self, block: ComputeBlock) -> tuple[str, ...]:
        """Loops related to exactly this block (``k`` for C, ``h`` for E)."""
        shared = set(self.shared_loops())
        return tuple(loop for loop in block.related if loop not in shared)

    def tensor_shape(self, name: str) -> tuple[int, ...]:
        """Concrete shape including the leading batch axis."""
        ref = self.tensors[name]
        return (self.batch, *[self.loops[d] for d in ref.dims])

    def input_names(self) -> tuple[str, ...]:
        return tuple(t for t, ref in self.tensors.items() if ref.role == "input")

    def structure_key(self) -> tuple:
        """Hashable structural identity: everything but ``name``.

        Two chains with equal keys are interchangeable for tuning, lowering
        and signatures, so in-process memos key on this tuple (equality,
        not a digest, so keys cannot collide). It is the tuple
        ``(loops items, batch, dtype, blocks, tensors items)``, built once
        per chain as a :class:`~repro.utils.HashedTuple` (equal to, and
        hashing like, the plain tuple), so every call returns the same
        object and a memo lookup does not rehash the blocks and tensors.
        """
        return self._structure_key

    def size_free_key(self) -> tuple:
        """:meth:`structure_key` without the loop sizes and batch:
        ``(loop names, dtype, blocks, tensors items)``, built once like it.
        Chains of one structure at any shape share it."""
        return self._size_free_key

    def with_loops(self, overrides: dict[str, int], name: str | None = None) -> "ComputeChain":
        """A structurally identical chain with some loop extents replaced.

        The shape-bucketing layer uses this to build the *ceiling chain*
        (dynamic extents rounded up to their bucket ceilings) that the
        tuner searches at; schedules found there are replayed on any
        in-bucket shape. Unknown loop names raise.
        """
        unknown = set(overrides) - set(self.loops)
        if unknown:
            raise KeyError(f"unknown loop(s) {sorted(unknown)}; chain has {self.loop_names}")
        loops = {**self.loops, **overrides}
        return ComputeChain(
            name if name is not None else self.name,
            loops,
            self.blocks,
            self.tensors,
            batch=self.batch,
            dtype=self.dtype,
        )

    # -- work accounting -----------------------------------------------------

    def block_flops(self, block: ComputeBlock) -> float:
        """Total FLOPs of one block over the whole problem (incl. batch).

        Contractions count 2 FLOPs per multiply-accumulate; a fused softmax
        adds ~5 ops per normalized element (max, sub, exp, sum, div).
        """
        vol = self.batch * prod(self.loops[l] for l in block.related)
        flops = 2.0 * vol
        if block.softmax_over is not None:
            first = self.tensors[block.inputs[0]]
            flops += 5.0 * self.batch * prod(self.loops[d] for d in first.dims)
        return flops

    def total_flops(self) -> float:
        return sum(self.block_flops(b) for b in self.blocks)

    def min_dram_bytes(self) -> float:
        """DRAM traffic of a perfectly fused kernel: inputs once, output once."""
        total = 0
        for name, ref in self.tensors.items():
            if ref.role in ("input", "output"):
                total += self.batch * prod(self.loops[d] for d in ref.dims) * self.dtype_bytes
        return float(total)

    def unfused_dram_bytes(self) -> float:
        """DRAM traffic when every block round-trips through global memory."""
        total = 0.0
        for b in self.blocks:
            for t in b.inputs + (b.output,):
                ref = self.tensors[t]
                total += self.batch * prod(self.loops[d] for d in ref.dims) * self.dtype_bytes
            if b.softmax_over is not None:  # standalone softmax reads+writes S
                ref = self.tensors[b.inputs[0]]
                total += 2.0 * self.batch * prod(self.loops[d] for d in ref.dims) * self.dtype_bytes
        return total

    def arithmetic_intensity(self) -> float:
        """FLOPs per fused-kernel DRAM byte (the chain-level ``phi``)."""
        return self.total_flops() / self.min_dram_bytes()

    def is_mbci(self, gpu) -> bool:
        """The paper's MBCI test: compute-intensive ops that are memory-bound.

        True when the *unfused* execution is memory-bound (``phi`` of the
        individual blocks below the GPU ridge point), i.e. fusion has
        headroom to help.
        """
        unfused_phi = self.total_flops() / self.unfused_dram_bytes()
        return unfused_phi < gpu.flops_per_byte

    # -- reference execution ---------------------------------------------------

    def einsum_spec(self, block: ComputeBlock) -> str:
        """Einsum string for a block, with the batch axis as ``z``."""
        ins = ",".join("z" + "".join(self.tensors[t].dims) for t in block.inputs)
        out = "z" + "".join(self.tensors[block.output].dims)
        return f"{ins}->{out}"

    def reference(self, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Unfused fp32 reference execution of the whole chain.

        Returns every produced tensor (intermediates included) so tests can
        check fused execution block-by-block.
        """
        env = {k: np.asarray(v, dtype=np.float32) for k, v in inputs.items()}
        for name in self.input_names():
            if name not in env:
                raise KeyError(f"missing input {name!r}")
            if env[name].shape != self.tensor_shape(name):
                raise ValueError(
                    f"input {name!r}: shape {env[name].shape} != {self.tensor_shape(name)}"
                )
        for block in self.blocks:
            operands = [env[t] for t in block.inputs]
            if block.softmax_over is not None:
                first = operands[0]
                axis = self.tensors[block.inputs[0]].dims.index(block.softmax_over) + 1
                shifted = first - first.max(axis=axis, keepdims=True)
                probs = np.exp(shifted)
                probs /= probs.sum(axis=axis, keepdims=True)
                operands = [probs, *operands[1:]]
            out = np.einsum(self.einsum_spec(block), *operands)
            out = _apply_epilogue(block.scale * out if block.scale != 1.0 else out, block.epilogue)
            env[block.output] = out.astype(np.float32)
        return env

    def random_inputs(self, seed: int = 0) -> dict[str, np.ndarray]:
        """Deterministic random inputs, scaled to keep fp32 sums well-behaved."""
        out: dict[str, np.ndarray] = {}
        for name in self.input_names():
            rng = rng_for("chain-input", self.name, name, seed)
            shape = self.tensor_shape(name)
            out[name] = (rng.standard_normal(shape) * 0.5).astype(np.float32)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        loops = ",".join(f"{k}={v}" for k, v in self.loops.items())
        return f"ComputeChain({self.name}: batch={self.batch}, {loops}, blocks={[b.name for b in self.blocks]})"


# -- canonical chain builders ---------------------------------------------------


def gemm_chain(
    batch: int,
    m: int,
    n: int,
    k: int,
    h: int,
    name: str | None = None,
    dtype: str = "float16",
    epilogue: str | None = None,
) -> ComputeChain:
    """The paper's GEMM chain: ``C[m,n] = A[m,k] x B[k,n]; E[m,h] = C x D[n,h]``.

    ``epilogue`` (e.g. ``"relu"``) is applied to the intermediate ``C``,
    mirroring epilogue-fused producer ops.
    """
    loops = {"m": m, "n": n, "k": k, "h": h}
    tensors = {
        "A": TensorRef("A", ("m", "k"), "input"),
        "B": TensorRef("B", ("k", "n"), "input"),
        "C": TensorRef("C", ("m", "n"), "intermediate"),
        "D": TensorRef("D", ("n", "h"), "input"),
        "E": TensorRef("E", ("m", "h"), "output"),
    }
    blocks = (
        ComputeBlock("C", ("A", "B"), "C", ("m", "n"), ("k",), epilogue=epilogue),
        ComputeBlock("E", ("C", "D"), "E", ("m", "h"), ("n",)),
    )
    return ComputeChain(
        name or f"gemm_chain_b{batch}_m{m}n{n}k{k}h{h}",
        loops,
        blocks,
        tensors,
        batch=batch,
        dtype=dtype,
    )


def gemm3_chain(
    batch: int,
    m: int,
    n: int,
    k: int,
    h: int,
    p: int,
    name: str | None = None,
    dtype: str = "float16",
    epilogue: str | None = None,
) -> ComputeChain:
    """A three-GEMM chain: ``C = A x B; E = C x D; F = E x G``.

    Extends the paper's two-GEMM chain with a third contraction over a new
    loop ``p`` (an MLP-style GEMM stack); the maximum depth the
    partitioner's legality probes admit (<= 3 blocks). ``epilogue`` is
    applied to both intermediates.
    """
    loops = {"m": m, "n": n, "k": k, "h": h, "p": p}
    tensors = {
        "A": TensorRef("A", ("m", "k"), "input"),
        "B": TensorRef("B", ("k", "n"), "input"),
        "C": TensorRef("C", ("m", "n"), "intermediate"),
        "D": TensorRef("D", ("n", "h"), "input"),
        "E": TensorRef("E", ("m", "h"), "intermediate"),
        "G": TensorRef("G", ("h", "p"), "input"),
        "F": TensorRef("F", ("m", "p"), "output"),
    }
    blocks = (
        ComputeBlock("C", ("A", "B"), "C", ("m", "n"), ("k",), epilogue=epilogue),
        ComputeBlock("E", ("C", "D"), "E", ("m", "h"), ("n",), epilogue=epilogue),
        ComputeBlock("F", ("E", "G"), "F", ("m", "p"), ("h",)),
    )
    return ComputeChain(
        name or f"gemm3_chain_b{batch}_m{m}n{n}k{k}h{h}p{p}",
        loops,
        blocks,
        tensors,
        batch=batch,
        dtype=dtype,
    )


def attention_chain(
    heads: int,
    m: int,
    n: int,
    k: int,
    h: int,
    name: str | None = None,
    dtype: str = "float16",
    batch: int = 1,
) -> ComputeChain:
    """Self-attention module: ``S = Q K^T / sqrt(k); O = softmax(S) V``.

    Heads (and any outer batch) fold into the chain's batch axis — each
    head's attention is independent, exactly how fused attention kernels
    parallelize. ``m``/``n`` are query/key sequence lengths, ``k`` the QK
    head dim, ``h`` the V head dim (paper's Table III columns).
    """
    loops = {"m": m, "n": n, "k": k, "h": h}
    tensors = {
        "Q": TensorRef("Q", ("m", "k"), "input"),
        "K": TensorRef("K", ("n", "k"), "input"),
        "S": TensorRef("S", ("m", "n"), "intermediate"),
        "V": TensorRef("V", ("n", "h"), "input"),
        "O": TensorRef("O", ("m", "h"), "output"),
    }
    blocks = (
        ComputeBlock("S", ("Q", "K"), "S", ("m", "n"), ("k",), scale=1.0 / float(k) ** 0.5),
        ComputeBlock("O", ("S", "V"), "O", ("m", "h"), ("n",), softmax_over="n"),
    )
    return ComputeChain(
        name or f"attention_h{heads}_m{m}n{n}k{k}h{h}",
        loops,
        blocks,
        tensors,
        batch=heads * batch,
        dtype=dtype,
    )
