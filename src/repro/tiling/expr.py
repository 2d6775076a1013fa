"""High-level tiling expressions (§III-A of the paper).

A tiling expression describes the *structure* of the cross-tile loops of a
fused kernel. Loops relate in two ways:

* **Nested** — ``lj li`` means ``li`` runs inside ``lj``'s scope. A purely
  nested expression over all loops is a *deep tiling* (``mhnk``).
* **Sequential** — ``(lj, li)`` means the loops run one after another in
  the same scope. Expressions containing a sequential group are *flat
  tilings* (``mn(k,h)``), the class Chimera's search space misses.

The textual syntax matches the paper: concatenation nests, parentheses with
commas sequence. ``mn(k,h)`` parses to ``m -> n -> [k ; h]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.utils import process_memo

__all__ = ["TilingExpr", "LoopNest", "parse_expr"]


@dataclass(frozen=True)
class LoopNest:
    """One loop and the (sequentially executed) sub-structures in its body."""

    loop: str
    body: tuple["LoopNest", ...] = ()

    def render(self) -> str:
        if not self.body:
            return self.loop
        if len(self.body) == 1:
            return self.loop + self.body[0].render()
        return self.loop + "(" + ",".join(child.render() for child in self.body) + ")"


@dataclass(frozen=True)
class TilingExpr:
    """A full tiling expression: an ordered forest of :class:`LoopNest`.

    Almost always the forest has a single root; a multi-root forest arises
    only as the residual of removing bound loops.
    """

    roots: tuple[LoopNest, ...]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_perm(loops: tuple[str, ...] | list[str]) -> "TilingExpr":
        """A deep tiling from a loop permutation (``('m','h','n','k')``)."""
        if not loops:
            return TilingExpr(roots=())
        node: LoopNest | None = None
        for loop in reversed(list(loops)):
            node = LoopNest(loop, (node,) if node is not None else ())
        assert node is not None
        return TilingExpr(roots=(node,))

    @staticmethod
    def flat(outer: tuple[str, ...], groups: list[tuple[str, ...]]) -> "TilingExpr":
        """A flat tiling: nested ``outer`` loops wrapping a sequential group.

        Each group is itself a nested chain. ``flat(('m','n'), [('k',),('h',)])``
        builds ``mn(k,h)``.
        """
        children = tuple(
            TilingExpr.from_perm(g).roots[0] for g in groups if g
        )
        if not outer:
            return TilingExpr(roots=children)
        node: tuple[LoopNest, ...] = children
        for loop in reversed(list(outer)):
            node = (LoopNest(loop, node),)
        return TilingExpr(roots=node)

    @staticmethod
    @process_memo
    @lru_cache(maxsize=1024)
    def parse(text: str) -> "TilingExpr":
        """Parse the paper's textual syntax (``"mhnk"``, ``"mn(k,h)"``).

        Memoized per text: expressions are frozen, and warm cache hits
        re-parse the same stored strings on every request."""
        return parse_expr(text)

    # -- validation -----------------------------------------------------------

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for loop in self.loops():
            if loop in seen:
                raise ValueError(f"loop {loop!r} appears twice in {self.render()!r}")
            seen.add(loop)

    # -- queries -----------------------------------------------------------------

    def loops(self) -> tuple[str, ...]:
        """All loop names in pre-order."""
        out: list[str] = []

        def walk(node: LoopNest) -> None:
            out.append(node.loop)
            for child in node.body:
                walk(child)

        for root in self.roots:
            walk(root)
        return tuple(out)

    @cached_property
    def _parents(self) -> dict[str, str | None]:
        parents: dict[str, str | None] = {}

        def walk(node: LoopNest, parent: str | None) -> None:
            parents[node.loop] = parent
            for child in node.body:
                walk(child, node.loop)

        for root in self.roots:
            walk(root, None)
        return parents

    @cached_property
    def _nodes(self) -> dict[str, LoopNest]:
        nodes: dict[str, LoopNest] = {}

        def walk(node: LoopNest) -> None:
            nodes[node.loop] = node
            for child in node.body:
                walk(child)

        for root in self.roots:
            walk(root)
        return nodes

    def node(self, loop: str) -> LoopNest:
        return self._nodes[loop]

    def parent(self, loop: str) -> str | None:
        return self._parents[loop]

    def ancestors(self, loop: str) -> tuple[str, ...]:
        """Loops strictly enclosing ``loop``, outermost first."""
        chain: list[str] = []
        cur = self._parents[loop]
        while cur is not None:
            chain.append(cur)
            cur = self._parents[cur]
        return tuple(reversed(chain))

    def depth(self, loop: str) -> int:
        """Nesting depth (root loops have depth 0)."""
        return len(self.ancestors(loop))

    def encloses(self, outer: str, inner: str) -> bool:
        """True when ``outer`` is a strict ancestor of ``inner``."""
        return outer in self.ancestors(inner)

    def deepest(self, candidates: set[str] | tuple[str, ...]) -> str | None:
        """The most deeply nested of ``candidates`` present in the expression.

        Statements are homed at the deepest of their *related* loops
        ("rightmost related loop" in the paper). Candidates on unrelated
        branches are compared by depth; ties broken by pre-order position
        for determinism.
        """
        order = {loop: i for i, loop in enumerate(self.loops())}
        best: str | None = None
        for loop in candidates:
            if loop not in order:
                continue
            if best is None:
                best = loop
                continue
            d_new, d_best = self.depth(loop), self.depth(best)
            if (d_new, order[loop]) > (d_best, order[best]):
                best = loop
        return best

    @property
    def is_deep(self) -> bool:
        """True when every scope has at most one sub-loop (no seq groups)."""
        if len(self.roots) > 1:
            return False

        def ok(node: LoopNest) -> bool:
            return len(node.body) <= 1 and all(ok(c) for c in node.body)

        return all(ok(r) for r in self.roots)

    @property
    def max_depth(self) -> int:
        def d(node: LoopNest) -> int:
            return 1 + max((d(c) for c in node.body), default=0)

        return max((d(r) for r in self.roots), default=0)

    # -- transforms --------------------------------------------------------------

    def without(self, removed: set[str]) -> "TilingExpr":
        """Remove loops, splicing their children into the parent's position.

        Used to derive the per-thread-block *sub-tiling expression* after
        binding spatial loops to ``blockIdx`` (Rule 1), and to drop dead
        extent-1 loops in the DAG optimization.
        """

        def walk(node: LoopNest) -> tuple[LoopNest, ...]:
            new_children: list[LoopNest] = []
            for child in node.body:
                new_children.extend(walk(child))
            if node.loop in removed:
                return tuple(new_children)
            return (LoopNest(node.loop, tuple(new_children)),)

        roots: list[LoopNest] = []
        for root in self.roots:
            roots.extend(walk(root))
        return TilingExpr(roots=tuple(roots))

    def render(self) -> str:
        """Textual form; multi-root forests render as ``(a,b)``."""
        return self._text

    @cached_property
    def _text(self) -> str:
        # Rendered once: candidate keys and cache entries ask for it often.
        if not self.roots:
            return ""
        if len(self.roots) == 1:
            return self.roots[0].render()
        return "(" + ",".join(r.render() for r in self.roots) + ")"

    def __str__(self) -> str:
        return self.render()


def parse_expr(text: str) -> TilingExpr:
    """Recursive-descent parser for the paper's expression syntax."""
    pos = 0

    def error(msg: str) -> ValueError:
        return ValueError(f"bad tiling expression {text!r} at {pos}: {msg}")

    def parse_sequence() -> tuple[LoopNest, ...]:
        # sequence := chain (',' chain)*
        nonlocal pos
        items = [parse_chain()]
        while pos < len(text) and text[pos] == ",":
            pos += 1
            items.append(parse_chain())
        return tuple(items)

    def parse_chain() -> LoopNest:
        # chain := LETTER chain? | LETTER '(' sequence ')'
        nonlocal pos
        if pos >= len(text) or not text[pos].isalpha():
            raise error("expected loop name")
        loop = text[pos]
        pos += 1
        if pos < len(text) and text[pos] == "(":
            pos += 1
            body = parse_sequence()
            if pos >= len(text) or text[pos] != ")":
                raise error("expected ')'")
            pos += 1
            return LoopNest(loop, body)
        if pos < len(text) and text[pos].isalpha():
            return LoopNest(loop, (parse_chain(),))
        return LoopNest(loop, ())

    if not text:
        return TilingExpr(roots=())
    roots = parse_sequence()
    if pos != len(text):
        raise error("trailing characters")
    return TilingExpr(roots=roots)
