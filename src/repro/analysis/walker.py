"""A small visitor/walker framework over the Dynamic C subset AST.

The compiler's AST nodes are plain dataclasses with ``list`` bodies and
``object`` expression slots, so traversal is structural: any dataclass
field whose value is an AST node (or a list of them) is a child.  The
walker yields ``(node, ancestors)`` pairs, which the rules iterate.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.dync.compiler.ast_nodes import CType


def is_node(value: object) -> bool:
    """An AST node: any compiler dataclass except the CType leaf."""
    return dataclasses.is_dataclass(value) and not isinstance(value, type) \
        and not isinstance(value, CType)


def children(node: object) -> Iterator[object]:
    """Immediate AST children of ``node`` (statement lists flattened)."""
    if isinstance(node, list):
        for item in node:
            if isinstance(item, list):
                yield from children(item)
            elif is_node(item):
                yield item
        return
    for field_ in dataclasses.fields(node):
        value = getattr(node, field_.name)
        if isinstance(value, list):
            for item in value:
                if isinstance(item, list):  # nested block statement
                    yield from children(item)
                elif is_node(item):
                    yield item
        elif is_node(value):
            yield value


def walk(root: object, _ancestors: tuple = ()) -> Iterator[tuple]:
    """Yield ``(node, ancestors)`` depth-first, root first.

    ``ancestors`` is the tuple of enclosing nodes, outermost first, so
    ``any(isinstance(a, Costate) for a in ancestors)`` answers the
    "am I inside a costatement?" question every cooperative rule asks.
    """
    if isinstance(node := root, list):
        for item in node:
            yield from walk(item, _ancestors)
        return
    if not is_node(node):
        return
    yield node, _ancestors
    inner = _ancestors + (node,)
    for child in children(node):
        yield from walk(child, inner)


def iter_nodes(root: object, node_type=None) -> Iterator[object]:
    for node, _ in walk(root):
        if node_type is None or isinstance(node, node_type):
            yield node

