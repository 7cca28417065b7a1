"""Bundled case-study suites: signatures, references, and seeded bugs.

Each suite pairs a signature file with reference implementations known
to agree and a set of single-fault variants known to disagree.  Look
implementations up by name; every lookup returns a fresh instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping

from ..interp import Implementation
from ..sigdsl import Signature, parse_signature
from . import bst_map, counter, finite_set


class UnknownNameError(ValueError):
    """A suite or implementation name that is not registered."""


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    signature: Signature
    implementations: Mapping[str, type]
    bug_variants: Mapping[str, tuple[type, str]] = field(default_factory=dict)
    reference: str = ""


# (name, implementations, bug variants with descriptions, reference), in
# the order list_suites returns them.
_SUITES = (
    (
        "finite_set",
        {"listset": finite_set.ListSet, "bstset": finite_set.BSTSet},
        {
            "insert_dup": (
                finite_set.BSTSetDupInsert,
                "insert fails to deduplicate, so size inflates",
            ),
            "remove_left": (
                finite_set.BSTSetRemoveLeft,
                "remove deletes only from the left subtree",
            ),
            "mem_strict": (
                finite_set.BSTSetMemStrict,
                "mem uses strict inequality at the node key",
            ),
        },
        "listset",
    ),
    (
        "bst_map",
        {"correct": bst_map.BstMap},
        {
            "b1": (bst_map.MapInsertSingleton, "insert returns a singleton, discarding the tree"),
            "b2": (bst_map.MapInsertWrongSubtree, "insert branches to the wrong subtree"),
            "b3": (bst_map.MapInsertNoOverwrite, "insert fails to overwrite an existing key"),
            "b4": (bst_map.MapDeleteReversed, "delete reverses the key comparison"),
            "b5": (bst_map.MapDeleteDropsSubtree, "delete drops the deleted node's subtree"),
            "b6": (bst_map.MapUnionRightBiased, "union is right-biased on duplicate keys"),
            "b7": (bst_map.MapFindOffByOne, "find compares off by one"),
            "b8": (bst_map.MapKeysPreorder, "keys lists the tree in pre-order"),
        },
        "correct",
    ),
    (
        "counter",
        {"int_counter": counter.IntCounter, "list_counter": counter.ListCounter},
        {"saturating": (counter.SaturatingCounter, "the count saturates at 10")},
        "int_counter",
    ),
)

_REGISTRY: dict[str, SuiteEntry] | None = None


def _registry() -> dict[str, SuiteEntry]:
    """The suite entries by name, built on first use."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = {row[0]: _make_entry(*row) for row in _SUITES}
    return _REGISTRY


def _make_entry(name, implementations, bug_variants, reference) -> SuiteEntry:
    text = resources.files(__package__).joinpath(f"{name}.sig").read_text("utf-8")
    return SuiteEntry(
        name=name,
        # looked up at call time, so a patched parse_signature is used
        signature=parse_signature(text),
        implementations=implementations,
        bug_variants=bug_variants,
        reference=reference,
    )


def list_suites() -> list[SuiteEntry]:
    """The bundled suites, in a stable order."""
    return list(_registry().values())


def get_suite(name: str) -> SuiteEntry:
    registry = _registry()
    entry = registry.get(name)
    if entry is None:
        known = ", ".join(sorted(registry))
        raise UnknownNameError(f"unknown suite {name!r} (available: {known})")
    return entry


def get_implementation(suite: str, impl: str) -> Implementation:
    """A fresh, reset instance of a named implementation or bug variant."""
    entry = get_suite(suite)
    cls = entry.implementations.get(impl)
    if cls is None and impl in entry.bug_variants:
        cls = entry.bug_variants[impl][0]
    if cls is None:
        known = ", ".join(sorted([*entry.implementations, *entry.bug_variants]))
        raise UnknownNameError(
            f"unknown implementation {impl!r} for suite {suite!r} (available: {known})"
        )
    instance = cls()
    instance.reset()
    return instance
