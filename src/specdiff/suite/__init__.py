"""Bundled case-study suites: signatures, references, and seeded bugs.

Each suite pairs a signature file with reference implementations known
to agree and a set of single-fault variants known to disagree.  Look
implementations up by name; every lookup returns a fresh instance.
"""

from __future__ import annotations

import functools
import pkgutil
from typing import Mapping

from ..interp import Implementation
from ..record import record
from ..sigdsl import Signature, parse_signature
from . import bst_map, counter, finite_set


class UnknownNameError(ValueError):
    """A suite or implementation name that is not registered."""


@record
class SuiteEntry:
    name: str
    signature: Signature
    implementations: Mapping[str, type]
    bug_variants: Mapping[str, type]
    reference: str


# (name, implementations, bug variants), in the order list_suites returns
# them.  Each class is registered under its own name; the first
# implementation is the suite's reference, and a bug variant's docstring
# describes its fault.
_SUITES = (
    (
        "finite_set",
        (finite_set.ListSet, finite_set.BSTSet),
        (finite_set.BSTSetDupInsert, finite_set.BSTSetRemoveLeft, finite_set.BSTSetMemStrict),
    ),
    (
        "bst_map",
        (bst_map.BstMap,),
        (
            bst_map.MapInsertSingleton,
            bst_map.MapInsertWrongSubtree,
            bst_map.MapInsertNoOverwrite,
            bst_map.MapDeleteReversed,
            bst_map.MapDeleteDropsSubtree,
            bst_map.MapUnionRightBiased,
            bst_map.MapFindOffByOne,
            bst_map.MapKeysPreorder,
        ),
    ),
    ("counter", (counter.IntCounter, counter.ListCounter), (counter.SaturatingCounter,)),
)


@functools.cache
def _registry() -> dict[str, SuiteEntry]:
    """The suite entries by name, built on first use."""
    return {row[0]: _make_entry(*row) for row in _SUITES}


def _make_entry(name, implementations, bug_variants) -> SuiteEntry:
    text = pkgutil.get_data(__name__, f"{name}.sig").decode("utf-8")
    return SuiteEntry(
        name=name,
        # looked up at call time, so a patched parse_signature is used
        signature=parse_signature(text),
        implementations={cls.name: cls for cls in implementations},
        bug_variants={cls.name: cls for cls in bug_variants},
        reference=implementations[0].name,
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
    cls = entry.implementations.get(impl) or entry.bug_variants.get(impl)
    if cls is None:
        known = ", ".join(sorted([*entry.implementations, *entry.bug_variants]))
        raise UnknownNameError(
            f"unknown implementation {impl!r} for suite {suite!r} (available: {known})"
        )
    instance = cls()
    instance.reset()
    return instance
