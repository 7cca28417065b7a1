"""Finite sets of integers: a sorted-list and a BST implementation.

Both represent the same abstract set; to_list is the canonical view
(ascending, duplicate-free) that makes them observationally comparable.
Bug variants subclass BSTSet and override exactly one helper.
"""

from __future__ import annotations

from bisect import bisect_left

from ..interp import Implementation, Outcome, VAbstract, Value


class ListSet(Implementation):
    """Sets as sorted duplicate-free tuples."""

    name = "listset"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "empty":
            return VAbstract(())
        if op == "insert":
            k, t = args[0], args[1].handle
            i = bisect_left(t, k)
            if i < len(t) and t[i] == k:
                return VAbstract(t)
            return VAbstract(t[:i] + (k,) + t[i:])
        if op == "remove":
            k, t = args[0], args[1].handle
            i = bisect_left(t, k)
            if i < len(t) and t[i] == k:
                return VAbstract(t[:i] + t[i + 1 :])
            return VAbstract(t)
        if op == "mem":
            k, t = args[0], args[1].handle
            i = bisect_left(t, k)
            return i < len(t) and t[i] == k
        if op == "size":
            return len(args[0].handle)
        if op == "union":
            merged = tuple(sorted(set(args[0].handle) | set(args[1].handle)))
            return VAbstract(merged)
        if op == "to_list":
            return args[0].handle
        raise KeyError(op)


class BSTSet(Implementation):
    """Sets as unbalanced binary search trees: None | (key, left, right)."""

    name = "bstset"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "empty":
            return VAbstract(None)
        if op == "insert":
            return VAbstract(self._insert(args[1].handle, args[0]))
        if op == "remove":
            return VAbstract(self._remove(args[1].handle, args[0]))
        if op == "mem":
            return self._mem(args[1].handle, args[0])
        if op == "size":
            return _count(args[0].handle)
        if op == "union":
            acc = args[0].handle
            for k in _elements(args[1].handle):
                acc = self._insert(acc, k)
            return VAbstract(acc)
        if op == "to_list":
            return tuple(_elements(args[0].handle))
        raise KeyError(op)

    def _insert(self, node, k):
        if node is None:
            return (k, None, None)
        key, left, right = node
        if k < key:
            return (key, self._insert(left, k), right)
        if k > key:
            return (key, left, self._insert(right, k))
        return node

    def _remove(self, node, k):
        if node is None:
            return None
        key, left, right = node
        if k < key:
            return (key, self._remove(left, k), right)
        if k > key:
            return (key, left, self._remove(right, k))
        return _join(left, right)

    def _mem(self, node, k):
        if node is None:
            return False
        key, left, right = node
        if k < key:
            return self._mem(left, k)
        if k > key:
            return self._mem(right, k)
        return True


class BSTSetDupInsert(BSTSet):
    """Bug: insert never detects an existing key, so duplicates pile up."""

    name = "insert_dup"

    def _insert(self, node, k):
        if node is None:
            return (k, None, None)
        key, left, right = node
        if k < key:
            return (key, self._insert(left, k), right)
        # equal keys fall through to the right subtree
        return (key, left, self._insert(right, k))


class BSTSetRemoveLeft(BSTSet):
    """Bug: remove never descends into the right subtree."""

    name = "remove_left"

    def _remove(self, node, k):
        if node is None:
            return None
        key, left, right = node
        if k < key:
            return (key, self._remove(left, k), right)
        if k > key:
            return node
        return _join(left, right)


class BSTSetMemStrict(BSTSet):
    """Bug: mem compares strictly, so the node's own key is never found."""

    name = "mem_strict"

    def _mem(self, node, k):
        if node is None:
            return False
        key, left, right = node
        if k < key:
            return self._mem(left, k)
        return self._mem(right, k)


def _join(left, right):
    """Combine two BSTs where everything in left precedes everything in right."""
    if left is None:
        return right
    if right is None:
        return left
    key, rest = _take_max(left)
    return (key, rest, right)


def _take_max(node):
    key, left, right = node
    if right is None:
        return key, left
    top, rest = _take_max(right)
    return top, (key, left, rest)


def _count(node):
    if node is None:
        return 0
    return 1 + _count(node[1]) + _count(node[2])


def _elements(node):
    if node is None:
        return []
    return _elements(node[1]) + [node[0]] + _elements(node[2])
