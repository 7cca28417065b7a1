"""Integer maps as unbalanced binary search trees, plus eight seeded bugs.

The handle is None or (key, value, left, right).  Each bug variant
subclasses the correct map and overrides exactly one helper, so every
variant differs from the reference by a single fault.  union merges the
in-order item lists directly instead of repeated insertion, which keeps
it correct even in variants whose insert is broken.
"""

from __future__ import annotations

from ..interp import Implementation, VNone, VSome


class BstMap(Implementation):
    """The reference map."""

    name = "correct"

    def empty(self):
        return None

    def insert(self, k, v, t):
        return self._insert(t, k, v)

    def delete(self, k, t):
        return self._delete(t, k)

    def find(self, k, t):
        found = self._find(t, k)
        return VNone() if found is None else VSome(found)

    def keys(self, t):
        return tuple(self._keys(t))

    def size(self, t):
        return _count(t)

    def _insert(self, node, k, v):
        if node is None:
            return (k, v, None, None)
        key, val, left, right = node
        if k < key:
            return (key, val, self._insert(left, k, v), right)
        if k > key:
            return (key, val, left, self._insert(right, k, v))
        return (key, v, left, right)

    def _delete(self, node, k):
        if node is None:
            return None
        key, val, left, right = node
        if k < key:
            return (key, val, self._delete(left, k), right)
        if k > key:
            return (key, val, left, self._delete(right, k))
        return _join(left, right)

    def _find(self, node, k):
        if node is None:
            return None
        key, val, left, right = node
        if k < key:
            return self._find(left, k)
        if k > key:
            return self._find(right, k)
        return val

    def union(self, a, b):
        items_a, items_b = _items(a), _items(b)
        merged = []
        i = j = 0
        while i < len(items_a) and j < len(items_b):
            ka, kb = items_a[i][0], items_b[j][0]
            if ka < kb:
                merged.append(items_a[i])
                i += 1
            elif kb < ka:
                merged.append(items_b[j])
                j += 1
            else:
                merged.append(self._pick(items_a[i], items_b[j]))
                i += 1
                j += 1
        merged.extend(items_a[i:])
        merged.extend(items_b[j:])
        return _build(merged)

    def _pick(self, left_item, right_item):
        """Which binding survives when both maps carry the key."""
        return left_item

    def _keys(self, node):
        if node is None:
            return []
        return self._keys(node[2]) + [node[0]] + self._keys(node[3])


class MapInsertSingleton(BstMap):
    """B1: insert returns a singleton, discarding the rest of the tree."""

    name = "b1"

    def _insert(self, node, k, v):
        return (k, v, None, None)


class MapInsertWrongSubtree(BstMap):
    """B2: insert descends right even when the key belongs on the left."""

    name = "b2"

    def _insert(self, node, k, v):
        if node is None:
            return (k, v, None, None)
        key, val, left, right = node
        if k != key:
            return (key, val, left, self._insert(right, k, v))
        return (key, v, left, right)


class MapInsertNoOverwrite(BstMap):
    """B3: insert keeps the old value when the key is already present."""

    name = "b3"

    def _insert(self, node, k, v):
        if node is None:
            return (k, v, None, None)
        key, val, left, right = node
        if k < key:
            return (key, val, self._insert(left, k, v), right)
        if k > key:
            return (key, val, left, self._insert(right, k, v))
        return node


class MapDeleteReversed(BstMap):
    """B4: delete recurses with the key comparison reversed."""

    name = "b4"

    def _delete(self, node, k):
        if node is None:
            return None
        key, val, left, right = node
        if k < key:
            return (key, val, left, self._delete(right, k))
        if k > key:
            return (key, val, self._delete(left, k), right)
        return _join(left, right)


class MapDeleteDropsSubtree(BstMap):
    """B5: delete throws away the deleted node's subtrees."""

    name = "b5"

    def _delete(self, node, k):
        if node is None:
            return None
        key, val, left, right = node
        if k < key:
            return (key, val, self._delete(left, k), right)
        if k > key:
            return (key, val, left, self._delete(right, k))
        return None


class MapUnionRightBiased(BstMap):
    """B6: union keeps the right map's value on duplicate keys."""

    name = "b6"

    def _pick(self, left_item, right_item):
        return right_item


class MapFindOffByOne(BstMap):
    """B7: find compares against the node key shifted by one."""

    name = "b7"

    def _find(self, node, k):
        if node is None:
            return None
        key, val, left, right = node
        if k < key - 1:
            return self._find(left, k)
        if k > key - 1:
            return self._find(right, k)
        return val


class MapKeysPreorder(BstMap):
    """B8: keys lists the tree in pre-order instead of in-order."""

    name = "b8"

    def _keys(self, node):
        if node is None:
            return []
        return [node[0]] + self._keys(node[2]) + self._keys(node[3])


def _join(left, right):
    """Combine subtrees around a deleted node; left keys precede right keys."""
    if left is None:
        return right
    if right is None:
        return left
    key, val, rest = _take_max(left)
    return (key, val, rest, right)


def _take_max(node):
    key, val, left, right = node
    if right is None:
        return key, val, left
    top, tv, rest = _take_max(right)
    return top, tv, (key, val, left, rest)


def _count(node):
    if node is None:
        return 0
    return 1 + _count(node[2]) + _count(node[3])


def _items(node):
    """In-order (key, value) pairs."""
    if node is None:
        return []
    return _items(node[2]) + [(node[0], node[1])] + _items(node[3])


def _build(items):
    """Balanced tree from items sorted by key."""
    if not items:
        return None
    mid = len(items) // 2
    k, v = items[mid]
    return (k, v, _build(items[:mid]), _build(items[mid + 1 :]))
