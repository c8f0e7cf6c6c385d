"""A reverse-mode recording of fused nodes over dense float64 arrays.

Every node is a leaf or a value with a caller-supplied vector-Jacobian
callback (``custom_node``); ``backward`` walks the recording in reverse
and returns the leaves' gradients.  The training step records three such
nodes per batch: the recurrent cell, the dense head and the loss.

The recording holds no reference cycle: a Var holds its tape, the tape
holds its nodes, and a node's backward closure holds only shapes, floats
and value arrays, never the tape or a Var.  A tape and every array its
nodes saved are therefore freed by reference counting as soon as its last
Var is dropped, without waiting for the cyclic collector.
"""

from __future__ import annotations

import numpy as np


class TapeError(ValueError):
    pass


class Var:
    """A recorded value; ``idx`` is its handle into the owning tape."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape, idx, value):
        self.tape = tape
        self.idx = idx
        self.value = value


class Tape:
    """Recording of nodes in topological order."""

    def __init__(self):
        self.nodes = []  # (backward_fn | None, parent_indices, value)

    def _record(self, value, parents, backward):
        value = np.asarray(value, dtype=float)
        idx = len(self.nodes)
        self.nodes.append((backward, tuple(p.idx for p in parents), value))
        return Var(self, idx, value)

    def leaf(self, value) -> Var:
        value = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(value)):
            raise TapeError("leaf values must be finite")
        return self._record(value, (), None)

    def custom_node(self, parents: list[Var], value, vjp) -> Var:
        """Record ``value`` with a caller-supplied vector-Jacobian callback.

        ``vjp(cotangent)`` must return one cotangent array per parent, in
        order and with matching shapes.  ``vjp`` must not hold the tape or
        a Var (close over their ``.value`` arrays instead): the tape keeps
        ``vjp`` alive, so either would make the recording a reference cycle
        that only the cyclic garbage collector frees.
        """
        parent_shapes = [p.value.shape for p in parents]

        def back(g, out):
            cots = vjp(g)
            if len(cots) != len(parent_shapes):
                raise TapeError("custom_node callback returned wrong arity")
            cots = tuple(np.asarray(c, dtype=float) for c in cots)
            for c, s in zip(cots, parent_shapes):
                if c.shape != s:
                    raise TapeError(f"custom_node cotangent shape {c.shape} != parent {s}")
            return cots

        return self._record(value, tuple(parents), back)

    def backward(self, loss: Var) -> dict[int, np.ndarray]:
        """Gradients of a scalar loss w.r.t. every leaf.

        Walks the recording in reverse from ``loss``; each node's
        cotangents are added into its parents' gradients (the first one
        copied, later ones summed) and its own gradient is dropped once
        passed on.  Returns a table mapping each leaf's handle to its
        gradient; leaves that do not influence the loss get zeros.
        Interior nodes are not in the table.
        """
        if loss.value.shape != ():
            raise TapeError("backward expects a scalar loss")
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[loss.idx] = np.asarray(1.0)
        for idx in range(loss.idx, -1, -1):
            g = grads[idx]
            if g is None:
                continue
            backward_fn, parents, value = self.nodes[idx]
            if backward_fn is None:
                continue
            grads[idx] = None
            cots = backward_fn(g, value)
            for p_idx, cot in zip(parents, cots):
                if grads[p_idx] is None:
                    grads[p_idx] = np.array(cot, dtype=float, copy=True)
                else:
                    grads[p_idx] = grads[p_idx] + cot
        out = {}
        for idx, (backward_fn, parents, value) in enumerate(self.nodes):
            if backward_fn is not None:
                continue
            g = grads[idx]
            out[idx] = np.zeros_like(value) if g is None else np.broadcast_to(g, value.shape).astype(float)
        return out
