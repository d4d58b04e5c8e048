"""A reference for ``decompose._plan``: the planner as it stood when each
window's key was a tuple of gate tuples, built by a per-gate generator and
hashing every gate's ``TwoLevelUnitary``. Tests check that the planner in
use returns equal steps on every compiled ladder and on random circuits."""

import functools
import math

import numpy as np

from ququint.core import MATRIX_TOL, LevelPairGate, TwoQuditCZ, _apply_gate_inplace, _Move
from ququint.decompose import (
    _SNAP,
    _UNITS,
    _WINDOW_GATES,
    _WINDOW_SITES,
    _WINDOW_SIZE,
    _WINDOW_SPREAD,
)


def reference_plan(register, gates):
    dims, strides = register.dims, register.strides
    steps = []
    g = 0
    while g < len(gates):
        sites, key = _window(dims, gates, g)
        length, delta, phase = _monomial_prefix(tuple(dims[s] for s in sites), key)
        if not length:
            steps.append(gates[g])
            length = 1
        elif delta is not None or phase is not None:
            steps.append(_move(dims, strides, sites, delta, phase))
        g += length
    return steps


def _window(dims, gates, g):
    touched = set()
    size, end, stop = 1, g, min(len(gates), g + _WINDOW_GATES)
    while end < stop:
        gate = gates[end]
        if isinstance(gate, LevelPairGate):
            new = [] if gate.site in touched else [gate.site]
        else:
            new = [s for s in (gate.site_a, gate.site_b) if s not in touched]
        if new:
            grow = math.prod(dims[s] for s in new)
            if len(touched) + len(new) > _WINDOW_SITES or size * grow > _WINDOW_SIZE:
                break
            touched.update(new)
            size *= grow
        end += 1
    sites = sorted(touched)
    local = {s: k for k, s in enumerate(sites)}
    key = tuple(
        (local[gate.site], gate.i, gate.j, gate.u)
        if isinstance(gate, LevelPairGate)
        else (local[gate.site_a], local[gate.site_b], gate.i, gate.j, gate.phase)
        for gate in gates[g:end]
    )
    return sites, key


@functools.lru_cache(maxsize=None)
def _monomial_prefix(dims, key):
    size = math.prod(dims)
    columns = np.arange(size)
    m = np.eye(size, dtype=np.complex128)
    found = 0, None, None
    for count, entry in enumerate(key, 1):
        gate = LevelPairGate(*entry) if len(entry) == 4 else TwoQuditCZ(*entry)
        _apply_gate_inplace(m, dims + (size,), gate)
        mag = np.abs(m)
        widest = np.count_nonzero(mag > _SNAP, axis=0).max()
        if widest > _WINDOW_SPREAD:
            break
        if widest > 1:
            continue
        rows = mag.argmax(axis=0)
        if np.all(np.abs(mag[rows, columns] - 1.0) <= MATRIX_TOL) and np.all(
            np.bincount(rows, minlength=size) == 1
        ):
            phase = m[rows, columns]
            near = np.abs(phase[:, None] - _UNITS) <= _SNAP
            phase = np.where(near.any(axis=1), _UNITS[near.argmax(axis=1)], phase)
            digits = np.array(np.unravel_index(columns, dims))
            delta = digits[:, rows] - digits
            found = (
                count,
                delta if delta.any() else None,
                None if np.all(phase == 1) else phase,
            )
    return found


def _move(dims, strides, sites, delta, phase):
    shift = None if delta is None else np.array([strides[s] for s in sites]) @ delta
    reads, weight, k = [], 1, len(sites)
    while k:
        j, span = k - 1, dims[sites[k - 1]]
        while j and sites[j - 1] == sites[j] - 1:
            j -= 1
            span *= dims[sites[j]]
        reads.append((strides[sites[k - 1]], span, weight))
        weight *= span
        k = j
    return _Move(tuple(reads), shift, phase)


def assert_same_steps(steps, reference):
    """The same gates, and moves with equal ``reads``, ``shift`` and
    ``phase``, in the same order."""
    assert len(steps) == len(reference)
    for k, (step, expected) in enumerate(zip(steps, reference)):
        assert type(step) is type(expected), k
        if not isinstance(expected, _Move):
            assert step == expected, k
            continue
        assert step.reads == expected.reads, k
        for name in ("shift", "phase"):
            got, want = getattr(step, name), getattr(expected, name)
            assert (got is None) == (want is None), (k, name)
            if want is not None:
                assert got.dtype == want.dtype and np.array_equal(got, want), (k, name)
