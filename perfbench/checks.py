"""Checks made apart from the program: an independent BFP quantizer and the
properties stochastic rounding must have.

The quantizer below is written from the paper's definition (Figure 4), not
from ``repro.core``: per group of ``g`` values along the last axis, the
shared exponent is ``floor(log2(max |x|))`` (exact, via ``math.frexp``);
groups below the ``2**e``-value window anchored at the tensor's largest
exponent are clamped to its bottom; each value becomes
``sign(x) * min(floor(|x| / step + 1/2), 2**m - 1) * step`` with
``step = 2**(E - (m - 1))``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np


def _groups(x: np.ndarray, group_size: int) -> Tuple[np.ndarray, int]:
    x = np.asarray(x)
    rows = x.astype(np.float64).reshape(-1, x.shape[-1] if x.ndim else 1)
    pad = (-rows.shape[1]) % group_size
    if pad:
        rows = np.concatenate([rows, np.zeros((rows.shape[0], pad))], axis=1)
    return rows.reshape(rows.shape[0], -1, group_size), pad


def group_steps(x: np.ndarray, mantissa_bits: int, group_size: int,
                exponent_bits: Optional[int]) -> Tuple[np.ndarray, np.ndarray, int]:
    """(groups, per-group grid step, pad) for the BFP format."""
    groups, pad = _groups(x, group_size)
    peaks = np.abs(groups).max(axis=-1)
    exponents = np.zeros(peaks.shape, dtype=np.int64)
    nonzero = peaks > 0
    for index in zip(*np.nonzero(nonzero)):
        exponents[index] = math.frexp(float(peaks[index]))[1] - 1
    if exponent_bits is not None and nonzero.any():
        bottom = int(exponents[nonzero].max()) - ((1 << exponent_bits) - 1)
        exponents = np.maximum(exponents, bottom)
    steps = np.ldexp(1.0, (exponents - (mantissa_bits - 1)).astype(np.int32))
    steps = np.where(nonzero, steps, 1.0)
    return groups, steps, pad


def _ungroup(values: np.ndarray, pad: int, shape) -> np.ndarray:
    rows = values.reshape(values.shape[0], -1)
    if pad:
        rows = rows[:, :-pad]
    return rows.reshape(shape)


def reference_nearest(x: np.ndarray, mantissa_bits: int, group_size: int,
                      exponent_bits: Optional[int]) -> np.ndarray:
    groups, steps, pad = group_steps(x, mantissa_bits, group_size, exponent_bits)
    scaled = np.abs(groups) / steps[..., None]
    levels = np.minimum(np.floor(scaled + 0.5), (1 << mantissa_bits) - 1)
    values = np.sign(groups) * levels * steps[..., None]
    return _ungroup(values, pad, np.shape(x)).astype(np.asarray(x).dtype)


def check_nearest(x, out, mantissa_bits, group_size, exponent_bits) -> bool:
    expected = reference_nearest(x, mantissa_bits, group_size, exponent_bits)
    return expected.dtype == np.asarray(out).dtype and np.array_equal(expected, out)


def check_stochastic(x, out, mantissa_bits, group_size, exponent_bits) -> bool:
    """Stochastic outputs lie on their group's grid, within one step of x."""
    groups, steps, pad = group_steps(x, mantissa_bits, group_size, exponent_bits)
    out_groups, _ = _groups(np.asarray(out), group_size)
    step = steps[..., None]
    levels = out_groups / step
    on_grid = np.array_equal(levels, np.round(levels))
    in_range = bool(np.all(np.abs(levels) <= (1 << mantissa_bits) - 1))
    near = bool(np.all(np.abs(out_groups - groups) < step))
    same_sign = bool(np.all(out_groups * groups >= 0))
    return on_grid and in_range and near and same_sign
