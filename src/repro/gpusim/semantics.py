"""Array-access semantics and scalar value rules of the vectorized engines.

The interpreter (:mod:`repro.gpusim.executor`) and the code the JIT
generates (:mod:`repro.gpusim.jit`) both call this module for every
memory operation and every value rule, so the two cannot diverge on
them: byte-identity between the engines holds by construction, and
``--jit verify`` is left checking only the JIT's control-flow lowering.
The scalar reference engine (:mod:`repro.gpusim.reference`) stays
separate on purpose — it is the oracle both are tested against.

Every function takes *evaluated* operands: a value is a Python scalar
or a ``(T,)`` lane vector, ``mask`` is ``None`` (all lanes active) or a
``(T,)`` bool array, and ``kname`` names the kernel in error messages.

* **Indices** are normalised once per access: inactive lanes may read
  anywhere, so under a mask every subscript is clipped into bounds;
  without one, an out-of-bounds subscript raises :class:`ExecutionError`.
* **Stores** write active lanes only.  A plain store to a lane-invariant
  address under a partial mask writes if any lane is active (the
  shared-scalar rule).  Augmented stores (``A[f(i)] op= v``) fold onto
  one shared element with :data:`REDUCE_FOLD`, or update element-wise,
  falling back to duplicate-safe ``ufunc.at`` when lanes collide.
* **Tracing**: :func:`load` and :func:`store` hand the normalised
  indices of every global access to an optional observer (a
  :class:`repro.gpusim.trace.MemoryTrace`), so each access is recorded
  once, after its subscripts were evaluated.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping, Optional, Union

import numpy as np

from repro.errors import ExecutionError, LaunchError

Value = Union[int, float, bool, np.ndarray]

#: the value of a name that was referenced but never bound
UNBOUND = object()

#: one table per operator kind; ``+``/``-``/``*`` stay Python operators,
#: which keep Python scalars Python scalars
BINOPS: Mapping[str, Callable] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": np.true_divide, "//": np.floor_divide, "%": np.mod,
    "min": np.minimum, "max": np.maximum,
    "<": np.less, "<=": np.less_equal, ">": np.greater,
    ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal,
    "&&": np.logical_and, "||": np.logical_or,
    "&": np.bitwise_and, "|": np.bitwise_or, "^": np.bitwise_xor,
    "<<": np.left_shift, ">>": np.right_shift,
}

UNOPS: Mapping[str, Callable] = {
    "-": operator.neg, "!": np.logical_not, "~": np.invert,
}

#: scalar ``x op= v``: the reduction operators, applied as binary ops
AUG_OPS: Mapping[str, Callable] = {op: BINOPS[op]
                                   for op in ("+", "*", "min", "max")}

INTRINSIC_FUNCS: Mapping[str, Callable[..., np.ndarray]] = {
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "pow": np.power,
    "fabs": np.abs, "floor": np.floor, "ceil": np.ceil, "sin": np.sin,
    "cos": np.cos, "tan": np.tan, "rsqrt": lambda x: 1.0 / np.sqrt(x),
    "fmin": np.minimum, "fmax": np.maximum, "round": np.round,
    "sign": np.sign,
}

#: array ``A[...] op= v``: the element-wise update and the fold of many
#: lanes onto one shared element
REDUCE_UFUNC = {"+": np.add, "*": np.multiply,
                "min": np.minimum, "max": np.maximum}
REDUCE_FOLD = {"+": np.sum, "*": np.prod, "min": np.min, "max": np.max}

DTYPES = {"int": np.int64, "float": np.float32, "double": np.float64}


def is_vector(v: Value) -> bool:
    return isinstance(v, np.ndarray) and v.ndim > 0


# -- scalar value rules ---------------------------------------------------

def check_bound(v: Value, name: str, kname: str) -> Value:
    if v is UNBOUND:
        raise ExecutionError(f"kernel {kname!r}: unbound variable {name!r}")
    return v


def aug_old(v: Value, name: str) -> Value:
    """The old value of ``name`` for ``name op= v``."""
    if v is UNBOUND:
        raise ExecutionError(
            f"augmented assignment to unbound scalar {name!r}")
    return v


def scalar_int(v: Value, what: str) -> int:
    """A launch-time integer (a grid bound or step)."""
    if is_vector(v):
        raise LaunchError(f"{what} must be thread-independent")
    return int(v)


def cast(v: Value, dtype: str) -> Value:
    if dtype == "int":
        if not is_vector(v):
            return int(v)
        if v.dtype.kind == "f":
            # inactive lanes may hold NaN/inf; their values are
            # discarded, so cast them to 0 silently
            with np.errstate(invalid="ignore"):
                safe = np.nan_to_num(v, nan=0.0, posinf=0.0, neginf=0.0)
                return np.trunc(safe).astype(np.int64)
        return v.astype(np.int64)
    target = np.float32 if dtype == "float" else np.float64
    return v.astype(target) if is_vector(v) else float(v)


def declare(init: Optional[Value], dtype: str, T: int) -> np.ndarray:
    """A thread-private scalar: always a fresh ``(T,)`` vector."""
    dt = DTYPES.get(dtype, np.float64)
    if init is None:
        return np.zeros(T, dtype=dt)
    if is_vector(init):
        return init.astype(dt, copy=True)
    return np.full(T, init, dtype=dt)


def local_array(shape: tuple[int, ...], dtype: str, T: int) -> np.ndarray:
    """A thread-private array: one row per lane."""
    return np.zeros((T,) + shape, dtype=DTYPES.get(dtype, np.float64))


def masked_scalar(mask: np.ndarray, combined: Value, old: Value,
                  T: int) -> np.ndarray:
    """A scalar assigned under a mask becomes a lane vector that keeps
    its old value (zero if unbound) on the inactive lanes."""
    if old is UNBOUND:
        old_vec = np.zeros(T, dtype=np.asarray(combined).dtype)
    elif is_vector(old):
        old_vec = old
    else:
        old_vec = np.full(T, old)
    return np.where(mask, combined, old_vec)


# -- indices ----------------------------------------------------------------

def _out_of_bounds(kname: str, name: str, d: int, dim: int,
                   where: str) -> ExecutionError:
    return ExecutionError(f"kernel {kname!r}: index {where} out of bounds "
                          f"for {name!r} dim {d} (extent {dim})")


def _vec_idx(val: np.ndarray, dim: int, masked: bool, d: int, name: str,
             kname: str) -> np.ndarray:
    if val.dtype.kind == "f":
        val = val.astype(np.int64)
    if masked:
        return np.clip(val, 0, dim - 1)
    lo, hi = int(val.min(initial=0)), int(val.max(initial=0))
    if lo < 0 or hi >= dim:
        raise _out_of_bounds(kname, name, d, dim, f"{lo}..{hi}")
    return val


def norm_idx(vals, shape: tuple[int, ...], skip: int, masked: bool,
             name: str, kname: str) -> tuple:
    """Clip (masked) or bounds-check (unmasked) evaluated subscripts
    against ``shape[skip:]``."""
    idx = []
    for d, val in enumerate(vals):
        dim = shape[d + skip]
        if is_vector(val):
            idx.append(_vec_idx(val, dim, masked, d, name, kname))
            continue
        ival = int(val)
        if ival < 0 or ival >= dim:
            if not masked:
                raise _out_of_bounds(kname, name, d, dim, str(ival))
            ival = min(max(ival, 0), dim - 1)
        idx.append(ival)
    return tuple(idx)


def _array(arrays: Mapping[str, np.ndarray], name: str, nidx: int,
           kname: str) -> np.ndarray:
    try:
        arr = arrays[name]
    except KeyError:
        raise ExecutionError(
            f"kernel {kname!r}: unknown array {name!r}") from None
    if arr.ndim != nidx:
        raise ExecutionError(f"kernel {kname!r}: {name!r} has {arr.ndim} "
                             f"dims, subscripted with {nidx}")
    return arr


def _select(v: Value, mask: np.ndarray, T: int) -> np.ndarray:
    """The active lanes' values of ``v`` (broadcast if lane-invariant)."""
    return v[mask] if is_vector(v) else np.broadcast_to(v, (T,))[mask]


def _scatter(arr: np.ndarray, idx: tuple, value: Value, op: str) -> None:
    """Element-wise ``arr[idx] op= value``; ``ufunc.at`` when the
    subscript is not injective in the lane index."""
    ufunc = REDUCE_UFUNC[op]
    flat = (np.ravel_multi_index(tuple(np.broadcast_arrays(*idx)), arr.shape)
            if len(idx) > 1 else np.asarray(idx[0]))
    if flat.size and np.unique(flat).size == flat.size:
        arr[idx] = ufunc(arr[idx], value)
    else:
        ufunc.at(arr, idx, value)


# -- loads and stores -----------------------------------------------------

def load(arrays, name: str, idx_vals, mask, T: int, kname: str,
         trace=None) -> Value:
    arr = _array(arrays, name, len(idx_vals), kname)
    idx = norm_idx(idx_vals, arr.shape, 0, mask is not None, name, kname)
    if trace is not None:
        trace.access(name, False, idx, arr.shape, mask, T)
    return arr[idx]


def load_local(arr: np.ndarray, idx_vals, mask, T: int, name: str,
               kname: str) -> np.ndarray:
    idx = norm_idx(idx_vals, arr.shape, 1, mask is not None, name, kname)
    return arr[(np.arange(T, dtype=np.int64),) + idx]


def store(arrays, name: str, idx_vals, value: Value, op: Optional[str],
          mask, T: int, kname: str, trace=None) -> None:
    arr = _array(arrays, name, len(idx_vals), kname)
    idx = norm_idx(idx_vals, arr.shape, 0, mask is not None, name, kname)
    if trace is not None:
        trace.access(name, True, idx, arr.shape, mask, T)
    vector_idx = any(is_vector(i) for i in idx)
    if op is not None and not is_vector(value) and not vector_idx:
        # reduction of a lane-invariant value onto one shared slot:
        # every (active) lane contributes once (``delta[t] += 1``)
        value = np.broadcast_to(value, (T,))
    if mask is not None and (vector_idx or is_vector(value)):
        idx = tuple(_select(i, mask, T) for i in idx)
        value = _select(value, mask, T)
        vector_idx = True
    elif mask is not None and not mask.any():
        return
    if op is None:
        arr[idx] = value
    elif not vector_idx:
        # single shared element updated by all lanes: fold first
        folded = REDUCE_FOLD[op](value) if is_vector(value) else value
        arr[idx] = REDUCE_UFUNC[op](arr[idx], folded)
    else:
        _scatter(arr, idx, value, op)


def store_local(arr: np.ndarray, idx_vals, value: Value, op: Optional[str],
                mask, T: int, name: str, kname: str) -> None:
    idx = norm_idx(idx_vals, arr.shape, 1, mask is not None, name, kname)
    lane = np.arange(T, dtype=np.int64)
    if mask is not None:
        lane = lane[mask]
        idx = tuple(i[mask] if is_vector(i) else i for i in idx)
        value = value[mask] if is_vector(value) else value
    full = (lane,) + idx
    if op is None:
        arr[full] = value
    else:
        # one store per lane: no collisions within a lane's row
        REDUCE_UFUNC[op].at(arr, full, value)


# -- 1-D fast paths (the JIT picks them when the subscript is statically a
# lane vector; they skip the per-dimension loop of the general paths)

def load1v(arrays, name: str, i0: np.ndarray, mask, kname: str) -> Value:
    arr = _array(arrays, name, 1, kname)
    return arr[_vec_idx(i0, arr.shape[0], mask is not None, 0, name, kname)]


def store1v(arrays, name: str, i0: np.ndarray, value: Value, mask, T: int,
            kname: str) -> None:
    arr = _array(arrays, name, 1, kname)
    i0 = _vec_idx(i0, arr.shape[0], mask is not None, 0, name, kname)
    if mask is not None:
        i0, value = i0[mask], _select(value, mask, T)
    arr[i0] = value


def store1v_red(arrays, name: str, i0: np.ndarray, value: Value, op: str,
                mask, T: int, kname: str) -> None:
    arr = _array(arrays, name, 1, kname)
    i0 = _vec_idx(i0, arr.shape[0], mask is not None, 0, name, kname)
    if mask is not None:
        i0, value = i0[mask], _select(value, mask, T)
    elif not is_vector(value):
        value = np.broadcast_to(value, (T,))
    _scatter(arr, (i0,), value, op)
