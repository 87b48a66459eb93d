"""Fixed calibration kernel for measuring the host's current speed.

The benchmark runs this kernel between turns and sessions and scales its
times by how fast the kernel ran, so that a host whose speed shifts while
the benchmark runs (a shared machine under other tenants' load) still gives
steady figures.
The kernel belongs to the benchmark, not to statecoach, so a change to the
package cannot change it.  Its instruction mix follows statecoach's hot
paths: validated small-vector construction and belief arithmetic, distance
scans over unit vectors, and token hashing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_T = _rng.dirichlet(np.ones(3), size=(3, 17))
_O = _rng.dirichlet(np.ones(7), size=3)
_VECS = _rng.normal(size=(48, 256))
_VECS /= np.linalg.norm(_VECS, axis=1, keepdims=True)
_WORDS = tuple(f"token{i}" for i in range(24))
PASSES = 8

# The host speed all reported times are expressed at: the speed at which one
# kernel_seconds() run takes this long.
REFERENCE_KERNEL_S = 0.020


@dataclass(frozen=True)
class _Dist:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("not a distribution")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


def _pass(i: int) -> float:
    acc = 0.0
    q = _Dist(np.array([0.2, 0.3, 0.5]))
    for a in range(17):
        out = np.zeros(3)
        for s in range(3):
            out += q.probs[s] * _T[s, a]
        qn = _Dist(out / out.sum())
        for j in range(7):
            post = qn.probs * _O[:, j]
            post = _Dist(post / post.sum())
            nz = post.probs > 0
            acc += float(-np.sum(post.probs[nz] * np.log(post.probs[nz])))
    qv = _VECS[i % len(_VECS)]
    scored = sorted((float(np.linalg.norm(v - qv)), k) for k, v in enumerate(_VECS))
    acc += scored[1][0]
    for w in _WORDS:
        acc += int(hashlib.md5(w.encode("utf-8")).hexdigest(), 16) % 256
    return acc


def kernel_seconds() -> float:
    """Wall time of one fixed run of the kernel: 18-30 ms on the 2-core
    x86-64 virtual machine it was written on, depending on other tenants'
    load."""
    t0 = perf_counter()
    for i in range(PASSES):
        _pass(i)
    return perf_counter() - t0


class HostClock:
    """Tracks the host's speed through a run by running the kernel after
    every ``every_s`` seconds of measured work.

    ``scale_at(t)`` gives the factor that puts a time measured around
    ``perf_counter()`` value ``t`` at the reference speed, interpolating the
    kernel times linearly between runs.  ``spent_s`` is the wall time the
    kernel itself took, for callers to leave out of their own timings.
    """

    def __init__(self, every_s: float, tracer=None):
        self.every_s = every_s
        self.tracer = tracer
        self.spent_s = 0.0
        self._times: list[float] = []
        self._kernels: list[float] = []
        self._work_s = 0.0
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        if self.tracer is None:
            k = kernel_seconds()
        else:
            k = self.tracer.call("bench.calibrate", kernel_seconds)
        t1 = perf_counter()
        self._times.append((t0 + t1) / 2)
        self._kernels.append(k)
        self.spent_s += t1 - t0
        self._work_s = 0.0

    def worked(self, seconds: float) -> None:
        self._work_s += seconds
        if self._work_s >= self.every_s:
            self.sample()

    def scale_at(self, t):
        return REFERENCE_KERNEL_S / np.interp(t, self._times, self._kernels)
