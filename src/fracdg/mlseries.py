"""The two series of the Mittag-Leffler function E_nu(-s) over arrays of s.

taylor_array sums the Taylor series for 0 < s <= 1 and asym_array the
divergent asymptotic series for s > 1, stopped at its smallest term.
They are the package's one implementation of each series: special's
array evaluator calls them over arrays and its per-point evaluator on
one point; scalar loops over the same terms and stopping tests, in the
tests' oracles, are their reference.  Each point's value and estimate
are the same bits whatever else is in the array.  They sit
apart from special.py because, where bytecode is not cached, each import
compiles every module from source and the largest compile sets the
import's peak memory: with the blocked tails inside it, special.py's
compile grew from 1.3 to 1.8 MB, above every other module's, and so did
the peak of every workflow.
"""

import math

import numpy as np

__all__ = ["taylor_array", "asym_array"]

_EPS = float(np.finfo(float).eps)

# The series loops take one term at a time over every point still summing.
# Once at most _TAIL_POINTS remain, the rest of the terms go in 2-D blocks,
# a row per point and a column per term, _TAIL_BLOCK terms wide and then
# doubling.  Each element takes the 1-D loop's operations, the running sum
# is a cumsum along the row and each point stops at its first column that
# meets the loop's test, so values and estimates keep their bits.  On phi's
# nine scans the two series then make 553 exp calls instead of 1,676 and
# take 23 ms instead of 33 ms (2-vCPU Xeon).  Thresholds of 512 and 1,024
# were no faster and hold larger blocks, 4,096 was slower, and first widths
# of 4 to 16 timed alike.
_TAIL_POINTS = 256
_TAIL_BLOCK = 8


def taylor_array(nu, s):
    # E_nu(-s) = sum_k (-s)^k / Gamma(1+nu k), safe for s <= 1 where the
    # alternating terms never grow much beyond 1.  The arrays hold only the
    # points still summing; a point leaves at the first term below 1e-17 of
    # its sum that is also below the term before it.  The estimate is
    # round-off on the largest term and the sum, plus that last term.
    val, err = np.empty(s.size), np.empty(s.size)
    idx = np.arange(s.size)
    logs = np.log(s)
    acc = np.ones(s.size)
    mx = np.ones(s.size)
    at = np.full(s.size, math.inf)
    for k in range(1, 400):
        if idx.size <= _TAIL_POINTS:
            val[idx], err[idx] = _taylor_tail(nu, k, logs, acc, mx, at)
            return val, err
        t = np.exp(k * logs - math.lgamma(1.0 + nu * k))
        if k % 2:
            t = -t
        acc += t
        prev, at = at, np.abs(t)
        np.maximum(mx, at, out=mx)
        done = (at < 1e-17 * np.abs(acc)) & (at < prev)
        if np.count_nonzero(done):
            out = idx[done]
            val[out] = acc[done]
            err[out] = _EPS * (mx[done] + np.abs(acc[done])) + at[done]
            keep = ~done
            idx, logs, acc, mx, at = idx[keep], logs[keep], acc[keep], mx[keep], at[keep]
    val[idx] = acc
    err[idx] = _EPS * (mx + np.abs(acc)) + at
    return val, err


def asym_array(nu, s):
    # sum_{k>=1} (-1)^{k+1} s^{-k} / Gamma(1-nu k), with
    # 1/Gamma(1-nu k) = Gamma(nu k) sin(pi nu k) / pi, on every point at
    # once.  A point stops before its first term that grows, with that
    # term's predecessor as the estimate, or after a term below 1e-18,
    # which is then the estimate.
    val, err = np.empty(s.size), np.empty(s.size)
    idx = np.arange(s.size)
    logs = np.log(s)
    acc = np.zeros(s.size)
    prev = np.full(s.size, math.inf)
    for k in range(1, 400):
        if idx.size <= _TAIL_POINTS:
            val[idx], err[idx] = _asym_tail(nu, k, logs, acc, prev)
            return val, err
        mag = np.exp(math.lgamma(nu * k) - k * logs) / math.pi
        t = mag * math.sin(math.pi * nu * k)
        if k % 2 == 0:
            t = -t
        grown = mag > prev
        if np.count_nonzero(grown):
            out = idx[grown]
            val[out] = acc[grown]
            err[out] = prev[grown]
            keep = ~grown
            idx, logs, acc, mag, t = idx[keep], logs[keep], acc[keep], mag[keep], t[keep]
        acc += t
        prev = mag
        done = mag < 1e-18
        if np.count_nonzero(done):
            out = idx[done]
            val[out] = acc[done]
            err[out] = mag[done]
            keep = ~done
            idx, logs, acc, prev = idx[keep], logs[keep], acc[keep], prev[keep]
    val[idx] = acc
    err[idx] = math.inf
    return val, err


def _term_blocks(k):
    # term numbers k..399 in consecutive runs of 8, 16, 32, ... terms
    width = _TAIL_BLOCK
    while k < 400:
        yield np.arange(k, min(k + width, 400))
        k += width
        width *= 2


def _taylor_tail(nu, k, logs, acc, mx, at):
    # taylor_array's loop from term k on, for its remaining points
    val, err = np.empty(logs.size), np.empty(logs.size)
    idx = np.arange(logs.size)
    for ks in _term_blocks(k):
        if not idx.size:
            break
        lg = np.array([math.lgamma(1.0 + nu * j) for j in ks.tolist()])
        t = np.exp(ks * logs[:, None] - lg)
        t[:, ks % 2 == 1] *= -1.0
        run = np.cumsum(np.concatenate((acc[:, None], t), axis=1), axis=1)[:, 1:]
        mags = np.abs(t)
        prev = np.concatenate((at[:, None], mags[:, :-1]), axis=1)
        peak = np.maximum.accumulate(np.concatenate((mx[:, None], mags), axis=1),
                                     axis=1)[:, 1:]
        done = (mags < 1e-17 * np.abs(run)) & (mags < prev)
        stop = done.argmax(axis=1)
        rows = np.arange(idx.size)
        hit = done[rows, stop]
        r, c = rows[hit], stop[hit]
        val[idx[hit]] = run[r, c]
        err[idx[hit]] = _EPS * (peak[r, c] + np.abs(run[r, c])) + mags[r, c]
        keep = ~hit
        idx, logs = idx[keep], logs[keep]
        acc, mx, at = run[keep, -1], peak[keep, -1], mags[keep, -1]
    val[idx] = acc
    err[idx] = _EPS * (mx + np.abs(acc)) + at
    return val, err


def _asym_tail(nu, k, logs, acc, prev):
    # asym_array's loop from term k on, for its remaining points
    val, err = np.empty(logs.size), np.empty(logs.size)
    idx = np.arange(logs.size)
    for ks in _term_blocks(k):
        if not idx.size:
            break
        lg = np.array([math.lgamma(nu * j) for j in ks.tolist()])
        sin = np.array([math.sin(math.pi * nu * j) for j in ks.tolist()])
        mag = np.exp(lg - ks * logs[:, None]) / math.pi
        t = mag * sin
        t[:, ks % 2 == 0] *= -1.0
        # run[:, j] is the sum before term ks[j], run[:, j + 1] after it
        run = np.cumsum(np.concatenate((acc[:, None], t), axis=1), axis=1)
        before = np.concatenate((prev[:, None], mag[:, :-1]), axis=1)
        grown = mag > before
        stop = (grown | (mag < 1e-18)).argmax(axis=1)
        rows = np.arange(idx.size)
        hit = grown[rows, stop] | (mag[rows, stop] < 1e-18)
        r, c = rows[hit], stop[hit]
        up = grown[r, c]
        val[idx[hit]] = np.where(up, run[r, c], run[r, c + 1])
        err[idx[hit]] = np.where(up, before[r, c], mag[r, c])
        keep = ~hit
        idx, logs = idx[keep], logs[keep]
        acc, prev = run[keep, -1], mag[keep, -1]
    val[idx] = acc
    err[idx] = math.inf
    return val, err
