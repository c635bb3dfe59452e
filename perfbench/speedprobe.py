"""The machine's speed, sampled while the work runs, to take its drift out of a time.

On a shared host the speed of a core drifts by a factor of up to two,
within seconds and over minutes, and CPU time drifts with wall time, so
the same work reads a different time from one minute to the next.  A
SpeedProbe interrupts the work every INTERVAL_S seconds (SIGALRM, handled
in the main thread between bytecodes) and times reference(), a fixed piece
of pure-Python work of the kind autfb does: substituting short and long
word images into words, free reduction, small objects hashed into a dict.
Each stretch of work between two probes is scaled by how slow the
reference ran right after it:

    reference seconds = sum over stretches of  work_s * REF_NOMINAL_S / ref_s

REF_NOMINAL_S is the reference's time on a 2-core Xeon VM at its fastest,
so reference seconds read close to wall seconds there.  On that VM this
took the spread (interquartile range over median) of repeated children on
the same inputs from 0.2-0.27 in wall time to 0.015-0.04.  The probe's own
time is not counted in the work.  Nothing here imports autfb, so a change
to autfb cannot change the reference.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.1
REF_NOMINAL_S = 0.0036


class _Word:
    __slots__ = ("sig", "letters")

    def __init__(self, sig, letters):
        self.sig = sig
        self.letters = letters

    def __hash__(self):
        return hash((self.sig, self.letters))

    def __eq__(self, other):
        return self.sig == other.sig and self.letters == other.letters


_LETTERS = (1, 2, 3, -1, -2, -3)
# Short images, as elementary automorphisms have, and long ones, as
# composites in the cochain rounds have.
_SHORT = [
    _Word((1, 1, 1), tuple(((i * 7 + j) % 9 + 1) * (1 if (i + j) % 3 else -1) for j in range(3 + i % 6)))
    for i in range(9)
]
_LONG = [
    _Word((1, 1, 1), tuple(_LETTERS[(j * j + 5 * k * j + k) % 6] for j in range(24 + 16 * k)))
    for k in range(3)
]


def _reduce_into(out, letters):
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)


def _substitute(images, rounds, prefix):
    """Substitute images into the first prefix letters of each image, reduce,
    and count the distinct results in a dict."""
    seen = {}
    acc = 0
    for i in range(rounds):
        u = images[i % len(images)]
        out = []
        for c in u.letters[:prefix]:
            img = images[abs(c) - 1].letters
            if c < 0:
                img = tuple(-d for d in reversed(img))
            _reduce_into(out, img)
        w = _Word(u.sig, tuple(out))
        seen[w] = seen.get(w, 0) + 1
        acc += len(w.letters)
    return acc + len(seen)


def reference():
    """The fixed work whose time gives the machine's speed."""
    return _substitute(_SHORT, 300, 8) + _substitute(_LONG, 40, 12)


def time_reference():
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def scaled(stretches):
    """Reference seconds of [(work_s, ref_s), ...].

    The speed changes within a second, so each stretch is scaled by the
    reference timed right after it; smoothing the references over
    neighbouring stretches gave a wider spread.
    """
    return sum(work * REF_NOMINAL_S / ref for work, ref in stretches)


class SpeedProbe:
    """Context manager: collects (work_s, ref_s) stretches of the code it encloses."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.stretches = []
        self._mark = 0.0
        self._previous = None

    def _probe(self):
        work = time.perf_counter() - self._mark
        self.stretches.append((work, time_reference()))
        self._mark = time.perf_counter()

    def _on_alarm(self, signum, frame):
        self._probe()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._probe()
        signal.signal(signal.SIGALRM, self._previous)
        return False
