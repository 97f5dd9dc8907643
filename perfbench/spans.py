"""Spans and counters recorded around the calls into each polyds module.

A ``Tracer`` replaces module attributes and class methods at the names the
pipeline looks them up through (``assembly.py`` imports its helpers by
name, so ``polyds.assembly.build_ds_element`` must be wrapped rather than
``polyds.serendipity.build_ds_element``).  Each wrapped call appends one
span ``[name, start, end, parent]`` to an in-memory list; counters are
plain dictionary increments.  Leaving the ``with`` block restores every
original, so untraced passes in the same process run the unwrapped code.
"""

from __future__ import annotations

import time
from collections import defaultdict

ROOT = "pass"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def spanned(self, name, fn, on_call=None):
        """``fn`` wrapped in a span; ``on_call(counts, args, result)`` counts work."""
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if on_call is not None:
                on_call(counts, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """``fn`` wrapped so that each call adds one to ``counts[name]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, owner, attribute, make_wrapper):
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        return False

    # -- reduction -------------------------------------------------------

    def times(self):
        """Per span name: (total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0])
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name][0] += end - start
            out[name][1] += end - start - child[i]
        return dict(out)

    def records(self):
        """Spans as JSON-ready dictionaries, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start": start - t0, "end": end - t0, "parent": parent}
            for name, start, end, parent in self.spans
        ]
