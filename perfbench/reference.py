"""Hand-written references for the recurrences the benchmark runs.

Each closed form is plain Python, written from the `reference` pieces of
the recurrence's `*.expected.json` (fib, size and nested are computed
directly). Preconditions are copied from the `pre` line of each `.rec`
file. Nothing here goes through recsolve's parser or evaluator, so the
benchmark can judge recsolve's outputs against it.
"""
from __future__ import annotations


def _fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _nonneg(x, y):
    return x >= 0 and y >= 0


# name -> (precondition, closed form); both take the arguments in order
CLOSED_FORMS = {
    "merge-sz": (lambda x, y: _nonneg(x, y) and (x > 0 or y > 0),
                 lambda x, y: x + y),
    "merge": (_nonneg, lambda x, y: x + y - 1 if x > 0 and y > 0 else 0),
    "nested": (lambda x: x >= 0, lambda x: x),
    "open-zip": (_nonneg, max),
    "div": (lambda x, y: x >= 0 and y > 0, lambda x, y: x // y),
    "div-ceil": (lambda x, y: x >= 0 and y > 0, lambda x, y: -(-x // y)),
    "s-max": (_nonneg, lambda x, y: x + y),
    "s-max-1": (_nonneg, lambda x, y: 2 * x + y),
    # y^2/2 + 3y/2 = y(y+3)/2, and y(y+3) is always even
    "sum-osc": (_nonneg, lambda x, y: x + y * (y + 3) // 2 if y > 0 else 1),
    "fib": (lambda n: n >= 0, _fib),
    "size": (lambda x: x >= 0, lambda x: x),
}

# recurrences whose guess must fail, with the reason the report must give
EXPECTED_REASONS = {
    "fib": "score-below-threshold",
}
