"""Deliberate corruption of one served answer, for showing that the
checkers reject it (run.py --corrupt, selftest.py)."""

from collections import Counter


def corrupt(log, mode):
    """Corrupts one reply in place: drops a row ("drop"), adds a row no
    template can return ("extra"), or moves a probability outside its
    interval ("prob"). Prefers a reply that shares its template and
    version with another, so that checkers comparing replies see it.
    Returns the corrupted reply, or None when no reply fits."""
    queries = log.queries()
    seen = Counter((r.op.template, r.version) for r in queries)

    def fits(r):
        if mode == "drop":
            return bool(r.rows)
        if mode == "prob":
            return bool(r.probs)
        return True

    candidates = [r for r in queries if fits(r)]
    if not candidates:
        return None
    shared = [r for r in candidates if seen[(r.op.template, r.version)] > 1]
    r = (shared or candidates)[0]
    if mode == "drop":
        r.rows.pop()
    elif mode == "extra":
        r.rows.append("(987654321)")
    else:
        tup, p, lo, hi, exact = r.probs[0]
        r.probs[0] = (tup, hi + 0.25, lo, hi, exact)
    return r
