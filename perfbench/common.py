"""Values, the io.h dump format, and versioned instances shared by the
workload modules.

Values are Python ints, strs, or Null(k) (the marked null _k). Tuples are
printed exactly as the server's Tuple::ToString prints them, so answers can
be compared as sets of strings.
"""

import random


class Null:
    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __eq__(self, other):
        return isinstance(other, Null) and other.k == self.k

    def __hash__(self):
        return hash(("null", self.k))

    def __repr__(self):
        return "_%d" % self.k


def is_null(v):
    return isinstance(v, Null)


def fmt_value(v):
    if isinstance(v, Null):
        return "_%d" % v.k
    if isinstance(v, str):
        return "'" + v + "'"
    return str(v)


def fmt_tuple(t):
    return "(" + ", ".join(fmt_value(v) for v in t) + ")"


def dump_value(v):
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return fmt_value(v)


def dump_instance(schema, relations):
    """io.h dump text: `table R(a, b)` headers followed by value rows."""
    out = ["# incdb dump (perfbench)"]
    for name, attrs in schema:
        out.append("table %s(%s)" % (name, ", ".join(attrs)))
        for row in relations[name]:
            out.append(", ".join(dump_value(v) for v in row))
        out.append("")
    return "\n".join(out) + "\n"


def ingest_line(rel, row):
    """One row of an `ingest N` batch (values space-separated)."""
    for v in row:
        if isinstance(v, str) and (" " in v or "'" in v):
            raise ValueError("ingest strings must be single tokens: %r" % v)
    return rel + " " + " ".join(fmt_value(v) for v in row)


def rng_for(seed, *salt):
    """A PRNG stream that is a pure function of the seed and a salt."""
    return random.Random("%d/%s" % (seed, "/".join(str(s) for s in salt)))


class Versioned:
    """Base relations plus the rows each published version appended.

    Only one connection writes, so every ingest reply names the version it
    published; rows_at(rel, v) is the relation as version v saw it.
    """

    def __init__(self, relations):
        self.base = relations
        self.added = []  # (version, rel, row), in publish order

    def record_write(self, version, rows):
        for rel, row in rows:
            self.added.append((version, rel, row))

    def delta(self, rel, version):
        return [row for (v, r, row) in self.added if r == rel and v <= version]

    def rows_at(self, rel, version):
        return list(self.base[rel]) + self.delta(rel, version)


def probability_row_errors(rec):
    """Every probability lies in [0, 1] and inside its own interval; an
    exact one has the degenerate interval [p, p]."""
    errors = []
    for (tup, p, lo, hi, exact) in rec.probs:
        if not 0.0 <= lo <= p <= hi <= 1.0:
            errors.append("probability %s of %s outside [0, 1] or its "
                          "interval [%s, %s]: %s"
                          % (p, tup, lo, hi, rec.op.describe()))
        elif exact and not lo == p == hi:
            errors.append("exact probability %s of %s with interval "
                          "[%s, %s]: %s" % (p, tup, lo, hi,
                                            rec.op.describe()))
    return errors
