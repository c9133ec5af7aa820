"""Requests a workload stream yields and the replies a run records."""


class Query:
    """One timed query request plus the session state it needs."""

    __slots__ = ("template", "notion", "kind", "text", "params", "backend",
                 "threshold")

    def __init__(self, template, notion, kind, text, params,
                 backend="enumeration", threshold=1.0):
        self.template = template
        self.notion = notion
        self.kind = kind  # "query" (RA) or "sql"
        self.text = text
        self.params = params
        self.backend = backend
        self.threshold = threshold

    @property
    def state(self):
        return (("notion", self.notion), ("backend", self.backend),
                ("threshold", repr(self.threshold)))

    @property
    def line(self):
        return self.kind + " " + self.text

    @property
    def kind_name(self):
        """Per-kind counter key: the notion, with the backend for the
        world-quantified notions."""
        if self.notion in ("certain-enum", "possible", "certain-probability"):
            return "%s/%s" % (self.notion, self.backend)
        return self.notion

    def describe(self):
        return "%s [%s/%s] %s" % (self.template, self.notion, self.backend,
                                  self.line)


class Write:
    """One `ingest N` batch: a list of (relation, tuple)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


class Reply:
    """What the server answered to one request."""

    __slots__ = ("op", "conn", "seq", "version", "rows", "probs", "hit",
                 "latency", "done_at", "nbytes", "error")

    def __init__(self, op, conn, seq):
        self.op = op
        self.conn = conn
        self.seq = seq  # completion order on this connection
        self.version = 0
        self.rows = []  # printed tuples, "| " stripped
        self.probs = []  # (tuple, probability, ci_low, ci_high, exact)
        self.hit = False
        self.latency = 0.0
        self.done_at = 0.0  # seconds from the start of the closed loop
        self.nbytes = 0
        self.error = None


class Log:
    """Every reply of one run, in completion order per connection."""

    def __init__(self):
        self.replies = []

    def queries(self):
        return [r for r in self.replies
                if isinstance(r.op, Query) and r.error is None]

    def writes(self):
        return [r for r in self.replies
                if isinstance(r.op, Write) and r.error is None]
