"""Closed-loop wire client for incdb_serve.

The protocol allows one request in flight per connection, so each
connection sends its next request only after the previous reply's
terminator line ("ok ..." or "error ..."). One event loop in one thread
drives every connection; a query's latency runs from the send of its line
to the arrival of its terminator. Session-state commands (notion, backend,
threshold) are sent only when a query needs a different state than the
connection has; they are not timed and not counted as operations.
"""

import selectors
import socket
import time

from ops import Query, Reply, Write
from common import ingest_line


class ProtocolError(Exception):
    pass


class Conn:
    def __init__(self, port, index, timeout):
        self.index = index
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.state = {}

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    # Blocking helpers for set-up and tear-down commands.
    def read_line(self):
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                line = self.buf[:nl].decode()
                self.buf = self.buf[nl + 1:]
                return line
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ProtocolError("connection %d closed by server"
                                    % self.index)
            self.buf += chunk

    def command(self, line):
        """Sends one request and returns its terminator line; data lines
        are not expected."""
        self.sock.sendall(line.encode() + b"\n")
        reply = self.read_line()
        if not reply.startswith("ok"):
            raise ProtocolError("%r -> %r" % (line, reply))
        return reply


def parse_kv(line):
    out = {}
    for tok in line.split()[1:]:
        if "=" in tok:
            k, v = tok.split("=", 1)
            out[k] = v
    return out


class _Pending:
    """A connection's request in progress: state commands still to send,
    then the operation itself."""

    def __init__(self, op, setup, reply):
        self.op = op
        self.setup = setup  # state commands not yet acknowledged
        self.reply = reply
        self.sent_at = 0.0
        self.in_main = False


def take_response(buf):
    """Splits one complete response (data lines and its terminator) off the
    front of `buf`: (response bytes, rest), or (None, buf) when the
    terminator has not arrived. Data lines start with "| " or "p ", so a
    line starting with "ok" or "error" is the terminator."""
    pos = 0
    while True:
        if buf.startswith(b"ok", pos) or buf.startswith(b"error", pos):
            end = buf.find(b"\n", pos)
            if end < 0:
                return None, buf
            return buf[:end + 1], buf[end + 1:]
        nl = buf.find(b"\n", pos)
        if nl < 0:
            return None, buf
        pos = nl + 1


def parse_response(r, raw):
    """Fills reply `r` from its raw response bytes."""
    r.nbytes = len(raw)
    lines = raw.decode().split("\n")[:-1]
    for line in lines[:-1]:
        if line.startswith("| "):
            r.rows.append(line[2:])
        elif line.startswith("p "):
            head, prob, lo, hi, exact = line[2:].rsplit(" ", 4)
            r.probs.append((head, float(prob), float(lo), float(hi),
                            exact == "1"))
        else:
            raise ProtocolError("unexpected data line %r" % line)
    term = lines[-1]
    if term.startswith("error"):
        r.error = term
        return
    kv = parse_kv(term)
    r.version = int(kv["version"])
    if isinstance(r.op, Query):
        r.hit = kv.get("cache") == "hit"
        if int(kv["rows"]) != len(r.rows):
            raise ProtocolError("rows=%s but %d data lines: %s"
                                % (kv["rows"], len(r.rows), r.op.describe()))


def run_closed_loop(conns, streams, seconds, timeout):
    """Drives every connection through whole rounds of its stream until
    `seconds` have passed; each connection finishes the round it is in.
    During the loop a reply is only framed and timed; it is parsed after
    the loop, so that one connection's large reply does not delay the
    timing of another's.

    Returns (replies, elapsed seconds)."""
    sel = selectors.DefaultSelector()
    rounds = {}
    pending = {}
    raw = []
    seq = {c.index: 0 for c in conns}
    start = time.perf_counter()
    deadline = start + seconds

    def next_op(c):
        q = rounds[c.index]
        if not q:
            if time.perf_counter() >= deadline:
                return None
            q.extend(next(streams[c.index]))
        return q.pop(0)

    def start_op(c):
        op = next_op(c)
        if op is None:
            sel.unregister(c.sock)
            pending.pop(c.index, None)
            return
        setup = []
        if isinstance(op, Query):
            for key, value in op.state:
                if c.state.get(key) != value:
                    setup.append((key, value))
        p = _Pending(op, setup, Reply(op, c.index, seq[c.index]))
        seq[c.index] += 1
        pending[c.index] = p
        send_next(c, p)

    def send_next(c, p):
        if p.setup:
            key, value = p.setup[0]
            c.sock.sendall(("%s %s\n" % (key, value)).encode())
            return
        p.in_main = True
        if isinstance(p.op, Write):
            text = "ingest %d\n" % len(p.op.rows) + "".join(
                ingest_line(rel, row) + "\n" for rel, row in p.op.rows)
        else:
            text = p.op.line + "\n"
        p.sent_at = time.perf_counter()
        c.sock.sendall(text.encode())

    for c in conns:
        rounds[c.index] = []
        c.sock.setblocking(False)
        sel.register(c.sock, selectors.EVENT_READ, c)
    for c in conns:
        start_op(c)
    last_done = start
    while pending:
        events = sel.select(timeout)
        if not events:
            raise ProtocolError("no reply within %.0f s" % timeout)
        for key, _ in events:
            c = key.data
            chunk = c.sock.recv(1 << 20)
            if not chunk:
                raise ProtocolError("connection %d closed by server"
                                    % c.index)
            now = time.perf_counter()
            c.buf += chunk
            while c.index in pending:
                resp, c.buf = take_response(c.buf)
                if resp is None:
                    break
                p = pending[c.index]
                if not p.in_main:
                    if not resp.startswith(b"ok"):
                        raise ProtocolError("state command failed: %r"
                                            % resp)
                    key_, value = p.setup.pop(0)
                    c.state[key_] = value
                    send_next(c, p)
                    continue
                p.reply.latency = now - p.sent_at
                p.reply.done_at = now - start
                raw.append((p.reply, resp))
                last_done = now
                start_op(c)
    sel.close()
    for c in conns:
        c.sock.setblocking(True)
    replies = []
    for r, resp in raw:
        parse_response(r, resp)
        replies.append(r)
    return replies, last_done - start
