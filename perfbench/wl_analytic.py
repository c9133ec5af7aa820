"""`analytic`: a large, mostly complete orders/payments instance.

Ord(o_id, c_id, product, status), Pay(p_id, o_id, amount),
Line(o_id, part), Part(part, cat) -- about 1.2e5 tuples with sparse Codd
nulls (every null occurs once) in Ord.status, Pay.o_id and Line.part.
Queries use the data-linear notions over RA selections, joins, differences
and divisions and SQL with NOT IN / EXISTS / GROUP BY. Their constants are
drawn per request from ranges of thousands of values, so plan-cache lookups
miss. The connection appends a small batch to Ord, Pay and Line every
twelfth round.

The checker evaluates every template itself over the generated and
ingested rows, at the snapshot version the server reports for the answer.
"""

from collections import Counter, defaultdict

from common import (Null, Versioned, dump_instance, fmt_tuple, is_null,
                    rng_for)
from ops import Query, Write

N_ORDERS = 30000
N_CUSTOMERS = 4000
N_PRODUCTS = 400
N_PARTS = 400  # two parts per category
MAX_AMOUNT = 5000
STATUSES = ("open", "paid", "void")
ROUNDS_PER_WRITE = 12


def categories():
    return N_PARTS // 2


def part_cat(part):
    return (part - 1) // 2 + 1


class Analytic:
    name = "analytic"

    def __init__(self, seed):
        self.seed = seed
        rng = rng_for(seed, "analytic", "instance")
        nulls = iter(range(10**9))
        ords, pays, lines = [], [], []
        pid = 1
        for o in range(1, N_ORDERS + 1):
            status = (Null(next(nulls)) if rng.random() < 0.01
                      else rng.choice(STATUSES))
            ords.append((o, rng.randint(1, N_CUSTOMERS),
                         rng.randint(1, N_PRODUCTS), status))
            npay = (rng.random() < 0.8) + (rng.random() < 0.25)
            for _ in range(npay):
                oid = Null(next(nulls)) if rng.random() < 0.01 else o
                pays.append((pid, oid, rng.randint(1, MAX_AMOUNT)))
                pid += 1
            for part in rng.sample(range(1, N_PARTS + 1), rng.randint(1, 3)):
                lines.append((o, Null(next(nulls)) if rng.random() < 0.005
                              else part))
        parts = [(p, part_cat(p)) for p in range(1, N_PARTS + 1)]
        self.schema = [("Ord", ("o_id", "c_id", "product", "status")),
                       ("Pay", ("p_id", "o_id", "amount")),
                       ("Line", ("o_id", "part")),
                       ("Part", ("part", "cat"))]
        self.relations = {"Ord": ords, "Pay": pays, "Line": lines,
                          "Part": parts}
        self.next_null = next(nulls)
        self.next_pid = pid
        # Amounts carried by null-o_id payments: S4 draws from them so that
        # MAYBE answers are not always empty.
        self.null_amounts = sorted({a for (_, o, a) in pays if is_null(o)})
        self.db = Versioned(self.relations)
        self._index()

    def dump(self):
        return dump_instance(self.schema, self.relations)

    def sizes(self):
        return {name: len(rows) for name, rows in self.relations.items()}

    # --- request stream ------------------------------------------------

    def stream(self, conn):
        """Rounds of requests for one connection: one query per template,
        constants drawn per request; connection 0 also writes."""
        rng = rng_for(self.seed, "analytic", "stream", conn)
        writer = rng_for(self.seed, "analytic", "writes")
        next_oid = N_ORDERS + 1
        next_pid = self.next_pid
        next_null = self.next_null
        rnd = 0
        while True:
            rnd += 1
            c = rng.randint(1, N_CUSTOMERS)
            ops = [
                Query("R1_sel", "naive", "query",
                      "proj{0,2}(sel[#1 = %d](Ord))" % c, {"c": c}),
                Query("R2_join", "certain-naive", "query",
                      "proj{0,4}(sel[#0 = #5](sel[#1 = %d](Ord) x Pay))" % c,
                      {"c": c}),
            ]
            c = rng.randint(1, N_CUSTOMERS)
            ops.append(Query("R3_diff", "certain-object", "query",
                             "proj{0}(sel[#1 = %d](Ord)) - proj{1}(Pay)" % c,
                             {"c": c}))
            k = rng.randint(1, categories())
            ops.append(Query("R4_div", "naive", "query",
                             "Line / proj{0}(sel[#1 = %d](Part))" % k,
                             {"k": k}))
            a = rng.randint(1, MAX_AMOUNT)
            x = rng.randint(1, N_ORDERS)
            ops.append(Query("R5_3vl", "3vl", "query",
                             "proj{0}(sel[#2 = %d AND #1 <> %d](Pay))" % (a, x),
                             {"a": a, "x": x}))
            c = rng.randint(1, N_CUSTOMERS)
            a = (rng.randint(1, MAX_AMOUNT) if rng.random() < 0.5
                 else rng.randint(MAX_AMOUNT - 10, MAX_AMOUNT))
            ops.append(Query(
                "S1_notin", "3vl", "sql",
                "SELECT Ord.o_id FROM Ord WHERE Ord.c_id = %d AND Ord.o_id "
                "NOT IN (SELECT Pay.o_id FROM Pay WHERE Pay.amount > %d)"
                % (c, a), {"c": c, "a": a}))
            c = rng.randint(1, N_CUSTOMERS)
            ops.append(Query(
                "S2_exists", "certain-naive", "sql",
                "SELECT Ord.o_id FROM Ord WHERE Ord.c_id = %d AND EXISTS "
                "(SELECT Pay.p_id FROM Pay WHERE Pay.o_id = Ord.o_id)" % c,
                {"c": c}))
            p = rng.randint(1, N_PRODUCTS)
            ops.append(Query(
                "S3_group", "3vl", "sql",
                "SELECT Ord.c_id, COUNT(*) FROM Ord WHERE Ord.product = %d "
                "AND Ord.status = 'open' GROUP BY Ord.c_id" % p, {"p": p}))
            a = (rng.choice(self.null_amounts) if rng.random() < 0.5
                 else rng.randint(1, MAX_AMOUNT))
            x = rng.randint(1, N_ORDERS)
            ops.append(Query(
                "S4_maybe", "maybe", "sql",
                "SELECT Pay.p_id FROM Pay WHERE Pay.o_id = %d AND "
                "Pay.amount = %d" % (x, a), {"a": a, "x": x}))
            # Same-notion queries back to back: fewer session-state round
            # trips, none of them timed.
            ops.sort(key=lambda q: q.notion)
            if conn == 0 and rnd % ROUNDS_PER_WRITE == 0:
                rows = []
                for _ in range(4):
                    o = next_oid
                    next_oid += 1
                    rows.append(("Ord", (o, writer.randint(1, N_CUSTOMERS),
                                         writer.randint(1, N_PRODUCTS),
                                         writer.choice(STATUSES))))
                    if writer.random() < 0.1:
                        oid = Null(next_null)
                        next_null += 1
                    else:
                        oid = o
                    rows.append(("Pay", (next_pid, oid,
                                         writer.randint(1, MAX_AMOUNT))))
                    next_pid += 1
                    rows.append(("Line", (o, writer.randint(1, N_PARTS))))
                ops.append(Write(rows))
            yield ops

    # --- independent answer checker ------------------------------------

    def _index(self):
        r = self.relations
        self.ord_by_c = defaultdict(list)
        self.ord_by_product = defaultdict(list)
        for row in r["Ord"]:
            self.ord_by_c[row[1]].append(row)
            self.ord_by_product[row[2]].append(row)
        self.pay_by_o = defaultdict(list)
        self.pay_by_amount = defaultdict(list)
        self.null_pay_max_amount = 0
        for row in r["Pay"]:
            self.pay_by_o[row[1]].append(row)
            self.pay_by_amount[row[2]].append(row)
            if is_null(row[1]):
                self.null_pay_max_amount = max(self.null_pay_max_amount,
                                               row[2])
        self.line_by_part = defaultdict(set)
        self.line_orders = set()
        for (o, part) in r["Line"]:
            self.line_by_part[part].add(o)
            self.line_orders.add(o)
        self.parts_by_cat = defaultdict(list)
        for (p, cat) in r["Part"]:
            self.parts_by_cat[cat].append(p)

    def expected(self, q, v):
        """The answer of query `q` at snapshot version `v`, as a set of
        printed tuples."""
        d = self.db
        t = q.template
        prm = q.params
        if t in ("R1_sel", "R2_join", "R3_diff", "S1_notin", "S2_exists"):
            orders = [row for row in self.ord_by_c[prm["c"]]] + [
                row for row in d.delta("Ord", v) if row[1] == prm["c"]]
        pay_delta = d.delta("Pay", v)

        def pays_of(o):
            return self.pay_by_o.get(o, []) + [r for r in pay_delta
                                               if r[1] == o]

        if t == "R1_sel":
            return {fmt_tuple((o[0], o[2])) for o in orders}
        if t == "R2_join":
            return {fmt_tuple((o[0], p[0])) for o in orders
                    for p in pays_of(o[0])}
        if t == "R3_diff":
            return {fmt_tuple((o[0],)) for o in orders if not pays_of(o[0])}
        if t == "R4_div":
            parts = self.parts_by_cat[prm["k"]]
            line_delta = d.delta("Line", v)
            sets = []
            for part in parts:
                s = set(self.line_by_part.get(part, ()))
                s.update(o for (o, pp) in line_delta if pp == part)
                sets.append(s)
            result = set.intersection(*sets)
            return {fmt_tuple((o,)) for o in result}
        if t == "R5_3vl":
            rows = self.pay_by_amount.get(prm["a"], []) + [
                r for r in pay_delta if r[2] == prm["a"]]
            return {fmt_tuple((r[0],)) for r in rows
                    if not is_null(r[1]) and r[1] != prm["x"]}
        if t == "S1_notin":
            a = prm["a"]
            sub_has_null = self.null_pay_max_amount > a or any(
                is_null(r[1]) and r[2] > a for r in pay_delta)
            if sub_has_null:
                # 3VL: `o NOT IN S` is unknown, never true, once S holds a
                # null -- the paper's headline anomaly.
                return set()
            return {fmt_tuple((o[0],)) for o in orders
                    if not any(p[2] > a for p in pays_of(o[0]))}
        if t == "S2_exists":
            return {fmt_tuple((o[0],)) for o in orders if pays_of(o[0])}
        if t == "S3_group":
            rows = self.ord_by_product.get(prm["p"], []) + [
                r for r in d.delta("Ord", v) if r[2] == prm["p"]]
            counts = Counter(r[1] for r in rows if r[3] == "open")
            return {fmt_tuple((c, n)) for c, n in counts.items()}
        if t == "S4_maybe":
            rows = self.pay_by_amount.get(prm["a"], []) + [
                r for r in pay_delta if r[2] == prm["a"]]
            return {fmt_tuple((r[0],)) for r in rows if is_null(r[1])}
        raise KeyError(t)

    def check(self, log):
        """Errors for every reply in `log` that differs from the expected
        answer."""
        errors = []
        for rec in log.queries():
            want = self.expected(rec.op, rec.version)
            got = set(rec.rows)
            if got != want or len(rec.rows) != len(got):
                errors.append(describe_mismatch(rec, want))
        return errors


def describe_mismatch(rec, want):
    got = set(rec.rows)
    missing = sorted(want - got)[:3]
    extra = sorted(got - want)[:3]
    return ("%s at version %d: %d rows, expected %d (missing %s, extra %s)"
            % (rec.op.describe(), rec.version, len(rec.rows), len(want),
               missing, extra))
