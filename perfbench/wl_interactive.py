"""`interactive`: a small instance whose world space fits the server's world
budget, queried by a skewed repetition of a fixed set of templates.

Order(o_id, product), Pay(p_id, order_id, amount) with three distinct
marked nulls in Pay.order_id, one of them shared by two payments. Fifteen
templates cover all eight notions, the world-quantified ones on both
backends. Every round of a connection holds the templates in Zipf(1.1)
proportions (13 of the most popular, 1 of each of the last eight; 40
queries), so most answers come from the plan cache. The connection
ingests one payment after each half of its round, drawn from a fixed pool
of rows made of constants already in the instance: the null set and the
world domain never change, every enumeration stays inside the budget, and
each write invalidates the world-quantified entries.

Checks: the enumeration and c-table backends agree at the same snapshot
version, a cache hit equals a fresh miss at the same version, and (for
every workload) versions never decrease on a connection.
"""

from collections import defaultdict

from common import (Null, Versioned, dump_instance, probability_row_errors,
                    rng_for)
from ops import Query, Write

ZIPF_S = 1.1
ROUND_QUERIES = 40
REL_TOL = 1e-5  # the wire prints probabilities with six digits

JOIN = "proj{1}(sel[#0 = #3](Order x Pay))"
DIFF = "proj{0}(Order) - proj{1}(Pay)"


class Interactive:
    name = "interactive"

    def __init__(self, seed):
        self.seed = seed
        rng = rng_for(seed, "interactive", "instance")
        o_ids = list(range(1, 5))
        products = [11, 12]
        p_ids = list(range(21, 26))
        amounts = [31, 32, 33]
        # Every candidate constant occurs, so the world domain has the same
        # size (17 values, 17^3 worlds) under every seed.
        prods = products * (len(o_ids) // len(products))
        rng.shuffle(prods)
        orders = list(zip(o_ids, prods))
        amts = amounts + [rng.choice(amounts)
                          for _ in range(len(p_ids) - len(amounts))]
        rng.shuffle(amts)
        null_rows = rng.sample(range(len(p_ids)), 4)
        null_of = {null_rows[0]: 0, null_rows[1]: 1, null_rows[2]: 2,
                   null_rows[3]: 0}  # _0 is shared by two payments
        pays = []
        for i, p in enumerate(p_ids):
            oid = Null(null_of[i]) if i in null_of else rng.choice(o_ids)
            pays.append((p, oid, amts[i]))
        self.schema = [("Order", ("o_id", "product")),
                       ("Pay", ("p_id", "order_id", "amount"))]
        self.relations = {"Order": orders, "Pay": pays}
        self.db = Versioned(self.relations)
        self.pool = [(rng.choice(p_ids), rng.choice(o_ids),
                      rng.choice(amounts)) for _ in range(10)]
        a = rng.choice(amounts)
        o = rng.choice(o_ids)
        sel = "proj{0,2}(sel[#1 = %d](Pay))" % o
        t = []
        for notion, kind, text, backend in (
                ("naive", "query", "proj{1}(Order)", "enumeration"),
                ("certain-enum", "query", JOIN, "ctable"),
                ("3vl", "sql", "SELECT p_id FROM Pay WHERE amount > %d" % a,
                 "enumeration"),
                ("possible", "query", JOIN, "enumeration"),
                ("certain-enum", "query", JOIN, "enumeration"),
                ("possible", "query", JOIN, "ctable"),
                ("certain-naive", "query", JOIN, "enumeration"),
                ("certain-probability", "query", JOIN, "enumeration"),
                ("certain-probability", "query", JOIN, "ctable"),
                ("maybe", "sql", "SELECT p_id FROM Pay WHERE order_id = %d"
                 % o, "enumeration"),
                ("certain-object", "query", DIFF, "enumeration"),
                ("certain-enum", "query", DIFF, "enumeration"),
                ("certain-enum", "query", DIFF, "ctable"),
                ("possible", "query", sel, "enumeration"),
                ("possible", "query", sel, "ctable")):
            t.append(Query("I%02d" % len(t), notion, kind, text, {},
                           backend=backend,
                           threshold=0.5 if notion == "certain-probability"
                           else 1.0))
        self.templates = t
        # Zipf(1.1) counts per round of ROUND_QUERIES, at least one each.
        weights = [1.0 / (i + 1) ** ZIPF_S for i in range(len(t))]
        counts = [max(1, round(ROUND_QUERIES * w / sum(weights)))
                  for w in weights]
        self.round = [tmpl for tmpl, n in zip(t, counts) for _ in range(n)]

    def dump(self):
        return dump_instance(self.schema, self.relations)

    def sizes(self):
        out = {name: len(rows) for name, rows in self.relations.items()}
        out["distinct_nulls"] = 3
        out["templates"] = len(self.templates)
        return out

    def stream(self, conn):
        """Each round is the same Zipf-weighted multiset of templates,
        grouped by session state so that the connection switches notion or
        backend once per group rather than before most queries, with a
        write after each half of the round."""
        writer = rng_for(self.seed, "interactive", "writes")
        ops = sorted(self.round, key=lambda q: q.state)
        half = len(ops) // 2
        while True:
            yield (ops[:half] + [Write([("Pay", writer.choice(self.pool))])]
                   + ops[half:] + [Write([("Pay", writer.choice(self.pool))])])

    def check(self, log):
        errors = []
        answers = {}
        by_version = defaultdict(dict)
        for rec in log.queries():
            q = rec.op
            errors.extend(probability_row_errors(rec))
            ans = (tuple(rec.rows), tuple(rec.probs))
            key = (q.template, rec.version)
            if key in answers and answers[key] != ans:
                errors.append("%s at version %d: %s answer differs from an "
                              "earlier one at the same version"
                              % (q.describe(), rec.version,
                                 "cached" if rec.hit else "fresh"))
            answers[key] = ans
            by_version[(q.notion, q.text, q.threshold, rec.version)][
                q.backend] = (rec, ans)
        for key, pair in by_version.items():
            if len(pair) != 2:
                continue
            (r1, a1), (r2, a2) = pair.values()
            if a1[0] != a2[0] or not same_probs(a1[1], a2[1]):
                errors.append("backends disagree on %s at version %d"
                              % (r1.op.describe(), r1.version))
        return errors


def same_probs(p1, p2):
    if len(p1) != len(p2):
        return False
    for (t1, v1, lo1, hi1, e1), (t2, v2, lo2, hi2, e2) in zip(p1, p2):
        if t1 != t2 or e1 != e2:
            return False
        for x, y in ((v1, v2), (lo1, lo2), (hi1, hi2)):
            if abs(x - y) > REL_TOL * max(abs(x), abs(y), 1e-12):
                return False
    return True
