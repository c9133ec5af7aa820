"""`certain_ctable`: a medium instance with many marked nulls, some shared.

Order(o_id, product), Pay(p_id, order_id, amount). A tenth of the payments
lost their order id to a marked null; 30 distinct nulls, 10 of them shared
by two payments, give |domain|^30 worlds -- far beyond any enumeration
budget. Each round picks one template and one constant and asks for the
certain, possible and probabilistic answer on the c-table backend, plus two
SQL (3VL) lookups of payments. The self-join's payment has a null order id
in one of every eight of its rounds: such a query weighs some 20 times
another, so its share is fixed rather than left to the draw. The
connection ingests three complete payments every fourth round, drawn from
a fixed pool of twelve made only of constants already in the instance, so
the null set, the world domain and, within twelve rows, the instance's
size stay fixed over the run: fresh rows in every batch more than doubled
Pay within a run, and with it the cost of every query.

The checker derives certain and possible answers in closed form from the
generated rows (the world domain holds every constant plus one fresh value
per null, so a null can take any value and distinct nulls can differ from
everything), checks certain <= possible, that the probabilistic answer at
threshold 1 equals the certain answer, that every probability lies in
[0, 1] and inside its own interval, and the exact probabilities of the
difference and selection templates.
"""

from collections import defaultdict

from common import (Null, Versioned, dump_instance, fmt_tuple, is_null,
                    probability_row_errors, rng_for)
from ops import Query, Write

N_ORDERS = 500
N_PRODUCTS = 50
N_PAYMENTS = 400
MAX_AMOUNT = 50
N_NULL_ROWS = 40  # a tenth of the payments
N_DISTINCT_NULLS = 30  # 10 nulls are shared by two payments
ROUNDS_PER_WRITE = 4
WRITE_POOL = 12  # complete payments the writes draw from
NULL_SELFJOIN_EVERY = 8  # self-join rounds per one on a null-order payment
REL_TOL = 1e-5  # the wire prints probabilities with six digits


class CertainCTable:
    name = "certain_ctable"

    def __init__(self, seed):
        self.seed = seed
        rng = rng_for(seed, "certain_ctable", "instance")
        products = [1 + o % N_PRODUCTS for o in range(N_ORDERS)]
        rng.shuffle(products)  # ten orders per product
        orders = list(zip(range(1, N_ORDERS + 1), products))
        # Fixed counts of null occurrences and of distinct nulls, so that
        # the world domain and the per-query work do not vary with the seed.
        null_rows = rng.sample(range(N_PAYMENTS), N_NULL_ROWS)
        nulls = [Null(k) for k in range(N_DISTINCT_NULLS)]
        null_of = {row: nulls[k % N_DISTINCT_NULLS]
                   for k, row in enumerate(null_rows)}
        pays = []
        for i in range(N_PAYMENTS):
            oid = null_of[i] if i in null_of else rng.randint(1, N_ORDERS)
            pays.append((1001 + i, oid, rng.randint(1, MAX_AMOUNT)))
        self.schema = [("Order", ("o_id", "product")),
                       ("Pay", ("p_id", "order_id", "amount"))]
        self.relations = {"Order": orders, "Pay": pays}
        self.db = Versioned(self.relations)
        consts = set()
        for rows in self.relations.values():
            for row in rows:
                consts.update(v for v in row if not is_null(v))
        self.n_nulls = len(nulls)
        # |WorldDomain|: the active domain plus one fresh constant per null.
        # Writes reuse constants, so it is fixed for the run.
        self.domain_size = len(consts) + self.n_nulls
        self.pids = [p[0] for p in pays]
        self.null_pids = [p[0] for p in pays if is_null(p[1])]
        self.const_pids = [p[0] for p in pays if not is_null(p[1])]
        self.amounts = sorted({p[2] for p in pays})
        pool = rng_for(seed, "certain_ctable", "pool")
        self.pool = [(pool.choice(self.pids), pool.randint(1, N_ORDERS),
                      pool.choice(self.amounts)) for _ in range(WRITE_POOL)]

    def dump(self):
        return dump_instance(self.schema, self.relations)

    def sizes(self):
        out = {name: len(rows) for name, rows in self.relations.items()}
        out["distinct_nulls"] = self.n_nulls
        out["domain"] = self.domain_size
        return out

    # --- request stream ------------------------------------------------

    def stream(self, conn):
        rng = rng_for(self.seed, "certain_ctable", "stream", conn)
        writer = rng_for(self.seed, "certain_ctable", "writes")
        rnd = selfjoins = 0
        while True:
            rnd += 1
            t = (rnd + conn) % 4
            if t == 0:
                p = rng.randint(1, N_PRODUCTS)
                tmpl, prm = "T1_join", {"p": p}
                text = "proj{0}(sel[#0 = #3](sel[#1 = %d](Order) x Pay))" % p
            elif t == 1:
                p = rng.randint(1, N_PRODUCTS)
                tmpl, prm = "T2_diff", {"p": p}
                text = "proj{0}(sel[#1 = %d](Order)) - proj{1}(Pay)" % p
            elif t == 2:
                o = rng.randint(1, N_ORDERS)
                tmpl, prm = "T3_sel", {"o": o}
                text = "proj{0,2}(sel[#1 = %d](Pay))" % o
            else:
                selfjoins += 1
                x = rng.choice(self.null_pids
                               if selfjoins % NULL_SELFJOIN_EVERY == 1
                               else self.const_pids)
                tmpl, prm = "T4_selfjoin", {"x": x}
                text = "proj{3}(sel[#1 = #4](sel[#0 = %d](Pay) x Pay))" % x
            ops = [Query(tmpl, notion, "query", text, prm, backend="ctable")
                   for notion in ("certain-enum", "possible",
                                  "certain-probability")]
            for _ in range(2):
                o = rng.randint(1, N_ORDERS)
                ops.append(Query(
                    "S_3vl", "3vl", "sql",
                    "SELECT Pay.p_id FROM Pay WHERE Pay.order_id = %d" % o,
                    {"o": o}))
            if conn == 0 and rnd % ROUNDS_PER_WRITE == 0:
                ops.append(Write([("Pay", writer.choice(self.pool))
                                  for _ in range(3)]))
            yield ops

    # --- closed forms --------------------------------------------------

    def answers(self, q, v):
        """(certain, possible, exact probabilities) of template `q` at
        version `v`; the probability map covers only tuples whose
        probability the checker derives exactly."""
        pays = self.db.rows_at("Pay", v)
        orders = self.db.rows_at("Order", v)
        t, prm = q.template, q.params
        stay = (self.domain_size - 1) / self.domain_size
        if t in ("T1_join", "T2_diff"):
            of_p = {o for (o, p) in orders if p == prm["p"]}
            paid = {r[1] for r in pays if not is_null(r[1])}
            null_ids = {r[1] for r in pays if is_null(r[1])}
            if t == "T1_join":
                certain = of_p & paid
                possible = of_p if null_ids else certain
                return certain, possible, {o: 1.0 for o in certain}
            unpaid = of_p - paid
            certain = set() if null_ids else unpaid
            # o survives the difference iff no null takes the value o.
            probs = {o: stay ** len(null_ids) for o in unpaid}
            return certain, unpaid, probs
        if t == "T3_sel":
            certain = {(r[0], r[2]) for r in pays if r[1] == prm["o"]}
            via_null = defaultdict(set)
            for r in pays:
                if is_null(r[1]):
                    via_null[(r[0], r[2])].add(r[1])
            possible = certain | set(via_null)
            probs = {t_: 1.0 for t_ in certain}
            for t_, ids in via_null.items():
                if t_ not in certain and len(ids) == 1:
                    probs[t_] = 1 / self.domain_size
            return certain, possible, probs
        if t == "T4_selfjoin":
            atoms = defaultdict(set)
            for r in pays:
                atoms[r[0]].add(r[1])
            ax = atoms[prm["x"]]
            certain, possible = set(), set()
            for q_, aq in atoms.items():
                if ax & aq:
                    certain.add(q_)
                    possible.add(q_)
                elif any(is_null(a) for a in ax) or any(is_null(a)
                                                        for a in aq):
                    possible.add(q_)
            return certain, possible, {q_: 1.0 for q_ in certain}
        raise KeyError(t)

    def check(self, log):
        errors = []
        by_query = defaultdict(dict)
        for rec in log.queries():
            q = rec.op
            if q.template == "S_3vl":
                want = {fmt_tuple((r[0],))
                        for r in self.db.rows_at("Pay", rec.version)
                        if r[1] == q.params["o"]}
                if set(rec.rows) != want or len(want) != len(rec.rows):
                    errors.append(mismatch(rec, want))
                continue
            certain, possible, probs = self.answers(q, rec.version)
            fmt = {self._tuple(q, t): t for t in possible}
            got = set(rec.rows)
            if len(got) != len(rec.rows):
                errors.append("duplicate rows: " + q.describe())
            if q.notion == "certain-enum":
                want = {self._tuple(q, t) for t in certain}
                if got != want:
                    errors.append(mismatch(rec, want))
            elif q.notion == "possible":
                want = set(fmt)
                if got != want:
                    errors.append(mismatch(rec, want))
            else:
                errors.extend(self.check_probabilities(rec, fmt, certain,
                                                       probs))
            by_query[(q.text, rec.version)][q.notion] = got
        # Cross-notion checks on answers to the same query at one version.
        for key, ans in by_query.items():
            c, p = ans.get("certain-enum"), ans.get("possible")
            pr = ans.get("certain-probability")
            if c is not None and p is not None and not c <= p:
                errors.append("certain not within possible: %s" % (key,))
            if c is not None and pr is not None and c != pr:
                errors.append("probability-1 answer differs from certain "
                              "answer: %s" % (key,))
        return errors

    def check_probabilities(self, rec, fmt, certain, probs):
        q = rec.op
        errors = probability_row_errors(rec)
        table = {}
        for (tup, p, _, _, exact) in rec.probs:
            table[tup] = p
            if tup not in fmt:
                errors.append("probability row %s is not a possible "
                              "answer: %s" % (tup, q.describe()))
                continue
            want = probs.get(fmt[tup])
            if exact and want is not None and \
                    abs(p - want) > REL_TOL * max(want, 1e-12):
                errors.append("probability of %s is %s, closed form %s: %s"
                              % (tup, p, want, q.describe()))
        for t in certain:
            if table.get(self._tuple(q, t)) != 1.0:
                errors.append("certain %s lacks probability 1: %s"
                              % (self._tuple(q, t), q.describe()))
        got = set(rec.rows)
        want = {tup for tup, p in table.items() if p >= q.threshold}
        if got != want:
            errors.append(mismatch(rec, want))
        return errors

    @staticmethod
    def _tuple(q, t):
        return fmt_tuple(t if isinstance(t, tuple) else (t,))


def mismatch(rec, want):
    got = set(rec.rows)
    return ("%s at version %d: %d rows, expected %d (missing %s, extra %s)"
            % (rec.op.describe(), rec.version, len(rec.rows), len(want),
               sorted(want - got)[:3], sorted(got - want)[:3]))
