"""Span-level precision/recall/F1 over predicted vs gold mentions."""

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class TypeScore:
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_pred: int
    n_correct: int


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_pred: int
    n_correct: int
    per_type: dict


def _prf(n_correct, n_pred, n_gold):
    # zero-prediction precision reports 0 rather than NaN
    p = 100.0 * n_correct / n_pred if n_pred else 0.0
    r = 100.0 * n_correct / n_gold if n_gold else 0.0
    f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def score(gold, pred):
    """Score predicted spans against gold spans, sentence by sentence.

    Both arguments are sequences of span collections, aligned one entry
    per sentence.  A prediction counts as correct iff its (start, end,
    type) triple exactly matches a gold span in the same sentence, and
    each gold span can be matched at most once.
    """
    if len(gold) != len(pred):
        raise ValueError(
            "gold has %d sentences but pred has %d" % (len(gold), len(pred)))
    n_gold = n_pred = n_correct = 0
    tallies = {}  # type -> [gold, pred, correct]
    for gs, ps in zip(gold, pred):
        gc = Counter(gs)
        pc = Counter(ps)
        hit = gc & pc
        n_gold += sum(gc.values())
        n_pred += sum(pc.values())
        n_correct += sum(hit.values())
        for span, c in gc.items():
            tallies.setdefault(span.type, [0, 0, 0])[0] += c
        for span, c in pc.items():
            tallies.setdefault(span.type, [0, 0, 0])[1] += c
        for span, c in hit.items():
            tallies[span.type][2] += c
    p, r, f = _prf(n_correct, n_pred, n_gold)
    per_type = {}
    for typ in sorted(tallies):
        tg, tp, tc = tallies[typ]
        q = _prf(tc, tp, tg)
        per_type[typ] = TypeScore(q[0], q[1], q[2], tg, tp, tc)
    return EvalReport(p, r, f, n_gold, n_pred, n_correct, per_type)


def format_table(report):
    """Aligned text table, percentages to two decimals."""
    names = ["ALL"] + sorted(report.per_type)
    width = max(len(n) for n in names)
    lines = ["%-*s %8s %8s %8s %7s %7s %7s"
             % (width, "type", "P", "R", "F1", "gold", "pred", "corr")]

    def row(name, s):
        return "%-*s %8.2f %8.2f %8.2f %7d %7d %7d" % (
            width, name, s.precision, s.recall, s.f1,
            s.n_gold, s.n_pred, s.n_correct)

    lines.append(row("ALL", report))
    for typ in sorted(report.per_type):
        lines.append(row(typ, report.per_type[typ]))
    return "\n".join(lines)


def format_kv(report):
    """Machine-diffable key=value lines with full-precision floats."""
    lines = [
        "n_gold=%d" % report.n_gold,
        "n_pred=%d" % report.n_pred,
        "n_correct=%d" % report.n_correct,
        "precision=%r" % report.precision,
        "recall=%r" % report.recall,
        "f1=%r" % report.f1,
    ]
    for typ in sorted(report.per_type):
        s = report.per_type[typ]
        lines.append("type.%s.n_gold=%d" % (typ, s.n_gold))
        lines.append("type.%s.n_pred=%d" % (typ, s.n_pred))
        lines.append("type.%s.n_correct=%d" % (typ, s.n_correct))
        lines.append("type.%s.precision=%r" % (typ, s.precision))
        lines.append("type.%s.recall=%r" % (typ, s.recall))
        lines.append("type.%s.f1=%r" % (typ, s.f1))
    return "\n".join(lines)
