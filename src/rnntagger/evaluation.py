"""Span-level precision/recall/F1 over predicted vs gold mentions."""

from collections import Counter
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class TypeScore:
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_pred: int
    n_correct: int

    @classmethod
    def of(cls, n_gold, n_pred, n_correct):
        """The score of these counts, as percentages."""
        # zero-prediction precision reports 0 rather than NaN
        p = 100.0 * n_correct / n_pred if n_pred else 0.0
        r = 100.0 * n_correct / n_gold if n_gold else 0.0
        f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(p, r, f, n_gold, n_pred, n_correct)


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_pred: int
    n_correct: int
    per_type: dict


def score(gold, pred):
    """Score predicted spans against gold spans, sentence by sentence.

    Both arguments are sequences of span collections, aligned one entry
    per sentence.  A prediction counts as correct iff its (start, end,
    type) triple exactly matches a gold span in the same sentence, and
    each gold span can be matched at most once.  Each type keeps one
    tally of its gold, predicted and correct spans; the totals are the
    sums of the tallies.
    """
    if len(gold) != len(pred):
        raise ValueError(
            "gold has %d sentences but pred has %d" % (len(gold), len(pred)))
    tallies = {}  # type -> [gold, pred, correct]
    for gs, ps in zip(gold, pred):
        gc, pc = Counter(gs), Counter(ps)
        for column, counts in enumerate((gc, pc, gc & pc)):
            for span, c in counts.items():
                tallies.setdefault(span.type, [0, 0, 0])[column] += c
    per_type = {typ: TypeScore.of(*tallies[typ]) for typ in sorted(tallies)}
    total = TypeScore.of(*(sum(t[k] for t in tallies.values()) for k in range(3)))
    return EvalReport(**asdict(total), per_type=per_type)


def format_table(report):
    """Aligned text table, percentages to two decimals."""
    levels = [("ALL", report)] + sorted(report.per_type.items())
    width = max(len(name) for name, _ in levels)
    lines = ["%-*s %8s %8s %8s %7s %7s %7s"
             % (width, "type", "P", "R", "F1", "gold", "pred", "corr")]
    lines += ["%-*s %8.2f %8.2f %8.2f %7d %7d %7d"
              % (width, name, s.precision, s.recall, s.f1, s.n_gold, s.n_pred, s.n_correct)
              for name, s in levels]
    return "\n".join(lines)


def format_kv(report):
    """Machine-diffable key=value lines with full-precision floats."""
    levels = [("", report)] + [("type.%s." % typ, s)
                               for typ, s in sorted(report.per_type.items())]
    lines = []
    for prefix, s in levels:
        lines += ["%s%s=%d" % (prefix, k, getattr(s, k)) for k in ("n_gold", "n_pred", "n_correct")]
        lines += ["%s%s=%r" % (prefix, k, getattr(s, k)) for k in ("precision", "recall", "f1")]
    return "\n".join(lines)
