"""Span <-> tag codecs for BIO2 and IOBES, tolerant of model output.

Argmax decoding can emit tag sequences that violate the scheme grammar;
tags_to_spans therefore never rejects a grammatical violation. It uses
the same repair reading as the community conlleval scorer, so span-level
scores computed downstream line up with that tool.
"""

from dataclasses import dataclass

BIO2 = "BIO2"
IOBES = "IOBES"
SCHEMES = (BIO2, IOBES)

_PREFIXES = {"B", "I", "O", "E", "S"}


@dataclass(frozen=True, order=True)
class Span:
    start: int
    end: int
    type: str


def split_tag(tag):
    """'B-PER' -> ('B', 'PER'); 'O' -> ('O', None)."""
    if tag == "O":
        return "O", None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in _PREFIXES:
        return tag[0], tag[2:]
    raise ValueError("unknown tag string: %r" % tag)


def make_tagset(types, scheme):
    """Output-layer tag order: 'O' first, then type-major prefix-minor."""
    if scheme not in SCHEMES:
        raise ValueError("unknown scheme: %r" % scheme)
    prefixes = ["B", "I"] if scheme == BIO2 else ["B", "E", "I", "S"]
    tags = ["O"]
    for t in sorted(set(types)):
        for p in prefixes:
            tags.append("%s-%s" % (p, t))
    return tags


def spans_to_tags(spans, n, scheme):
    if scheme not in SCHEMES:
        raise ValueError("unknown scheme: %r" % scheme)
    ordered = sorted(spans)
    for a, b in zip(ordered, ordered[1:]):
        if b.start <= a.end:
            raise ValueError("overlapping spans: %s and %s" % (a, b))
    tags = ["O"] * n
    for sp in ordered:
        if not (0 <= sp.start <= sp.end < n):
            raise ValueError("span %s out of bounds for length %d" % (sp, n))
        if not sp.type:
            raise ValueError("span %s has empty type" % (sp,))
        if scheme == BIO2:
            tags[sp.start] = "B-%s" % sp.type
            for i in range(sp.start + 1, sp.end + 1):
                tags[i] = "I-%s" % sp.type
        else:
            if sp.start == sp.end:
                tags[sp.start] = "S-%s" % sp.type
            else:
                tags[sp.start] = "B-%s" % sp.type
                for i in range(sp.start + 1, sp.end):
                    tags[i] = "I-%s" % sp.type
                tags[sp.end] = "E-%s" % sp.type
    return tags


def _chunk_end(prev_prefix, prev_type, prefix, type_):
    # is the chunk carried by the previous token closed before this one?
    if prev_prefix in ("O", None):
        return False
    if prev_prefix in ("E", "S"):
        return True
    if prefix in ("B", "S", "O"):
        return True
    return prev_type != type_


def _chunk_start(prev_prefix, prev_type, prefix, type_):
    if prefix == "O":
        return False
    if prefix in ("B", "S"):
        return True
    # bare I/E after O, after a closing prefix, or after a different type
    if prev_prefix in ("O", None, "E", "S"):
        return True
    return prev_type != type_


def tags_to_spans(tags):
    """Decode BIO2 or IOBES tags to spans, repairing grammar violations.

    One rule reads both schemes: a continuation tag with no compatible
    open chunk starts one; a chunk stays open until a boundary (type
    change, O, a fresh B/S, or a closing E/S). Unknown tag strings are
    the only error.
    """
    spans = []
    open_start = None
    open_type = None
    prev_prefix, prev_type = None, None
    for i, tag in enumerate(tags):
        prefix, type_ = split_tag(tag)
        if open_start is not None and _chunk_end(prev_prefix, prev_type, prefix, type_):
            spans.append(Span(open_start, i - 1, open_type))
            open_start, open_type = None, None
        if _chunk_start(prev_prefix, prev_type, prefix, type_):
            open_start, open_type = i, type_
        prev_prefix, prev_type = prefix, type_
    if open_start is not None:
        spans.append(Span(open_start, len(tags) - 1, open_type))
    return spans


def detect_scheme(tags):
    """IOBES if any E-/S- prefix occurs, BIO2 otherwise."""
    for tag in tags:
        if tag and tag != "O" and tag[0] in ("E", "S"):
            return IOBES
    return BIO2
