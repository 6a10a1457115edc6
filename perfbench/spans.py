"""In-memory spans around the benchmark's calls into each surfdg layer."""

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans as dicts: id, name, start, end, parent, ladder.

    Spans stay in memory until the run ends; ``parent`` is the id of the
    enclosing span (None at the root) and ``ladder`` is the ladder id
    current when the span opened, so one tracer can hold several ladders.
    """

    def __init__(self, ladder: str):
        self.ladder = ladder
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "ladder": self.ladder, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list) -> float:
    """Duration minus the part of the span's interval that its children
    cover; overlapping children are counted once."""
    covered, reach = 0.0, span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], reach), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return duration(span) - covered


def children_of(spans: list) -> dict:
    kids = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def nesting_errors(spans: list) -> list:
    """Spans that are unfinished, end before they start, leave their
    parent's interval or belong to another ladder than their parent."""
    by_id = {s["id"]: s for s in spans}
    bad = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            bad.append(f"span {s['id']} {s['name']}: bad interval")
            continue
        p = by_id.get(s["parent"])
        if s["parent"] is not None and p is None:
            bad.append(f"span {s['id']} {s['name']}: unknown parent")
        elif p is not None and (p["end"] is None
                                or not p["start"] <= s["start"]
                                or not s["end"] <= p["end"]):
            bad.append(f"span {s['id']} {s['name']}: outside parent "
                       f"{p['id']} {p['name']}")
        elif p is not None and p["ladder"] != s["ladder"]:
            bad.append(f"span {s['id']} {s['name']}: ladder differs from "
                       f"parent's")
    return bad


def totals(spans: list) -> dict:
    """Per span name: summed duration and summed self time."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        t = out.setdefault(s["name"], {"total_s": 0.0, "self_s": 0.0})
        t["total_s"] += duration(s)
        t["self_s"] += self_time(s, kids[s["id"]])
    return out
