"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, item, pass, tag): ``parent`` is the
index of the item span that caused it (None for an item span itself),
``item`` the item id, ``pass`` the pass number and ``tag`` an optional
label such as a crossing count.  Spans are kept in a list while the run
lasts and written out once at the end.  Counts are recorded per pass at
the same call boundaries.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    """Times calls into the library.  When disabled, ``call`` only runs the
    function, so untraced passes pay one extra Python call per library
    call and nothing else."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: list[dict[str, int]] = []
        self._item: int | None = None
        self._item_id = None
        self._pass = -1

    def begin_pass(self) -> None:
        if self.enabled:
            self._pass += 1
            self.counts.append({})

    def begin_item(self, item_id: str) -> None:
        if self.enabled:
            self._item = len(self.spans)
            self._item_id = item_id
            self.spans.append(["item", perf_counter(), None, None, item_id,
                               self._pass, None])

    def end_item(self) -> None:
        if self.enabled:
            self.spans[self._item][2] = perf_counter()
            self._item = None

    def call(self, name: str, fn, *args, tag=None):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, perf_counter(), self._item,
                               self._item_id, self._pass, tag])

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            c = self.counts[-1]
            c[name] = c.get(name, 0) + n

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item", "pass", "tag")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
