"""The per-line verification report: the reference presentation.Report is
checked against.

LineReport builds each line from one (family, params, ok) triple at a
time and formats each line with its own f-string; Report takes its lines
as columns and joins them with tabs.  The report tests read this helper;
the package does not.
"""


class LineReport:
    """Report's lines, counts and text, one line at a time."""

    def __init__(self):
        self.lines = []
        self._counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}

    def add(self, family, params, ok):
        status = "PASS" if ok else "FAIL"
        self.lines.append((family, params, status))
        self._counts[status] += 1

    def extend(self, lines):
        """add(family, params, ok) for each (family, params, ok) of lines."""
        for family, params, ok in lines:
            self.add(family, params, ok)

    def skip(self, family, note):
        self.lines.append((family, note, "SKIP"))
        self._counts["SKIP"] += 1

    @property
    def counts(self):
        return dict(self._counts)

    @property
    def all_passed(self):
        return self._counts["FAIL"] == 0

    def format(self, summary=False):
        c = self._counts
        body = [] if summary else [f"{f}\t{p}\t{s}" for f, p, s in self.lines]
        footer = (
            f"# total\t{len(self.lines)}\tpass\t{c['PASS']}"
            f"\tfail\t{c['FAIL']}\tskip\t{c['SKIP']}"
        )
        return "\n".join(body + [footer])
