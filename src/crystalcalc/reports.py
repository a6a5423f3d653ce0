"""Check reports shared by the verification operations and the CLI.

A report is a flat, deterministic key/value structure; rendering sorts
result lines so identical inputs produce byte-identical files.
"""

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    name: str
    passed: bool
    inconclusive: bool = False
    witness: str = ""
    details: dict = field(default_factory=dict)

    def status(self) -> str:
        """fail outranks inconclusive, which outranks pass."""
        if not self.passed:
            return "fail"
        return "inconclusive" if self.inconclusive else "pass"

    def lines(self):
        out = [f"check: {self.name}", f"status: {self.status()}"]
        if self.witness:
            out.append(f"witness: {self.witness}")
        for k in sorted(self.details):
            v = self.details[k]
            if isinstance(v, (list, tuple)):
                v = " ".join(str(x) for x in v)
            out.append(f"  {k}: {v}")
        return out


def merge_reports(name, reports):
    """One report over several: the status is the worst of theirs, and the
    witness is that of the first failed report, or if none failed, of the
    first inconclusive one."""
    passed = all(r.passed for r in reports)
    inconclusive = any(r.inconclusive for r in reports)
    worst = [r for r in reports if not r.passed] or \
        [r for r in reports if r.inconclusive]
    witness = next((r.witness for r in worst if r.witness), "")
    details = {}
    for i, r in enumerate(reports):
        details[f"{i:03d}:{r.name}"] = r.status()
    return CheckReport(name, passed, inconclusive, witness, details)
