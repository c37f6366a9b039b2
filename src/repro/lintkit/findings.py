"""The findings data model shared by the engine, the rules and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative_int

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Ordering is (path, line, col, rule_id) so that sorted findings read like
    compiler output; ``format()`` renders the conventional
    ``file:line:col: RULE message`` shape that editors and CI annotate.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def __post_init__(self) -> None:
        check_non_negative_int(self.line, "line")
        check_non_negative_int(self.col, "col")

    def format(self) -> str:
        """Render as ``path:line:col: RULE-ID message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
