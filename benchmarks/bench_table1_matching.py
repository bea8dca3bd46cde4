"""Table I — the worked Smith-Waterman matching instance.

Paper: aligning c_upload = (1, 2, 3, 4, 5) with c_database = (1, 7, 3, 5)
under match +1 / gap −0.3 / mismatch −0.3 yields 3 matches, 1 gap and
1 mismatch for a score of 2.4.
"""

import pytest

from conftest import report
from repro.config import MatchingConfig
from repro.core.matching import batch_smith_waterman
from repro.testkit import oracle_smith_waterman
from repro.eval.reporting import render_table

C_UPLOAD = (1, 2, 3, 4, 5)
C_DATABASE = (1, 7, 3, 5)
PAPER_SCORE = 2.4


def _score(upload, database, config):
    return float(batch_smith_waterman([upload], [database], config)[0])


def test_table1_matching_instance(benchmark):
    score = benchmark(_score, C_UPLOAD, C_DATABASE, MatchingConfig())
    assert score == oracle_smith_waterman(C_UPLOAD, C_DATABASE)

    report(
        "table1_matching",
        render_table(
            ["quantity", "paper", "measured"],
            [
                ["c_upload", str(C_UPLOAD), str(C_UPLOAD)],
                ["c_database", str(C_DATABASE), str(C_DATABASE)],
                ["score", PAPER_SCORE, round(score, 4)],
            ],
            title="Table I — bus stop matching instance",
        ),
    )

    assert score == pytest.approx(PAPER_SCORE)
    # Decomposition: 3 matches (+3.0), 1 gap (−0.3), 1 mismatch (−0.3).
    assert score == pytest.approx(3 * 1.0 - 0.3 - 0.3)
