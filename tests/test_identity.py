"""The identity digest of tools/identity.py, on a fast subset of its cases."""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import identity  # noqa: E402

SUBSET = {"golden_n50", "turret_n20", "mixed_n20", "offset_pair_n100"}


@pytest.fixture(scope="module")
def digests():
    return [identity.digest(only=SUBSET, verify_lines=identity.VERIFY_LINES[:2]) for _ in range(2)]


def test_two_runs_give_identical_digests(digests):
    first, second = digests
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert set(first["plans"]) == SUBSET
    assert all(record["converged"] for record in first["plans"].values())
    assert first["verify"]["--samples 20"]["stdout"].endswith("total disagreements: 0\n")
    assert first["verify"]["--samples 20 --corrupt-rho 0.01"]["exit"] == 1
    for kind in ("pursuit", "turret"):  # near the boundary, some poses engage and some do not
        assert 0 < first["windows"][kind]["engaged"] < len(identity.WINDOW_MUS) * identity.WINDOW_POSES


def test_diff_of_a_digest_against_itself_is_empty(digests, tmp_path, capsys):
    path = tmp_path / "digest.json"
    path.write_text(json.dumps(digests[0]))
    assert identity.diff(digests[0], digests[1]) == []
    assert identity.main(["--diff", str(path), str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_diff_reports_a_moved_case_and_verify_line(digests):
    before = digests[0]
    after = copy.deepcopy(before)
    record = after["plans"]["golden_n50"]
    record["t_f"] = repr(float(record["t_f"]) * (1 + 1e-9))
    record["iterations"] += 2
    after["verify"]["--samples 20"]["exit"] = 1
    lines = identity.diff(before, after)
    rows = [line for line in lines if line.startswith("| golden_n50 ")]
    assert len(rows) == 1
    assert "| +1e-09 |" in rows[0] and "(+2)" in rows[0] and rows[0].endswith("| iterations, t_f |")
    assert sum(line.startswith("verify --samples 20:") for line in lines) == 1
    assert not any("turret_n20" in line for line in lines)


def test_diff_reports_a_moved_window(digests, monkeypatch):
    # one pursuit window starts one grid step later: the pursuit record moves, the turret's does not
    windows = identity.WINDOWS["pursuit"]

    def moved(points, headings, threat):
        got = windows(points, headings, threat)
        if threat.mu == identity.WINDOW_MUS[0]:
            k = next(k for k, w in enumerate(got) if w is not None)
            got[k] = (got[k][0] + 1e-3, got[k][1])
        return got

    monkeypatch.setitem(identity.WINDOWS, "pursuit", moved)
    after = dict(digests[0], windows=identity.window_record())
    lines = identity.diff(digests[0], after)
    assert len(lines) == 1 and lines[0].startswith("windows pursuit: ")
    assert after["windows"]["pursuit"]["poses_sha256"] == digests[0]["windows"]["pursuit"]["poses_sha256"]


def test_case_list_covers_both_seeds_and_rejects_unknown_names(tmp_path):
    named = identity.cases(tmp_path)
    assert {"golden_n400", "turret_n200", "mixed_n200", "offset_pair_n100", "golden.json"} <= set(named)
    assert sum(name.startswith("seeded_") for name in named) == 10 * len(identity.SEEDS)
    with pytest.raises(ValueError, match="unknown cases"):
        identity.digest(only={"no_such_case"}, verify_lines=())
