"""Command line: parsing, suites, exit codes, JSON round trips."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mzvkit import posets
from mzvkit.cli import _exact, build_cases, main, make_parser, parse_index, run_suite
from mzvkit.indexes import IndexCombo
from mzvkit.linear import Combo
from mzvkit.reports import ExactCheck, Report
from mzvkit.tseries import WordSeries
from mzvkit.words import NcPoly, word_of_index


def test_parse_index_examples():
    assert parse_index("1,2") == (1, 2)
    assert parse_index("") == ()
    assert parse_index(" 3 , 4 ") == (3, 4)
    with pytest.raises(ValueError, match="token 2"):
        parse_index("2,0")
    with pytest.raises(ValueError, match="token 1"):
        parse_index("x")


def _args(argv):
    ap = make_parser()
    args = ap.parse_args(argv)
    if args.index is not None:
        args.index = parse_index(args.index)
    return args


def test_run_suite_passes_and_exit_zero(capsys):
    rc = main(
        ["--suite", "second-main", "--max-weight", "3", "--t-order", "1", "--jobs", "1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("pass") == 7  # indices of weight <= 3


def test_json_lines_round_trip(capsys):
    rc = main(
        [
            "--suite",
            "second-main",
            "--max-weight",
            "2",
            "--t-order",
            "1",
            "--json",
            "--jobs",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines
    for line in lines:
        obj = json.loads(line)
        assert obj["pass"]
        assert set(obj) >= {"identity", "index", "order", "residuals", "tolerance", "pass", "elapsed_ms"}


def test_single_index_mode(capsys):
    rc = main(["--suite", "second-main", "--index", "1,2", "--t-order", "1", "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("(1,2)") == 1 and out.count("pass") == 1


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "nope"])
    assert exc.value.code == 2


def test_bad_index_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "second-main", "--index", "2,0"])
    assert exc.value.code == 2


def test_bad_weight_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "second-main", "--max-weight", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--jobs", "0"],
        ["--jobs", "-3"],
        ["--cases", "0"],
        ["--cases", "-5"],
        ["--cutoff-N", "1"],
        ["--tol", "0"],
        ["--tol", "nan"],
        ["--tol", "inf"],
    ],
)
def test_bad_values_exit_2_before_any_work(flags, monkeypatch):
    import mzvkit.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(cli_mod, "run_suite", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "csf-mzsv", *flags])
    assert exc.value.code == 2


def test_deterministic_output():
    args = _args(["--suite", "algebra-laws", "--max-weight", "4", "--cases", "10", "--jobs", "1"])
    buf1, buf2 = io.StringIO(), io.StringIO()
    assert run_suite(args, out=buf1) == 0
    args = _args(["--suite", "algebra-laws", "--max-weight", "4", "--cases", "10", "--jobs", "1"])
    assert run_suite(args, out=buf2) == 0

    def strip_times(s):
        # drop the right-aligned "<time> ms" column, whatever its width
        return [l.rsplit(None, 2)[0] for l in s.splitlines()]

    assert strip_times(buf1.getvalue()) == strip_times(buf2.getvalue())


def test_parallel_matches_serial_order():
    argv = ["--suite", "index-identities", "--max-weight", "3", "--json"]
    a1 = _args(argv + ["--jobs", "1"])
    a4 = _args(argv + ["--jobs", "4"])
    b1, b4 = io.StringIO(), io.StringIO()
    assert run_suite(a1, out=b1) == 0
    assert run_suite(a4, out=b4) == 0

    def rows(s):
        return [
            {k: v for k, v in json.loads(l).items() if k != "elapsed_ms"}
            for l in s.splitlines()
            if l.strip()
        ]

    assert rows(b1.getvalue()) == rows(b4.getvalue())


def test_failure_exit_code_one(monkeypatch):
    import mzvkit.cli as cli_mod

    def failing(which, k, order=2, cfg=None):
        return Report(identity=f"csf-{which}", index=k, passed=False, residuals=[1.0])

    monkeypatch.setattr(cli_mod.numeval, "verify_csf", failing)
    args = _args(["--suite", "csf-tsmzsv", "--max-weight", "1", "--jobs", "1"])
    buf = io.StringIO()
    rc = run_suite(args, out=buf)
    assert rc == 1
    assert "FAIL" in buf.getvalue()


def _raise_on_12(monkeypatch):
    """Make the numeric check raise on the index (1, 2)."""
    import mzvkit.cli as cli_mod

    verify_csf = cli_mod.numeval.verify_csf

    def broken(which, k, order=2, cfg=None):
        if k == (1, 2):
            raise ValueError("poset too large")
        return verify_csf(which, k, order=order, cfg=cfg)

    monkeypatch.setattr(cli_mod.numeval, "verify_csf", broken)


def test_numeric_case_that_raises_is_a_failing_row(monkeypatch):
    _raise_on_12(monkeypatch)
    args = _args(["--suite", "csf-mzsv", "--max-weight", "3", "--json"])
    buf = io.StringIO()
    assert run_suite(args, out=buf) == 1
    rows = [json.loads(l) for l in buf.getvalue().splitlines()]
    failed = [i for i, row in enumerate(rows) if not row["pass"]]
    assert len(failed) == 1
    row = rows[failed[0]]
    assert row["identity"] == "csf-mzsv" and row["index"] == [1, 2]
    assert row["detail"] == "error: poset too large"
    assert row["residuals"] == [] and row["tolerance"] is None
    # the sweep went on past the failing case
    later = rows[failed[0] + 1 :]
    assert later and all(r["pass"] and r["identity"] == "csf-mzsv" for r in later)


def test_text_rows_show_no_residual_or_tolerance_they_did_not_compute(monkeypatch):
    _raise_on_12(monkeypatch)
    args = _args(["--suite", "csf-mzsv", "--max-weight", "3"])
    buf = io.StringIO()
    assert run_suite(args, out=buf) == 1
    lines = buf.getvalue().splitlines()
    failed = [i for i, line in enumerate(lines) if line.startswith("FAIL")]
    assert len(failed) == 1
    row = lines[failed[0]]
    assert "csf-mzsv" in row and "(1,2)" in row
    assert "max_res=- " in row and "tol=- " in row
    assert lines[failed[0] + 1].strip() == "error: poset too large"
    # a failed exact check still names its exact tolerance, and a passing
    # numeric row keeps its residual and tolerance
    mismatch = Report.exact("csf-hat-expansion", (1, 2), False, "t^0:yx: 1").text_row()
    assert "max_res=- " in mismatch and "tol=exact " in mismatch
    numeric = Report.numeric("csf-mzsv", (2,), [1.5e-7], 1e-6).text_row()
    assert "max_res=1.50e-07 tol=1.0e-06 " in numeric


def test_regularization_past_w_map_limit_reports_error_row():
    # w_map refuses the 25-vertex zig-zag poset of (25,): past main's
    # up-front check, the star comparison becomes a failing row instead of
    # a traceback
    args = _args(["--suite", "regularization", "--index", "25", "--cases", "1", "--json"])
    buf = io.StringIO()
    assert run_suite(args, out=buf) == 1
    rows = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert len(rows) == 6 and all(row["pass"] for row in rows[:5])
    assert rows[5]["identity"] == "reg-star-compare"
    assert rows[5]["detail"] == "error: poset too large for w_map (25 vertices)"


def test_index_past_w_map_limit_exits_2_before_any_row(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "csf-tsmzsv", "--index", "25", "--cases", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "w_map takes at most" in err
    assert "suite csf-tsmzsv at --t-order 2 needs posets of 28 vertices;" in err


def test_regularization_limit_message_names_no_t_order(capsys):
    # the regularization suite's star words have wt(k) vertices whatever
    # --t-order says, so its message does not name the flag
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "regularization", "--index", "21", "--t-order", "5", "--cases", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    message = err.strip().splitlines()[-1]  # the usage lines above it list every flag
    assert out == ""
    assert "suite regularization needs posets of 21 vertices; w_map takes at most 20" in message
    assert "--t-order" not in message


@pytest.mark.parametrize("suite", ["poset-laws", "all"])
def test_t_order_past_the_shifting_fixtures_exits_2(suite, capsys, monkeypatch):
    # poset-laws' chain-shifting fixtures have up to t + 5 vertices, so
    # t-order 16 needs 21 whatever the weight; 15 is still admitted
    import mzvkit.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_suite", lambda args: 0)
    with pytest.raises(SystemExit) as exc:
        main(["--suite", suite, "--max-weight", "1", "--t-order", "16", "--cases", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"suite {suite} at --t-order 16 needs posets of 21 vertices;" in err
    assert main(["--suite", suite, "--max-weight", "1", "--t-order", "15", "--cases", "1"]) == 0


def test_largest_admitted_index_row_passes(capsys):
    # weight 17 at t-order 2 builds 20-vertex posets, the w_map limit
    assert main(["--suite", "csf-tsmzsv", "--index", "17", "--cases", "1", "--json"]) == 0
    (row,) = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert row["identity"] == "csf-tsmzsv" and row["pass"]


def test_index_past_w_map_limit_still_runs_suites_without_posets(capsys):
    assert main(["--suite", "index-identities", "--index", "25", "--cases", "1"]) == 0
    assert "pass" in capsys.readouterr().out


def test_index_identities_on_dense_weight_slices_all_pass(capsys, monkeypatch):
    # at weight 7 the star expansions of whole combinations run through
    # the superset-sum transform
    import mzvkit.indexes as indexes_mod

    calls = []
    transform = indexes_mod.superset_sums
    monkeypatch.setattr(indexes_mod, "superset_sums", lambda *a: calls.append(a) or transform(*a))
    assert main(["--suite", "index-identities", "--max-weight", "7", "--json"]) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1397 and all(row["pass"] for row in rows)
    assert calls


@pytest.mark.parametrize(
    "suite, extra",
    [("csf-tsmzsv", 3), ("second-main", 3), ("all", 3), ("regularization", 0)],
)
def test_w_map_limit_boundary(suite, extra, monkeypatch):
    # the largest poset has wt(k) + t + 1 vertices (t = 2 here) for the
    # t-adic suites and wt(k) for the regularization suite: the limit
    # itself is accepted, one vertex more is not
    import mzvkit.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_suite", lambda args: 0)
    limit = posets._MAX_WMAP_VERTICES
    for weight, ok in ((limit - extra, True), (limit - extra + 1, False)):
        argv = ["--suite", suite, "--index", str(weight), "--t-order", "2", "--cases", "1"]
        if ok:
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


def test_build_cases_all_suite():
    args = _args(["--suite", "all", "--max-weight", "1", "--cases", "1"])
    names = [n for n, _ in build_cases(args, None)]
    # every concrete suite contributes at least one case
    assert len(names) > 8


GOLDEN_HOLDER = Path(__file__).with_name("golden_suite_all_holder.jsonl")
GOLDEN_ARGV = [
    "--suite", "all", "--jobs", "1", "--json", "--max-weight", "4",
    "--t-order", "2", "--cutoff-N", "100000", "--cases", "5",
]


def test_suite_all_holder_matches_golden(capsys):
    """Every row of ``--suite all`` at a small scale, through the CLI,
    against a saved run.

    Exact rows (no tolerance) must be equal apart from elapsed_ms; numeric
    rows must agree in every other key and in their residuals to 1e-12.
    Regenerate the file with::

        mzvkit --suite all --jobs 1 --json --max-weight 4 --t-order 2 \
            --cutoff-N 100000 --cases 5 > tests/golden_suite_all_holder.jsonl
    """
    assert main(GOLDEN_ARGV) == 0
    _assert_matches_golden(capsys.readouterr().out.splitlines(), GOLDEN_HOLDER)


def _assert_matches_golden(lines, path):
    got = [json.loads(l) for l in lines]
    want = [json.loads(l) for l in path.read_text().splitlines()]
    assert all(row["pass"] for row in got)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for row in (g, w):
            del row["elapsed_ms"]
        if w["tolerance"] is None:
            assert g == w
        else:
            gr, wr = g.pop("residuals"), w.pop("residuals")
            assert g == w
            assert len(gr) == len(wr)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(gr, wr)), (w, gr, wr)


def test_exact_failure_detail_is_bounded():
    # sides of 300 terms that differ in 200: the detail names the count and
    # a few terms of lhs - rhs, not the sides themselves
    lhs = IndexCombo({(i, 2): 1 for i in range(1, 301)})
    rhs = IndexCombo({(i, 2): 1 for i in range(101, 301)} | {(i, 3): 1 for i in range(1, 101)})
    sides = [
        (lhs, rhs),  # prop1-3
        (Combo({0: lhs, 1: lhs}), Combo({0: rhs, 1: lhs})),  # lemma112: one combination per m
        (
            Combo({(k, e): c for e in range(2) for k, c in lhs.terms.items()}),
            Combo({(k, e): c for e in range(2) for k, c in rhs.terms.items()}),
        ),  # csf_reduction: symbols (index, t-power)
        (
            WordSeries(1, {1: NcPoly({word_of_index((i, 2)): 1 for i in range(1, 201)})}),
            WordSeries(1),
        ),  # series expansions
    ]
    for (l, r), count in zip(sides, (200, 200, 400, 200)):
        ok, detail = _exact(ExactCheck("check", None, {}, l, r))
        assert not ok
        assert detail.startswith(f"lhs - rhs has {count} terms: ")
        assert len(detail) < 200, detail
    ok, detail = _exact(ExactCheck("check", None, {}, IndexCombo.of((1, 2)), IndexCombo.of((3,))))
    assert detail == "lhs - rhs has 2 terms: 1*(1, 2) + -1*(3,)"
    assert _exact(ExactCheck("check", None, {}, lhs, lhs)) == (True, None)


def test_python_dash_m_runs_the_cli_and_prints_json_rows():
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["--suite", "index-identities", "--index", "1,2", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "mzvkit", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert rows and all(row["pass"] and row["index"] == [1, 2] for row in rows)
