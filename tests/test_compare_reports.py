import io
import json

from helpers import load_module

WORKLOADS = ("batch-small", "joint-medium", "degenerate-mixed")


def load_tool():
    return load_module("tools/compare_reports.py")


def test_two_dumps_of_one_checkout_do_not_differ(tmp_path, monkeypatch):
    tool = load_tool()
    # One JSON run per instance: its text report is `format_text` of the same
    # document, as tests/test_cli.py pins for every exit code that writes one.
    calls, run = [], tool.cli.run
    monkeypatch.setattr(tool.cli, "run", lambda argv: calls.append(argv[-1]) or run(argv))
    for name in ("a.json", "b.json"):
        args = ["dump", "--workloads", *WORKLOADS, "--seeds", "1", "--limit", "3"]
        assert tool.main([*args, "--out", str(tmp_path / name)]) == 0
    assert calls == ["json"] * 2 * 9
    records = json.loads((tmp_path / "a.json").read_text())
    assert [(r["workload"], r["name"]) for r in records] == [
        *(("batch-small", f"small-{k:03d}") for k in range(3)),
        *(("joint-medium", f"joint-{k:02d}-{20 + k}x{20 + k}") for k in range(3)),
        *(("degenerate-mixed", f"duplicated-rows-{k:02d}") for k in range(3)),
    ]
    assert all("timings" not in r["report"] for r in records)
    # One dual run per LP: the denominator and stage 1 from the slack start,
    # each face LP from its all-artificial start.  Approach one solves the
    # primal face LP only where stage 1's own pair is not strictly
    # complementary: on `duplicated-rows-00` and `-01`, where a row and its
    # copy are both tight and stage 1's duals are 0 on one of them.
    faces = [["primal face"], ["primal face"], []]
    assert [[run[0] for run in r["runs"]] for r in records] == [
        ["denominator", "stage 1", *face, "joint face"] for face in [[]] * 6 + faces]
    assert all(run[1:3] == ["dual", "optimal"] for r in records for run in r["runs"])
    assert all(changes >= 0 and flips >= 0 for r in records for *_, changes, flips, _ in r["runs"])
    # A run that ends where it starts inverts nothing: the dual start is the
    # identity, whose inverse needs no call.
    assert all(inversions == 0 for r in records for *_, changes, _, inversions in r["runs"]
               if changes == 0)
    assert [[label for label, _ in r["face_optima"]] for r in records] == [
        [*face, "joint face"] for face in [[]] * 6 + faces]
    assert all(r["text"].endswith("status: ok\n") and r["stderr"] == "" for r in records)
    assert all("timings: stage1 #s, approach_one #s, approach_two #s\n" in r["text"] for r in records)
    assert tool.main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0


def test_diff_counts_every_kind_of_difference():
    tool = load_tool()
    report = {"status": "ok", "theta_star": 1.0}
    before = [
        {"workload": "w", "seed": 1, "name": "same", "code": 0, "report": report},
        {"workload": "w", "seed": 1, "name": "error", "code": 5,
         "report": {"status": "numerical_failure", "error": "old"}},
        {"workload": "w", "seed": 1, "name": "warning", "code": 5,
         "report": {"status": "verification_failed", "warnings": ["approach one: x/v cover misses [4]"]}},
        {"workload": "w", "seed": 1, "name": "value", "code": 0, "report": report},
        {"workload": "w", "seed": 1, "name": "gone", "code": 0, "report": report},
    ]
    after = [
        before[0],
        {**before[1], "report": {"status": "numerical_failure", "error": "new"}},
        {**before[2], "report": {"status": "verification_failed", "warnings": [
            "approach one: x/v cover misses [4] (x = 8.230e-08, v = 2.715e-11)"]}},
        {**before[3], "code": 5, "report": {**report, "theta_star": 2.0}},
    ]
    out = io.StringIO()
    assert tool.diff(before, after, out) == 5
    text = out.getvalue()
    assert "only in before: w/1/gone" in text
    # Reworded diagnostics are counted apart from a changed result, which is named.
    assert "report differs: w/1/value" in text
    assert "report differs: w/1/error" not in text and "report differs: w/1/warning" not in text
    assert "w: 4 compared, 3 reports differ (2 only in error or warning text), 1 exit-code changes" in text
    assert "failures 2 -> 3" in text


def test_diff_counts_changed_simplex_runs():
    tool = load_tool()
    same = {"workload": "w", "seed": 1, "name": "same", "code": 0, "report": {"status": "ok"},
            "runs": [["stage 1", "dual", "optimal", 0, 0, 0],
                     ["joint face", "dual", "optimal", 7, 2, 1]]}
    pivots = {**same, "name": "pivots"}
    after = [same, {**pivots, "runs": [["stage 1", "dual", "optimal", 0, 0, 0],
                                       ["joint face", "dual", "optimal", 8, 2, 1]]}]
    out = io.StringIO()
    assert tool.diff([same, pivots], after, out) == 1
    text = out.getvalue()
    assert "simplex runs differ: w/1/pivots" in text
    assert "simplex runs differ: w/1/same" not in text
    assert "w: 2 compared, 0 reports differ (0 only in error or warning text), 0 exit-code changes, " \
        "1 with different simplex runs, failures 0 -> 0, pivots 14 -> 15" in text
    # The line names the first run that differs, by index, with both sides' fields.
    assert '  simplex runs differ: w/1/pivots: run 1 ["joint face", "dual", "optimal", 7, 2, 1] ' \
        '-> ["joint face", "dual", "optimal", 8, 2, 1]' in text.splitlines()
    # A run that one side lacks shows as null.
    out = io.StringIO()
    assert tool.diff([pivots], [{**pivots, "runs": pivots["runs"][:1]}], out) == 1
    assert '  simplex runs differ: w/1/pivots: run 1 ["joint face", "dual", "optimal", 7, 2, 1] ' \
        '-> null' in out.getvalue().splitlines()


def test_diff_counts_changed_text_or_stderr():
    tool = load_tool()
    same = {"workload": "w", "seed": 1, "name": "same", "code": 0, "report": {"status": "ok"},
            "text": "status: ok\n", "stderr": ""}
    text = {**same, "name": "text"}
    stderr = {**same, "name": "stderr"}
    after = [same, {**text, "text": "theta_star = 1\nstatus: ok\n"}, {**stderr, "stderr": "x"}]
    out = io.StringIO()
    assert tool.diff([same, text, stderr], after, out) == 2
    printed = out.getvalue()
    assert "text or stderr differs: w/1/text" in printed
    assert "text or stderr differs: w/1/stderr" in printed
    assert "text or stderr differs: w/1/same" not in printed
    assert printed.rstrip().endswith("pivots 0 -> 0, 2 with different text or stderr")


def test_diff_summarizes_each_seed_for_moved_pivot_paths():
    # Every report differs in its floats; what matters is failures, pivots and partitions.
    tool = load_tool()

    def record(seed, name, code, pivots, partition=None, **report):
        report = {"status": "ok" if code == 0 else "numerical_failure", "theta_star": 0.1,
                  "partition": partition, **report}
        return {"workload": "w", "seed": seed, "name": name, "code": code, "report": report,
                "runs": [["joint face", "dual", "optimal", pivots, 0, 0]]}

    p, q = {"B": [0], "N": [1]}, {"B": [1], "N": [0]}
    before = [
        record(1, "same-partition", 0, 10, p),
        record(1, "moved-partition", 0, 10, p),
        record(1, "now-fails", 0, 10, p),
        record(2, "now-solves", 5, 10, error="singular basis after 3 pivots"),
        record(2, "still-fails", 5, 10, error="old text"),
    ]
    after = [
        {**record(1, "same-partition", 0, 4, p), "report": {**before[0]["report"], "theta_star": 0.2}},
        record(1, "moved-partition", 0, 4, q),
        record(1, "now-fails", 5, 4, p, status="verification_failed", cross_check=False),
        record(2, "now-solves", 0, 4, q),
        record(2, "still-fails", 5, 4, error="new text"),
    ]
    def runs_differ(name, before, after):
        run = '["joint face", "dual", "optimal", {}, 0, 0]'
        return f"  simplex runs differ: w/{name}: run 0 {run.format(before)} -> {run.format(after)}"

    out = io.StringIO()
    assert tool.diff(before, after, out) > 0  # the exit status stays "any difference"
    assert out.getvalue().splitlines() == [
        "w seed 1: 3 compared, failures 0 -> 1, pivots 30 -> 12, "
        "partitions differ on 1 of 2 solved by both",
        "w seed 2: 2 compared, failures 2 -> 1, pivots 20 -> 8, "
        "partitions differ on 0 of 0 solved by both",
        "  partition differs: w/1/moved-partition",
        "  report differs: w/1/moved-partition",
        runs_differ("1/moved-partition", 10, 4),
        "  exit code 0 -> 5: w/1/now-fails: ok -> cross_check false",
        "  report differs: w/1/now-fails",
        runs_differ("1/now-fails", 10, 4),
        "  report differs: w/1/same-partition",
        runs_differ("1/same-partition", 10, 4),
        "  exit code 5 -> 0: w/2/now-solves: singular basis after 3 pivots -> ok",
        "  report differs: w/2/now-solves",
        runs_differ("2/now-solves", 10, 4),
        runs_differ("2/still-fails", 10, 4),
        "w: 5 compared, 5 reports differ (1 only in error or warning text), 2 exit-code changes, "
        "5 with different simplex runs, failures 2 -> 2, pivots 50 -> 20, "
        "0 with different text or stderr",
    ]
    assert tool.diff(before, before, io.StringIO()) == 0


def test_ledgers_of_two_dumps_of_one_checkout_are_byte_identical(tmp_path):
    tool = load_tool()
    for name in ("a", "b"):
        args = ["dump", "--workloads", "batch-small", "--seeds", "1", "--limit", "5"]
        assert tool.main([*args, "--out", str(tmp_path / f"{name}.json")]) == 0
        assert tool.main(["ledger", str(tmp_path / f"{name}.json"),
                          "--out", str(tmp_path / f"{name}.ledger.json")]) == 0
    text = (tmp_path / "a.ledger.json").read_text()
    assert text == (tmp_path / "b.ledger.json").read_text()
    [entry] = json.loads(text)
    assert entry["workload"] == "batch-small" and entry["seed"] == 1
    assert entry["instances"] == 5 and entry["failures"] == {}
    assert entry["simplex_runs"] >= 5 * 3 and entry["pivots"] > 0
    assert sum(entry["lp_pivots"].values()) == entry["pivots"]
    assert entry["lp_pivots"]["primal face"] == 0
    # Each denominator LP starts and ends at its slack basis.
    assert entry["lp_pivots"]["denominator"] == 0


def test_ledger_counts_failures_by_exit_code():
    tool = load_tool()
    records = [
        {"workload": "w", "seed": s, "name": str(k), "code": code, "face_optima": [],
         "runs": [["stage 1", "primal", "optimal", 3, 0, 1],
                  ["joint face", "dual", "optimal", k, 1, 0]]}
        for s, k, code in ((1, 0, 0), (1, 1, 5), (1, 2, 5), (1, 3, 3), (2, 4, 0))
    ]
    entries = tool.ledger(records)
    assert [(e["workload"], e["seed"], e["instances"], e["failures"]) for e in entries] == [
        ("w", 1, 4, {"5": 2, "3": 1}), ("w", 2, 1, {}),
    ]
    assert [(e["simplex_runs"], e["pivots"], e["face_lp_pivots"]) for e in entries] == [
        (8, 18, 6), (2, 7, 4),
    ]
    assert [e["lp_pivots"] for e in entries] == [
        {"denominator": 0, "stage 1": 12, "primal face": 0, "joint face": 6},
        {"denominator": 0, "stage 1": 3, "primal face": 0, "joint face": 4},
    ]


def test_ledger_counts_methods_flips_and_fractional_face_optima():
    tool = load_tool()
    record = {
        "workload": "w", "seed": 1, "name": "a", "code": 0,
        "runs": [
            ["stage 1", "primal", "optimal", 5, 2, 0],
            ["primal face", "dual", "singular", 3, 4, 1],
            ["primal face", "primal", "optimal", 6, 1, 2],
            ["primal face", "primal", "optimal", 2, 0, 1],
            ["joint face", "dual", "optimal", 7, 5, 1],
        ],
        "face_optima": [["primal face", 9.0000004], ["joint face", 10.5]],
        "report": {"partition": {"sigma_x": [1, 2, 3], "sigma_v": [4], "sigma_u": [1, 2, 3, 4, 5],
                                 "sigma_y": [6]}},
    }
    [entry] = tool.ledger([record])
    # A primal run's bound flips are iterations of their own; a dual run's ride along.
    assert entry["pivots"] == 7 + 3 + 7 + 2 + 7
    assert entry["face_lp_pivots"] == 3 + 7 + 2 + 7
    assert entry["lp_pivots"] == {"denominator": 0, "stage 1": 7, "primal face": 3 + 7 + 2,
                                  "joint face": 7}
    assert entry["methods"] == {
        "primal": {"runs": 3, "basis_changes": 13, "bound_flips": 3, "inversions": 3,
                   "verdicts": {"optimal": 3}},
        "dual": {"runs": 2, "basis_changes": 10, "bound_flips": 9, "inversions": 2,
                 "verdicts": {"singular": 1, "optimal": 1}},
    }
    assert entry["fractional_face_optima"] == 1
    assert entry["goldman_tucker_breaks"] == 1  # the joint LP's 10.5, not n + m + 1 = 11


def test_ledger_counts_goldman_tucker_breaks_of_exit_0_runs():
    # n = 3 and m = 2 in every run: the joint LP's optimum must be 6 and the
    # primal face LP's |sigma_x| + |sigma_u| + 1, each within FRACTIONAL.
    tool = load_tool()
    partition = {"sigma_x": [1, 2], "sigma_v": [3], "sigma_u": [1], "sigma_y": [2]}

    def record(name, code, *face_optima):
        return {"workload": "w", "seed": 1, "name": name, "code": code, "runs": [],
                "face_optima": [list(optimum) for optimum in face_optima],
                "report": {"partition": partition if code == 0 else None}}

    records = [
        record("holds", 0, ("joint face", 6.0)),
        record("holds-within-fractional", 0, ("primal face", 4.0000004), ("joint face", 5.9999996)),
        record("joint-at-all-caps", 0, ("joint face", 2 * 5 + 1.0)),
        record("primal-off", 0, ("primal face", 3.0), ("joint face", 6.0)),
        record("both-off-counts-once", 0, ("primal face", 5.0), ("joint face", 7.0)),
        record("failed", 5, ("joint face", 11.0)),
        record("no-face-lp", 0),
    ]
    [entry] = tool.ledger(records)
    assert entry["goldman_tucker_breaks"] == 3
    assert entry["fractional_face_optima"] == 0


def test_ladder_rows_hold_the_runs_of_each_lp(tmp_path):
    tool = load_tool()
    args = ["dump", "--workloads", "batch-small", "--seeds", "1", "--limit", "1",
            "--ladder", "20x15", "--out", str(tmp_path / "dump.json")]
    assert tool.main(args) == 0
    records = json.loads((tmp_path / "dump.json").read_text())
    assert [(r["workload"], r["name"]) for r in records] == [
        ("batch-small", "small-000"), ("ladder", "20x15"),
    ]
    assert records[1]["code"] == 0
    entries = tool.ledger(records)
    assert [e["workload"] for e in entries] == ["batch-small", "ladder"]
    row = entries[1]
    assert set(row) == {"workload", "name", "lps"}
    assert sorted(row["lps"]) == ["denominator", "joint face", "stage 1"]
    assert set(row["lps"]["joint face"]) == {"dual"}
    assert row["lps"]["joint face"]["dual"]["verdicts"] == {"optimal": 1}
    assert set(row["lps"]["stage 1"]) == {"dual"}
    assert row["lps"]["stage 1"]["dual"]["verdicts"] == {"optimal": 1}


def test_ledger_counts_inversions_where_runs_carry_them():
    tool = load_tool()
    runs = [["denominator", "dual", "optimal", 0, 0, 0], ["stage 1", "dual", "optimal", 4, 2, 1],
            ["joint face", "dual", "singular", 12, 0, 2], ["joint face", "primal", "optimal", 9, 3, 3]]
    record = {"workload": "w", "seed": 1, "name": "a", "code": 0, "runs": runs, "face_optima": []}
    [entry] = tool.ledger([record])
    assert entry["pivots"] == 0 + 4 + 12 + 12
    assert entry["methods"] == {
        "dual": {"runs": 3, "basis_changes": 16, "bound_flips": 2, "inversions": 3,
                 "verdicts": {"optimal": 2, "singular": 1}},
        "primal": {"runs": 1, "basis_changes": 9, "bound_flips": 3, "inversions": 3,
                   "verdicts": {"optimal": 1}},
    }
    [row] = tool.ledger([{**record, "workload": "ladder", "name": "20x15"}])
    assert row["lps"]["joint face"]["dual"]["inversions"] == 2

