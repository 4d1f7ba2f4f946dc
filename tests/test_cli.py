import json


from expapprox.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = [l for l in out.splitlines() if l.startswith("#")]
    return code, header, lines


def test_cf_prefix(capsys):
    code, header, lines = run(capsys, "cf", "--alpha", "3", "--count", "11")
    assert code == 0
    assert header and "cf" in header[0]
    assert [int(l.split("\t")[1]) for l in lines] == [20, 11, 1, 2, 4, 3, 1, 5, 1, 2, 16]


def test_cf_json_format(capsys):
    code, _, lines = run(capsys, "cf", "--alpha", "1", "--count", "3", "--format", "json")
    assert code == 0
    rows = [json.loads(l) for l in lines]
    assert [int(r["a"]) for r in rows] == [2, 1, 2]


def test_records_small(capsys):
    code, _, lines = run(capsys, "records", "--alpha", "3", "--qmax-log10", "20")
    assert code == 0
    rows = [l.split("\t") for l in lines]
    assert rows[0] == ["1", "11", "0.0"]
    assert rows[1] == ["10", "16", "9.4"]


def test_verify_measure_small(capsys):
    code, _, lines = run(capsys, "verify-measure", "--qmax-log10", "50")
    assert code == 0
    assert lines[-1] == "all checks passed"


def test_hermite_and_mahler(capsys):
    code, _, lines = run(capsys, "hermite", "--alphas", "0,3", "--n", "1,1",
                         "--format", "json")
    assert code == 0
    assert json.loads(lines[0])["point"] == ["-1", "5"]

    code, _, lines = run(capsys, "mahler", "--alphas", "0,3", "--n", "2,2")
    assert code == 0
    data = json.loads(lines[0])
    assert data["det"] == data["closed_form"] == "81"


def test_forest_subcommand(capsys):
    code, _, lines = run(capsys, "forest", "--points", "0,3,6,1", "--p", "3")
    assert code == 0
    data = json.loads(lines[0])
    assert data["roots"] == [0, 3]
    assert data["verified"] is True


def test_minima_small(capsys):
    code, _, lines = run(capsys, "minima", "--nmax", "3")
    assert code == 0
    assert len([l for l in lines if not l.startswith("# ")]) == 3


def test_volume_subcommand(capsys):
    code, _, lines = run(capsys, "volume", "--alphas", "0,3", "--n", "2,2",
                         "--samples", "5e4", "--seed", "5")
    assert code == 0
    data = json.loads(lines[0])
    assert data["ok"] is True and data["seed"] == 5


def test_ascent_and_semires(capsys, tmp_path):
    svg = tmp_path / "tree.svg"
    csv = tmp_path / "tree.csv"
    code, _, lines = run(capsys, "ascent", "--roots", "1,1j,-1,-1j",
                         "--svg", str(svg), "--csv", str(csv))
    assert code == 0
    data = json.loads(lines[0])
    assert len(data["edges"]) == 3 and data["bounds_ok"] is True
    assert svg.read_text().startswith("<svg")
    assert csv.read_text().startswith("edge_i")

    code, _, lines = run(capsys, "semires", "--roots", "0,3")
    assert code == 0
    data = json.loads(lines[0])
    assert data["ok"] is True
    assert abs(data["critical_side"][0] + 9) < 1e-9


def test_deterministic_output(capsys):
    _, h1, l1 = run(capsys, "volume", "--alphas", "0,3", "--n", "1,1",
                    "--samples", "2e4", "--seed", "11")
    _, h2, l2 = run(capsys, "volume", "--alphas", "0,3", "--n", "1,1",
                    "--samples", "2e4", "--seed", "11")
    assert (h1, l1) == (h2, l2)


def test_usage_errors(capsys):
    assert main(["cf"]) == 2                       # missing --count
    capsys.readouterr()
    assert main(["nosuchcommand"]) == 2
    capsys.readouterr()
    assert main(["forest", "--points", "0,x", "--p", "3"]) == 2
    capsys.readouterr()
    assert main(["minima", "--alpha", "2", "--p", "3", "--nmax", "2"]) == 2
    capsys.readouterr()


def test_cf_count_below_one_rejected(capsys, deadline):
    for count in ("0", "-1"):
        with deadline(10):
            assert main(["cf", "--count", count]) == 2
        assert capsys.readouterr().out == ""


def test_bad_bound_and_alpha_rejected(capsys, deadline):
    # each of these ran forever (a nan or inf bound) or printed a header first
    cases = [["records", "--qmax-log10", v] for v in ("nan", "inf", "-inf", "0", "-5", "x")]
    cases += [["verify-measure", "--qmax-log10", v] for v in ("nan", "inf", "0")]
    for alpha in ("0", "-1/2"):
        cases += [["cf", "--alpha", alpha, "--count", "3"],
                  ["records", "--alpha", alpha, "--qmax-log10", "5"],
                  ["verify-measure", "--alpha", alpha]]
    for argv in cases:
        with deadline(10):
            assert main(argv) == 2, argv
        assert capsys.readouterr().out == "", argv
