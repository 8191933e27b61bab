from __future__ import annotations

import json
from importlib import resources

import numpy as np
import pytest

from jointsparse.cli import EXIT_COMPUTE, EXIT_OK, EXIT_USAGE, main


@pytest.fixture()
def example2_path(tmp_path):
    raw = resources.files("jointsparse.data").joinpath("example2.json").read_bytes()
    path = tmp_path / "example2.json"
    path.write_bytes(raw)
    return str(path)


@pytest.fixture()
def example1_path(tmp_path):
    raw = resources.files("jointsparse.data").joinpath("example1.json").read_bytes()
    path = tmp_path / "example1.json"
    path.write_bytes(raw)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestEnvelope:
    def test_pstar_structure(self, capsys, example2_path):
        rep = run_json(capsys, "pstar", example2_path)
        assert list(rep) == ["command", "inputs_digest", "outputs",
                             "runtime_ms", "seed"]
        assert rep["command"] == "pstar"
        assert len(rep["inputs_digest"]) == 64
        assert rep["seed"] is None
        assert rep["outputs"]["p_star"] == pytest.approx(0.8177165255221992, abs=5e-4)
        assert rep["outputs"]["s_star"] == 5

    def test_solve_l20_support(self, capsys, example2_path):
        rep = run_json(capsys, "solve", example2_path, "--method", "l20")
        assert rep["outputs"]["support"] == [2, 5]
        assert rep["outputs"]["unique"] is True
        assert rep["outputs"]["objective"] == 2.0

    def test_solve_nullspace_seed_recorded(self, capsys, example2_path):
        rep = run_json(capsys, "solve", example2_path, "--method", "nullspace",
                       "--p", "0.5", "--seed", "7")
        assert rep["seed"] == 7
        x = np.array(rep["outputs"]["X"])
        planted = np.array([[0, 0], [1, 1], [0, 0], [0, 0], [-1, -2]], dtype=float)
        assert np.linalg.norm(x - planted) <= 1e-4

    def test_determinism_modulo_runtime(self, capsys, example2_path):
        outs = []
        for _ in range(2):
            rep = run_json(capsys, "solve", example2_path, "--method", "nullspace",
                           "--p", "0.5")
            rep.pop("runtime_ms")
            outs.append(json.dumps(rep, sort_keys=True))
        assert outs[0] == outs[1]

    def test_gen_determinism(self, capsys):
        spec = '{"kind": "gaussian", "m": 5, "n": 8, "r": 2, "k": 2, "seed": 11}'
        reps = []
        for _ in range(2):
            rep = run_json(capsys, "gen", spec)
            rep.pop("runtime_ms")
            reps.append(json.dumps(rep, sort_keys=True))
        assert reps[0] == reps[1]


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "pstar", "/nonexistent/problem.json")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_bad_grid_value(self, capsys, example2_path):
        code, _, err = run(capsys, "sweep", example2_path, "--grid", "0.5,1.5")
        assert code == EXIT_USAGE
        assert "1.5" in json.loads(err)["error"]["message"]

    def test_descending_grid(self, capsys, example2_path):
        code, _, err = run(capsys, "sweep", example2_path, "--grid", "0.9,0.5")
        assert code == EXIT_USAGE

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, "reproduce", "example9")
        assert code == EXIT_USAGE

    def test_rank_deficient_is_compute_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "A": [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]],
            "B": [[1.0], [2.0]],
        }))
        code, _, err = run(capsys, "pstar", str(path))
        assert code == EXIT_COMPUTE
        assert json.loads(err)["error"]["type"] == "RankDeficient"

    @pytest.mark.parametrize("problem", [
        {"A": [[1, 2, 3]], "B": [[1]]},                     # m < 2
        {"A": [[1, 0], [0, 1]], "B": [[1], [2]]},           # n < 3
    ])
    def test_problem_outside_pstar_shapes_is_usage_error(self, capsys, tmp_path, problem):
        # pstar's own refusal is bad input, not a computational failure
        path = tmp_path / "small.json"
        path.write_text(json.dumps(problem))
        code, out, err = run(capsys, "pstar", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        error = json.loads(err)["error"]
        assert error["type"] == "UsageError" and "n >= 3" in error["message"]

    def test_csv_unsupported_for_pstar(self, capsys, example2_path):
        code, _, err = run(capsys, "pstar", example2_path, "--csv")
        assert code == EXIT_USAGE

    def test_argparse_usage(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["reproduce", "example1"],
        ["gen", '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 1}'],
    ], ids=["reproduce", "gen"])
    def test_tol_is_refused_where_nothing_reads_it(self, capsys, argv):
        # reproduce and gen read no tolerance; --tol 0.5 used to be accepted
        # and ignored
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--tol", "0.5"])
        assert exc_info.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_irls_requires_p(self, capsys, example2_path):
        code, _, err = run(capsys, "solve", example2_path, "--method", "irls")
        assert code == EXIT_USAGE

    def test_k_max_above_n_is_usage_error(self, capsys, example2_path):
        # example2 has n = 5 columns
        assert run(capsys, "solve", example2_path, "--method", "l20",
                   "--k-max", "5")[0] == EXIT_OK
        code, _, err = run(capsys, "solve", example2_path, "--method", "l20", "--k-max", "6")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("method", ["irls", "nullspace"])
    def test_k_max_with_relaxation_method_is_usage_error(self, capsys, example2_path,
                                                         method):
        code, _, err = run(capsys, "solve", example2_path, "--method", method,
                           "--p", "0.5", "--k-max", "2")
        assert code == EXIT_USAGE
        assert "--k-max" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("p", ["0.5", "7"])
    def test_p_with_l20_is_usage_error(self, capsys, example2_path, p):
        code, out, err = run(capsys, "solve", example2_path, "--method", "l20", "--p", p)
        assert (code, out) == (EXIT_USAGE, "")
        assert "--p" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv, named", [
        (["solve", "--method", "irls", "--p", "1.5"], "p must lie in (0, 1]"),
        (["nsc", "--k", "2", "--grid", "0.5,1.5"], "grid values must lie in [0, 1]"),
        (["nsc", "--k", "5"], "--k must lie in 1..4"),       # example2 has n = 5
        (["nsc", "--k", "2", "--r", "0"], "--r: r must be >= 1"),
        (["pstar", "--seed", str(2 ** 64)], "--seed: seed must lie in"),
        (["pstar", "--tol", "inf"], "--tol: zero_tol must be finite"),
        (["solve", "--method", "l20", "--k-max", "0"], "--k-max: k_max must be >= 1"),
        (["nsc", "--k", "2", "--restarts", "-1"], "--restarts: restarts must be >= 0"),
        (["sweep", "--grid", "0,0.5"], "--grid: grid values must lie in (0, 1], got 0.0"),
        (["solve", "--method", "irls", "--p", "nan"], "--p: p must lie in (0, 1], got nan"),
        (["solve", "--method", "l20", "--p", "0.5"], "--p applies to --method irls"),
    ])
    def test_option_outside_its_domain_is_named(self, capsys, example2_path, argv, named):
        code, out, err = run(capsys, argv[0], example2_path, *argv[1:])
        assert (code, out) == (EXIT_USAGE, "")
        error = json.loads(err)["error"]
        assert error["type"] == "UsageError" and named in error["message"]

    @pytest.mark.parametrize("spec", [
        '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": "7"}',
        '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 1.5}',
        '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": true}',
        '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 18446744073709551616}',
        '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 1, "amplitude": NaN}',
        '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 1, "amplitude": Infinity}',
        '{"kind": "vandermonde", "m": 4, "n": 3, "r": 1, "k": 1, "seed": 0, "nodes": [1, "a", 2]}',
        '{"kind": "vandermonde", "m": 4, "n": 3, "r": 1, "k": 1, "seed": 0, "nodes": 5}',
        '{"kind": "gaussian", "m": 0, "n": 6, "r": 1, "k": 0, "seed": 1}',
        # amplitude 1e308 used to exit 0 with two overflow warnings, and
        # 1e-300 to redraw a planted row forever; these nodes overflow B
        '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 1, "amplitude": 1e308}',
        '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 1, "amplitude": 1e-300}',
        '{"kind": "vandermonde", "m": 4, "n": 3, "r": 1, "k": 1, "seed": 0, '
        '"nodes": [1e100, 2e100, 3e100]}',
        # opposite-sign nodes whose products overflow: B may hold inf - inf
        '{"kind": "vandermonde", "m": 4, "n": 4, "r": 1, "k": 2, "seed": 87, '
        '"nodes": [5e102, -5.01e102, 5.02e102, -5.03e102]}',
        # an integer amplitude beyond the float range has no float at all
        pytest.param('{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 1, '
                     '"amplitude": 1' + "0" * 400 + '}', id="amplitude_10**400"),
    ])
    def test_bad_gen_spec_exits_2_with_one_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "gen", spec)
        assert (code, out) == (EXIT_USAGE, "")
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "UsageError" and error["message"].startswith("gen spec invalid: ")

    @pytest.mark.parametrize("name, text, problem", [
        ("ragged.csv", "1.0,2.0\n3.0\n", "ragged rows in CSV"),
        ("ragged.json", "[[1.0, 2.0], [3.0]]", "ragged rows in JSON matrix"),
    ])
    def test_bad_matrix_source_is_named_once(self, capsys, tmp_path, name, text, problem):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "nsc", str(path), "--k", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert json.loads(err)["error"]["message"] == f"{path}: {problem}"

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_is_usage_error_with_nothing_printed(self, capsys, example2_path,
                                                                tmp_path, where):
        dest = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
        code, out, err = run(capsys, "pstar", example2_path, "--out", str(dest))
        assert code == EXIT_USAGE
        assert out == ""
        assert json.loads(err)["error"]["type"] == "UsageError"


def nsc_first_point(outputs: dict) -> tuple:
    """The value, support and certificate digest of an nsc report's first
    point, and its probes."""
    c, cert = outputs["curve"][0], outputs["certificates"][0]
    return c["value"], c["support"], c["certificate_digest"], cert["probes"]


class TestOutputs:
    @pytest.mark.parametrize("argv, tabular", [
        (["solve", "EX2", "--method", "l20"], True),
        (["sweep", "EX2", "--grid", "0.5"], True),
        (["nsc", "EX2", "--k", "2", "--grid", "0.5"], True),
        (["pstar", "EX2"], False),
        (["gen", '{"kind": "gaussian", "m": 4, "n": 6, "r": 2, "k": 2, "seed": 1}'], False),
        (["reproduce", "example1"], False),
    ])
    def test_out_writes_the_printed_csv_or_the_outputs(self, capsys, example2_path,
                                                       tmp_path, argv, tabular):
        argv = [example2_path if a == "EX2" else a for a in argv]
        dest = tmp_path / "payload"
        code, out, err = run(capsys, *argv, "--csv", "--out", str(dest))
        if tabular:
            assert code == EXIT_OK, err
            assert dest.read_text() == out
        else:
            assert (code, out, dest.exists()) == (EXIT_USAGE, "", False)
        rep = run_json(capsys, *argv, "--out", str(dest))
        assert json.loads(dest.read_text()) == rep["outputs"]

    def test_csv_solve_is_matrix(self, capsys, example2_path):
        code, out, _ = run(capsys, "solve", example2_path, "--method", "l20", "--csv")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()]
        x = np.array([[float(v) for v in row] for row in rows])
        assert x.shape == (5, 2)
        assert abs(x[1, 0] - 1.0) <= 1e-8

    def test_sweep_csv_header_and_rows(self, capsys, example2_path):
        code, out, _ = run(capsys, "sweep", example2_path,
                           "--grid", "0.4,0.8", "--csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == ("p,equivalent,l2p_objective,l20_objective,"
                            "distance,best_method,error")
        assert len(lines) == 3
        assert all(line.split(",")[1] == "True" for line in lines[1:])

    def test_nsc_csv_curve(self, capsys, example2_path):
        code, out, _ = run(capsys, "nsc", example2_path, "--k", "2",
                           "--grid", "0,0.5,1", "--csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,value,exact,support,")
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert vals == sorted(vals)
        assert vals[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        # p = 0 has no finite closed-form cap: the bound column is empty there
        assert lines[1].split(",")[4] == ""
        assert lines[3].split(",")[4] != ""

    def test_nsc_json_certificates(self, capsys, example2_path):
        rep = run_json(capsys, "nsc", example2_path, "--k", "2",
                       "--grid", "0.5,1", "--r", "2")
        outs = rep["outputs"]
        assert outs["k"] == 2 and outs["r"] == 2
        assert len(outs["curve"]) == 2
        assert outs["curve"][0]["value"] == pytest.approx(1.9285862938389415, abs=1e-9)
        certs = outs["certificates"]
        assert certs[0]["certificate_support"] == [1, 3]
        # nullity 1: the kernel generator is the only vertex, and exact
        assert [(c["vertices"], c["probes"], c["exact"]) for c in certs] == [(1, 0, True)] * 2

    def test_nsc_certificates_count_the_circuits(self, capsys, tmp_path):
        # a generated 4x7 has C(7, 5) = 21 circuits, and at p = 1 the best
        # of them is the exact value, with no ascent
        dest = tmp_path / "gen.json"
        run_json(capsys, "gen", '{"kind": "gaussian", "m": 4, "n": 7, "r": 2, "k": 2, "seed": 3}',
                 "--out", str(dest))
        certs = run_json(capsys, "nsc", str(dest), "--k", "2", "--grid", "0.5,1",
                         "--restarts", "2")["outputs"]["certificates"]
        assert [(c["vertices"], c["exact"]) for c in certs] == [(21, False), (21, True)]
        assert certs[1]["probes"] == 0

    def test_nsc_every_r_reports_the_r1_constant(self, capsys, tmp_path):
        # --r shapes the reported certificates and nothing else: the library
        # takes no r, and the CLI embeds each n x 1 certificate in column 0
        dest = tmp_path / "gen.json"
        run_json(capsys, "gen", '{"kind": "gaussian", "m": 4, "n": 7, "r": 2, "k": 2, "seed": 3}',
                 "--out", str(dest))
        outs = {r: run_json(capsys, "nsc", str(dest), "--k", "2", "--grid", "0,0.1,1",
                            "--restarts", "4", "--r", str(r))["outputs"] for r in (1, 2, 3)}
        keep = ("p", "value", "exact", "support", "theorem4_bound")
        for r in (2, 3):
            assert outs[r]["r"] == r
            for row, one in zip(outs[r]["curve"], outs[1]["curve"]):
                assert {f: row[f] for f in keep} == {f: one[f] for f in keep}
            for cert, one in zip(outs[r]["certificates"], outs[1]["certificates"]):
                assert cert["r"] == r
                assert [row[0] for row in cert["certificate_X"]] == [
                    row[0] for row in one["certificate_X"]]
                assert all(row[1:] == [0.0] * (r - 1) for row in cert["certificate_X"])
                assert {**cert, "r": 1, "certificate_X": None} == {
                    **one, "certificate_X": None}

    # The nsc pins of the CI workflow: (gen spec, nsc arguments, what the
    # pin reads off the outputs, its value)
    WORKFLOW_NSC_PINS = {
        "4x7 grid 0.1": (
            '{"kind":"gaussian","m":4,"n":7,"r":2,"k":2,"seed":3}',
            ("--k", "2", "--r", "2", "--grid", "0.1"), nsc_first_point,
            (0.7962854757979625, [3, 5], "307e2098aba0982d", 13758)),
        "5x12 grid 0.1": (
            '{"kind":"gaussian","m":5,"n":12,"r":2,"k":2,"seed":3}',
            ("--k", "2", "--r", "2", "--grid", "0.1"), nsc_first_point,
            (0.7019241651158655, [2, 9], "492485742e1ae5b3", 36135)),
        "3x7 curve at r 1": (
            '{"kind":"gaussian","m":3,"n":7,"r":3,"k":1,"seed":1}',
            ("--k", "1", "--r", "1", "--grid", "0,0.1,0.5,1", "--restarts", "8"),
            lambda o: (o["curve"][-1]["p"], o["curve"][-1]["value"],
                       o["curve"][-1]["certificate_digest"],
                       [e["probes"] for e in o["certificates"]]),
            (1.0, 2.0456539002196816, "69ab1a9462a1a693", [0, 3645, 4318, 0])),
        "4x7 at p 0": (
            '{"kind":"gaussian","m":4,"n":7,"r":2,"k":2,"seed":3}',
            ("--k", "2", "--grid", "0"),
            lambda o: (o["curve"][0]["value"], o["certificates"][0]["exact"],
                       o["certificates"][0]["probes"]),
            (0.6666666666666666, True, 0)),
    }

    @pytest.mark.parametrize("name", list(WORKFLOW_NSC_PINS))
    def test_nsc_workflow_pins(self, capsys, tmp_path, name):
        spec, argv, read, want = self.WORKFLOW_NSC_PINS[name]
        dest = tmp_path / "gen.json"
        run_json(capsys, "gen", spec, "--out", str(dest))
        assert read(run_json(capsys, "nsc", str(dest), *argv)["outputs"]) == want

    def test_nsc_infinite_constant_is_encoded_in_curve_and_certificates(self, capsys,
                                                                         tmp_path):
        # columns 1 and 4 are equal, so the constant at p = 0 is +inf
        path = tmp_path / "dup.csv"
        path.write_text("1,2,3,1\n0,1,4,0\n2,0,1,2\n")
        outs = run_json(capsys, "nsc", str(path), "--k", "2", "--grid", "0,0.5")["outputs"]
        assert outs["curve"][0]["value"] == "inf"
        assert outs["certificates"][0]["value"] == "inf"

    def test_nsc_digest_covers_tol(self, capsys, example2_path):
        # --tol changes h(0), so it must change the digest of the arguments too
        reps = [run_json(capsys, "nsc", example2_path, "--k", "1", "--grid", "0,0.5",
                         "--tol", tol) for tol in ("1e-8", "0.5")]
        assert [rep["outputs"]["curve"][0]["value"] for rep in reps] == [0.25, "inf"]
        assert reps[0]["inputs_digest"] != reps[1]["inputs_digest"]

    def test_gen_then_solve_chain(self, capsys, tmp_path):
        dest = tmp_path / "gen.json"
        spec = '{"kind": "gaussian", "m": 6, "n": 10, "r": 2, "k": 3, "seed": 42}'
        run_json(capsys, "gen", spec, "--out", str(dest))
        rep = run_json(capsys, "solve", str(dest), "--method", "l20")
        assert rep["outputs"]["objective"] == 3.0
        assert len(rep["outputs"]["support"]) == 3


class TestReproduce:
    def test_example1(self, capsys):
        rep = run_json(capsys, "reproduce", "example1")
        outs = rep["outputs"]
        assert outs["all_pass"] is True
        names = {c["name"] for c in outs["checks"]}
        assert {"joint_row_sparsity", "columnwise_total_sparsity",
                "combined_columnwise_support_size"} <= names

    def test_example2(self, capsys):
        rep = run_json(capsys, "reproduce", "example2")
        outs = rep["outputs"]
        assert outs["all_pass"] is True
        by_name = {c["name"]: c for c in outs["checks"]}
        assert by_name["p_star"]["pass"] is True
        assert by_name["l20_support"]["actual"] == [2, 5]
        for q in ("0.3", "0.5", "0.8175"):
            assert by_name[f"nullspace_recovery_p_{q}"]["pass"] is True


def generated(capsys, tmp_path, spec: str, **change) -> str:
    """The path of a ``gen`` problem file, with *change* applied to its JSON."""
    dest = tmp_path / "gen.json"
    run_json(capsys, "gen", spec, "--out", str(dest))
    dest.write_text(json.dumps({**json.loads(dest.read_text()), **change}))
    return str(dest)


class TestOneExactSolvePerSweep:
    """The row-sparsest solution and A's decomposition do not depend on p:
    a sweep makes each once, whatever the grid."""

    def test_baseline_sweep_solves_and_decomposes_once(self, capsys, tmp_path, spectra,
                                                       exact_solves):
        path = generated(capsys, tmp_path,
                         '{"kind": "gaussian", "m": 6, "n": 10, "r": 2, "k": 3, "seed": 42}')
        spectra.clear()
        rows = run_json(capsys, "sweep", path, "--grid", "0.1:0.9:0.1",
                        "--seed", "1")["outputs"]["rows"]
        assert len(rows) == 9 and all(row["error"] == "" for row in rows)
        a = np.array(json.loads((tmp_path / "gen.json").read_text())["A"])
        assert len(spectra) == 1 and np.array_equal(spectra[0], a)     # 27 before
        assert exact_solves == [None]                                    # 9 before

    def test_reproduce_example2_decomposes_once(self, capsys, spectra):
        assert run_json(capsys, "reproduce", "example2")["outputs"]["all_pass"] is True
        assert len(spectra) == 1            # pstar reads the problem's; 2 before, 5 before that

    def test_reproduce_example1_decomposes_once(self, capsys, spectra, exact_solves):
        assert run_json(capsys, "reproduce", "example1")["outputs"]["all_pass"] is True
        assert len(spectra) == 1            # the column problems share it; 3 before
        assert exact_solves == [None] * 3   # the joint solve, then one per column

    def test_failed_exact_solve_is_every_row_error(self, capsys, tmp_path):
        # k = 1 is below the planted row count, so no support fits
        path = generated(capsys, tmp_path,
                         '{"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 3}', k=1)
        code, out, err = run(capsys, "sweep", path, "--grid", "0.5,0.9")
        assert (code, err) == (EXIT_OK, "")
        rows = json.loads(out)["outputs"]["rows"]
        assert [row.pop("p") for row in rows] == [0.5, 0.9]
        error = "Infeasible: no feasible support of cardinality <= 1"
        assert rows == [dict.fromkeys(("equivalent", "l2p_objective", "l20_objective",
                                       "distance", "best_method"), None) | {"error": error}] * 2
