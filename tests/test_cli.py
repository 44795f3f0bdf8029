"""Spec files, CLI commands, output formats, and the verification gate."""

import csv
import importlib.resources
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ghmc.cli import main
from ghmc.integrator import IntegratorConfig
from ghmc.kinetic import Kinetic
from ghmc.metric import ConstantMetric, GraphMetric
from ghmc.runspec import (
    SpecError,
    _chain_paths,
    _matrix,
    _write_samples_csv,
    execute,
    parse_run_spec,
)

GAUSS_SPEC = """\
# smoke-test run
[target]
name = std_gaussian
n = 1

[kinetic]
variant = euclidean
lambda = identity

[chain]
seed = 42
num_samples = 1000
warmup = 100
step_size = 0.1
num_steps = 20

[output]
samples = gauss.csv
diagnostics = gauss.json
"""


def _schema():
    text = (importlib.resources.files("ghmc") / "diagnostics_schema_v1.json").read_text()
    return json.loads(text)


def test_parse_happy_path():
    spec = parse_run_spec(GAUSS_SPEC)
    assert spec.model.name == "std_gaussian"
    assert spec.target_params == {"n": 1}
    assert spec.kinetic_variant == "euclidean"
    assert spec.config.seed == 42
    assert spec.config.num_samples == spec.num_samples == 1000
    assert spec.config.warmup == spec.warmup == 100
    assert spec.chains == 1
    assert spec.samples_path == "gauss.csv"


def test_unknown_key_is_named_with_line_and_suggestion():
    bad = GAUSS_SPEC.replace("step_size = 0.1", "stepsize = 0.1")
    with pytest.raises(SpecError) as err:
        parse_run_spec(bad)
    message = str(err.value)
    assert "stepsize" in message
    assert "step_size" in message  # suggestion
    assert err.value.line == 14


def test_unknown_section_and_target():
    with pytest.raises(SpecError, match="unknown section"):
        parse_run_spec("[targets]\nname = std_gaussian\n")
    with pytest.raises(SpecError, match="unknown target"):
        parse_run_spec("[target]\nname = gauss\n")


def test_duplicate_and_malformed_lines():
    with pytest.raises(SpecError, match="duplicate"):
        parse_run_spec("[chain]\nseed = 1\nseed = 2\n")
    with pytest.raises(SpecError, match="key = value"):
        parse_run_spec("[chain]\nseed 1\n")
    with pytest.raises(SpecError, match="outside"):
        parse_run_spec("seed = 1\n")


def test_missing_required_keys():
    with pytest.raises(SpecError, match="num_samples"):
        parse_run_spec(
            "[target]\nname = std_gaussian\n[kinetic]\nvariant = euclidean\n"
            "[chain]\nseed = 1\nstep_size = 0.1\nnum_steps = 5\n"
        )


def test_bad_value_types_carry_line_numbers():
    bad = GAUSS_SPEC.replace("seed = 42", "seed = forty-two")
    with pytest.raises(SpecError, match="integer") as err:
        parse_run_spec(bad)
    assert err.value.line == 11


def test_kinetic_metric_section_rules():
    with pytest.raises(SpecError, match="riemannian kinetic requires"):
        parse_run_spec(
            "[target]\nname = banana\n[kinetic]\nvariant = riemannian\n"
            "[chain]\nseed = 1\nnum_samples = 10\nstep_size = 0.1\nnum_steps = 2\n"
        )
    with pytest.raises(SpecError, match="remove the \\[metric\\]"):
        parse_run_spec(
            "[target]\nname = banana\n[kinetic]\nvariant = euclidean\n"
            "[metric]\nvariant = graph\n"
            "[chain]\nseed = 1\nnum_samples = 10\nstep_size = 0.1\nnum_steps = 2\n"
        )
    with pytest.raises(SpecError, match="not both"):
        parse_run_spec(
            "[target]\nname = banana\n[kinetic]\nvariant = student_t\nlambda = identity\n"
            "[metric]\nvariant = graph\n"
            "[chain]\nseed = 1\nnum_samples = 10\nstep_size = 0.1\nnum_steps = 2\n"
        )


_CHAIN = "[chain]\nseed = 1\nnum_samples = 10\nstep_size = 0.1\nnum_steps = 2\n"


@pytest.mark.parametrize(
    "sections, message, line",
    [
        ("[kinetic]\nvariant = riemannian\nlambda = identity\n[metric]\nvariant = graph\n",
         "takes its metric from \\[metric\\]", 5),
        ("[kinetic]\nvariant = euclidean\nnu = 3\n",
         "'nu' applies to the student_t kinetic only", 5),
        ("[kinetic]\nvariant = riemannian\n[metric]\nsigma = identity\n",
         "missing required key 'variant' in \\[metric\\]", None),
        # an empty [metric] is a [metric] section
        ("[kinetic]\nvariant = riemannian\n[metric]\n",
         "missing required key 'variant' in \\[metric\\]", None),
        ("[kinetic]\nvariant = student_t\n[metric]\n",
         "missing required key 'variant' in \\[metric\\]", None),
        ("[kinetic]\nvariant = euclidean\n[metric]\n", "remove the \\[metric\\] section", None),
        ("[kinetic]\nvariant = riemannian\n[metric]\nvariant = constant\n",
         "missing required key 'lambda' in \\[metric\\]", None),
        ("[kinetic]\nvariant = riemannian\n[metric]\nvariant = constant\nlambda = identity\n"
         "sigma = identity\n", "'sigma' applies to the graph metric only", 8),
        ("[kinetic]\nvariant = riemannian\n[metric]\nvariant = graph\nlambda = identity\n",
         "'lambda' applies to the constant metric only", 7),
        ("[kinetic]\nvariant = euclidean\n" + _CHAIN + "chains = 0\n",
         "chains must be at least 1", 10),
        ("[kinetic]\nvariant = euclidean\n" + _CHAIN + "jitter_steps = sometimes\n",
         "expected a boolean", 10),
    ],
)
def test_kinetic_metric_and_chain_refusals_cite_their_line(sections, message, line):
    text = "[target]\nname = banana\n" + sections
    if "[chain]" not in text:
        text += _CHAIN
    with pytest.raises(SpecError, match=message) as err:
        parse_run_spec(text)
    assert err.value.line == line


def test_a_false_jitter_steps_is_read():
    text = "[target]\nname = banana\n[kinetic]\nvariant = euclidean\n" + _CHAIN
    assert parse_run_spec(text + "jitter_steps = off\n").config.jitter_steps is False
    assert parse_run_spec(text + "jitter_steps = yes\n").config.jitter_steps is True


def test_matrix_specs():
    np.testing.assert_allclose(_matrix("identity", None, 2), np.eye(2))
    np.testing.assert_allclose(_matrix("scale:2.5", None, 2), 2.5 * np.eye(2))
    np.testing.assert_allclose(_matrix("diag:4,1", None, 2), np.diag([4.0, 1.0]))
    np.testing.assert_allclose(
        _matrix("1,0.9;0.9,1", None, 2), np.array([[1.0, 0.9], [0.9, 1.0]])
    )
    with pytest.raises(SpecError) as err:  # a UsageError, anchored to its line
        _matrix("diag:1,2,3", 7, 2)
    assert err.value.line == 7


def test_build_kinetic_variants():
    kin = parse_run_spec(GAUSS_SPEC).kinetic
    assert isinstance(kin, Kinetic)
    assert kin.nu == math.inf

    graph_spec = parse_run_spec(
        "[target]\nname = banana\n[kinetic]\nvariant = student_t\nnu = 3\n"
        "[metric]\nvariant = graph\nsigma = identity\n"
        "[chain]\nseed = 1\nnum_samples = 10\nstep_size = 0.01\nnum_steps = 2\n"
    )
    kin = graph_spec.kinetic
    assert isinstance(kin, Kinetic)
    assert isinstance(kin.field, GraphMetric)
    assert kin.nu == 3.0

    const_spec = parse_run_spec(
        "[target]\nname = banana\n[kinetic]\nvariant = riemannian\n"
        "[metric]\nvariant = constant\nlambda = diag:0.5,0.5\n"
        "[chain]\nseed = 1\nnum_samples = 10\nstep_size = 0.05\nnum_steps = 2\n"
    )
    kin = const_spec.kinetic
    assert isinstance(kin, Kinetic)
    assert kin.nu == math.inf
    assert isinstance(kin.field, ConstantMetric)


STUDENT_SPEC = (
    "[target]\nname = std_gaussian\nn = 2\n[kinetic]\nvariant = student_t\n"
    "[chain]\nseed = 3\nnum_samples = 20\nstep_size = 0.2\nnum_steps = 5\n"
)


def test_diagnostics_report_the_nu_that_ran(tmp_path):
    # the default nu of a student_t spec is the kinetic's 5.0; Gaussian
    # profiles report null
    report = execute(parse_run_spec(STUDENT_SPEC), out_dir=str(tmp_path))
    assert report.diagnostics["kinetic"] == {"variant": "student_t", "nu": 5.0}
    gauss = parse_run_spec(GAUSS_SPEC.replace("num_samples = 1000", "num_samples = 20"))
    report = execute(gauss, out_dir=str(tmp_path))
    assert report.diagnostics["kinetic"] == {"variant": "euclidean", "nu": None}
    jsonschema.validate(report.diagnostics, _schema())


def test_nan_nu_is_refused_when_the_kinetic_is_built():
    # parsing builds the kinetic, and the kinetic's refusal is cited at nu's line
    with pytest.raises(SpecError, match="degrees of freedom") as err:
        parse_run_spec(STUDENT_SPEC.replace("student_t\n", "student_t\nnu = nan\n"))
    assert err.value.line == 6


def test_spec_target_keys_and_kinds_come_from_the_catalog():
    from ghmc.model import catalog_entries

    # every spec key of a target at once, since mvn builds only from both
    sample = {"int": "2", "float": "1.5", "vector": "0,0", "matrix": "identity"}
    for entry in catalog_entries():
        keys = [key for key, (kind, _) in entry.params.items() if kind is not None]
        spec = parse_run_spec(
            f"[target]\nname = {entry.name}\n"
            + "".join(f"{key} = {sample[entry.params[key][0]]}\n" for key in keys)
            + "[kinetic]\nvariant = euclidean\n"
            "[chain]\nseed = 1\nnum_samples = 10\nstep_size = 0.1\nnum_steps = 2\n"
        )
        for key in keys:
            assert key in spec.target_params


def test_library_only_target_parameter_is_refused_with_its_line():
    with pytest.raises(SpecError, match="builtin_target") as err:
        parse_run_spec(
            "[target]\nname = halfspace_gaussian\nn = 2\nconstraints = 1,0\n"
            "[kinetic]\nvariant = euclidean\n"
            "[chain]\nseed = 1\nnum_samples = 10\nstep_size = 0.1\nnum_steps = 2\n"
        )
    assert err.value.line == 4
    assert "initial point" in str(err.value)


def test_mvn_spec_round_trip(tmp_path):
    text = (
        "[target]\nname = mvn\nmean = 0,0\ncov = 1,0.5;0.5,1\n"
        "[kinetic]\nvariant = euclidean\nlambda = identity\n"
        "[chain]\nseed = 2\nnum_samples = 200\nwarmup = 20\nstep_size = 0.3\nnum_steps = 8\n"
    )
    spec = parse_run_spec(text)
    report = execute(spec, out_dir=str(tmp_path))
    assert report.diagnostics["target"]["name"] == "mvn"
    jsonschema.validate(report.diagnostics, _schema())


@pytest.mark.parametrize("given, missing", [("mean = 0,0", "cov"), ("cov = 1,0;0,1", "mean")])
def test_an_mvn_spec_without_a_parameter_is_refused_at_its_name_line(given, missing, tmp_path,
                                                                      capsys):
    spec_file = tmp_path / "mvn.spec"
    spec_file.write_text(
        f"[target]\nname = mvn\n{given}\n"
        "[kinetic]\nvariant = euclidean\nlambda = identity\n"
        "[chain]\nseed = 2\nnum_samples = 10\nstep_size = 0.3\nnum_steps = 2\n"
    )
    assert main(["sample", str(spec_file), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"spec error: {spec_file}: line 2: target mvn requires {missing!r}\n"
    )


def test_execute_writes_csv_and_valid_diagnostics(tmp_path):
    spec = parse_run_spec(GAUSS_SPEC)
    report = execute(spec, out_dir=str(tmp_path))
    csv_path = tmp_path / "gauss.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "q1"
    assert len(lines) == 1001
    diag = json.loads((tmp_path / "gauss.json").read_text())
    jsonschema.validate(diag, _schema())
    assert abs(diag["mean"][0]) < 0.15
    assert diag["divergence_count"] == 0
    assert report.diagnostics["divergence_fraction"] == 0.0


def test_reruns_are_byte_identical(tmp_path):
    spec_file = tmp_path / "run.spec"
    spec_file.write_text(GAUSS_SPEC)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    assert main(["sample", str(spec_file), "--out-dir", str(out1)]) == 0
    assert main(["sample", str(spec_file), "--out-dir", str(out2)]) == 0
    assert (out1 / "gauss.csv").read_bytes() == (out2 / "gauss.csv").read_bytes()


def test_seed_override_changes_the_draws(tmp_path):
    spec_file = tmp_path / "run.spec"
    spec_file.write_text(GAUSS_SPEC)
    assert main(["sample", str(spec_file), "--out-dir", str(tmp_path)]) == 0
    first = (tmp_path / "gauss.csv").read_bytes()
    assert main(["sample", str(spec_file), "--out-dir", str(tmp_path), "--seed", "7"]) == 0
    second = (tmp_path / "gauss.csv").read_bytes()
    assert first != second
    diag = json.loads((tmp_path / "gauss.json").read_text())
    assert diag["seed"] == 7


@pytest.mark.parametrize("command", [
    ["{option}", "{value}", "sample", "{spec}"],
    ["verify", "{option}", "{value}"],
    ["list-targets", "{option}", "{value}"],
], ids=["before-sample", "verify", "list-targets"])
@pytest.mark.parametrize("option", ["--seed", "--out-dir"])
def test_seed_and_out_dir_are_options_of_sample_only(tmp_path, monkeypatch, command, option):
    # given anywhere but after `sample` they were parsed and then dropped:
    # the spec's seed ran, or the output landed in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.spec").write_text(GAUSS_SPEC)
    out = tmp_path / "out"
    out.mkdir()
    value = "5" if option == "--seed" else str(out)
    argv = [a.format(option=option, value=value, spec="run.spec") for a in command]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.spec"]
    assert not any(out.iterdir())


def test_cli_rejects_bad_spec_with_exit_2(tmp_path, capsys):
    spec_file = tmp_path / "bad.spec"
    spec_file.write_text(GAUSS_SPEC.replace("step_size = 0.1", "stepsize = 0.1"))
    assert main(["sample", str(spec_file)]) == 2
    err = capsys.readouterr().err
    assert "stepsize" in err and "line 14" in err
    assert main(["sample", str(tmp_path / "missing.spec")]) == 2


def test_scale_spec_takes_exactly_one_number(tmp_path, capsys):
    bad = GAUSS_SPEC.replace("lambda = identity", "lambda = scale:1,2")
    with pytest.raises(SpecError, match="number") as err:
        parse_run_spec(bad)
    assert err.value.line == 8
    spec_file = tmp_path / "bad.spec"
    spec_file.write_text(bad)
    assert main(["sample", str(spec_file), "--out-dir", str(tmp_path)]) == 2
    assert "line 8" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["diag:1,nan", "scale:inf", "1,0;0,-inf"])
def test_non_finite_matrix_entries_are_refused_with_their_line(matrix, tmp_path, capsys):
    bad = GAUSS_SPEC.replace("lambda = identity", f"lambda = {matrix}")
    with pytest.raises(SpecError, match="finite") as err:
        parse_run_spec(bad)
    assert err.value.line == 8
    spec_file = tmp_path / "bad.spec"
    spec_file.write_text(bad)
    assert main(["sample", str(spec_file), "--out-dir", str(tmp_path)]) == 2
    assert "line 8" in capsys.readouterr().err


def test_the_samples_csv_has_the_bytes_of_csv_writer(tmp_path):
    # the writer joins each float's repr itself, with csv.writer's bytes:
    # a signed zero, the least subnormal, a float that repr writes with an
    # exponent, and ones that need all 17 digits
    samples = np.array([[-0.0, 5e-324, 1e-300], [1e16, 0.1 + 0.2, 1 / 3]])
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["q1", "q2", "q3"])
    writer.writerows([repr(float(x)) for x in row] for row in samples)
    _write_samples_csv(tmp_path / "samples.csv", samples)
    assert (tmp_path / "samples.csv").read_bytes() == buffer.getvalue().encode("utf-8")


def test_multi_chain_paths_split_the_extension_not_a_directory_dot(tmp_path):
    assert _chain_paths("samples.csv", 2) == ["samples_chain0.csv", "samples_chain1.csv"]
    assert _chain_paths("samples", 2) == ["samples_chain0.csv", "samples_chain1.csv"]
    (tmp_path / "out.d").mkdir()
    spec_file = tmp_path / "dotted.spec"
    spec_file.write_text(
        GAUSS_SPEC.replace("num_samples = 1000", "num_samples = 20\nchains = 2")
        .replace("samples = gauss.csv", "samples = out.d/samples")
    )
    assert main(["sample", str(spec_file), "--out-dir", str(tmp_path)]) == 0
    for i in range(2):
        assert (tmp_path / "out.d" / f"samples_chain{i}.csv").is_file()


def test_cli_divergence_storm_exits_3_but_writes(tmp_path):
    spec_file = tmp_path / "storm.spec"
    spec_file.write_text(
        "[target]\nname = banana\n[kinetic]\nvariant = euclidean\n"
        "[chain]\nseed = 7\nnum_samples = 100\nstep_size = 2.0\nnum_steps = 20\n"
        "[output]\nsamples = storm.csv\ndiagnostics = storm.json\n"
    )
    assert main(["sample", str(spec_file), "--out-dir", str(tmp_path)]) == 3
    diag = json.loads((tmp_path / "storm.json").read_text())
    jsonschema.validate(diag, _schema())
    assert diag["divergence_fraction"] > 0.5


def test_multi_chain_outputs_and_merged_diagnostics(tmp_path):
    spec_file = tmp_path / "multi.spec"
    spec_file.write_text(
        "[target]\nname = std_gaussian\nn = 2\n[kinetic]\nvariant = euclidean\n"
        "[chain]\nseed = 5\nnum_samples = 150\nwarmup = 20\nstep_size = 0.3\n"
        "num_steps = 8\nchains = 3\n"
        "[output]\nsamples = s.csv\ndiagnostics = d.json\n"
    )
    assert main(["sample", str(spec_file), "--out-dir", str(tmp_path)]) == 0
    for i in range(3):
        lines = (tmp_path / f"s_chain{i}.csv").read_text().splitlines()
        assert lines[0] == "q1,q2"
        assert len(lines) == 151
    diag = json.loads((tmp_path / "d.json").read_text())
    jsonschema.validate(diag, _schema())
    assert diag["chains"] == 3
    assert len(diag["per_chain"]) == 3
    seeds = {c["seed"] for c in diag["per_chain"]}
    assert len(seeds) == 3


def test_list_targets_text_and_json(capsys):
    assert main(["list-targets"]) == 0
    text = capsys.readouterr().out
    names = [
        line.split()[0]
        for line in text.splitlines()
        if line and not line.startswith(" ")
    ]
    assert names == sorted(names)
    assert main(["list-targets", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in payload] == names
    assert all(set(e) == {"name", "params", "analytic_moments"} for e in payload)


def test_verify_command_exit_codes_and_table(monkeypatch, capsys):
    import ghmc.cli as cli
    from ghmc.verify import CheckResult

    def fake_checks():
        return [
            CheckResult("alpha", True, 1e-12, "<= 1e-10", "", 0.1),
            CheckResult("beta", True, 0.5, "<= 1", "detail", 0.2),
        ]

    monkeypatch.setattr(cli, "run_checks", fake_checks)
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "pass" in out and "all 2 checks passed" in out

    def failing_checks():
        return [CheckResult("gamma", False, 42.0, "<= 1", "way off", 0.1)]

    monkeypatch.setattr(cli, "run_checks", failing_checks)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "gamma" in captured.err and "42" in captured.err


def test_a_check_that_raises_fails_its_row_and_the_suite_runs_on(monkeypatch):
    from ghmc import verify

    @verify._check("fine", "<= 1")
    def passing():
        return True, 0.5, ""

    @verify._check("broken", "<= 1")
    def raising():
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(verify, "CHECKS", (passing, raising))
    first, second = verify.run_checks()
    assert first.passed and first.measured == 0.5
    assert (second.name, second.passed) == ("broken", False) and math.isnan(second.measured)
    assert second.detail == "raised ZeroDivisionError: float division by zero"


COLD_START = """\
import sys
def unloaded(step):
    assert "ghmc.verify" not in sys.modules, step
import ghmc
unloaded("import ghmc")
import ghmc.cli
unloaded("import ghmc.cli")
names = {}
exec("from ghmc import *", names)
unloaded("from ghmc import *")
assert set(ghmc.__all__) <= set(names)
unloaded("ghmc.__all__")
assert not hasattr(ghmc, "run_chian")
unloaded("hasattr")
assert ghmc.cli.main(["list-targets"]) == 0
unloaded("list-targets")
assert ghmc.cli.main(["sample", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
unloaded("sample")
import ghmc.verify
assert ghmc.verify.run_checks and ghmc.verify.CheckResult and ghmc.verify.CHECKS
print("cold start ok")
"""


def _python(*args):
    # a fresh interpreter that imports ghmc from this checkout's src/
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_import_and_sample_leave_the_verification_suite_unloaded(tmp_path):
    # only an import of ghmc.verify loads the suite: importing the package,
    # its names and its CLI, a mistyped attribute, list-targets and a sample
    # run leave it unloaded
    spec_file = tmp_path / "run.spec"
    spec_file.write_text(GAUSS_SPEC)
    run = _python("-c", COLD_START, str(spec_file), str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "cold start ok"


def test_the_cli_module_runs_as_a_script():
    run = _python("-m", "ghmc.cli", "list-targets")
    assert run.returncode == 0, run.stderr
    assert "std_gaussian" in run.stdout


def test_verify_detects_an_injected_christoffel_bug(monkeypatch):
    from ghmc import verify
    from ghmc.verify import check_christoffel

    original = verify.christoffel
    monkeypatch.setattr(verify, "christoffel", lambda field, q: -original(field, q))
    result = check_christoffel()
    assert not result.passed
    assert result.measured > 1e-2  # a sign flip is a gross error, far past tolerance


@pytest.mark.parametrize("injected", ["dense-inverse", "hessian-times-lam", "hessian-matmul-lam",
                                      "np-dot-hessian-lam", "np-matmul-hessian-lam-out"])
def test_verify_detects_an_injected_cubic_operation(monkeypatch, injected):
    # a metric state that also forms the dense inverse of Lam, or H lam as a
    # method, an operator or a function, into a new array or into out=: each
    # is O(n^3), and the step-operations count sees it at every size
    from ghmc import metric as metric_mod
    from ghmc.verify import check_step_operations

    original = metric_mod.GraphMetric.state_at

    def heavy(self, q, with_hessian=False):
        state = original(self, q, with_hessian)
        if injected == "dense-inverse":
            np.linalg.inv(state.base)
        elif with_hessian:
            h, lam = state.hessian, state.base
            {"hessian-times-lam": lambda: h.dot(lam), "hessian-matmul-lam": lambda: h @ lam,
             "np-dot-hessian-lam": lambda: np.dot(h, lam),
             "np-matmul-hessian-lam-out": lambda: np.matmul(h, lam, out=np.empty_like(h)),
             }[injected]()
        return state

    monkeypatch.setattr(metric_mod.GraphMetric, "state_at", heavy)
    result = check_step_operations()
    assert not result.passed
    assert result.measured >= 8  # at least one per size and kinetic


def test_verify_detects_the_stacked_hessian_times_lam(monkeypatch):
    # the state's H stacked over g, an (n + 1) x n array, times lam: an
    # O(n^3) product that step-operations watches as it watches H
    from ghmc import metric as metric_mod
    from ghmc.verify import check_step_operations

    original = metric_mod.GraphMetric.state_at

    def heavy(self, q, with_hessian=False):
        state = original(self, q, with_hessian)
        if with_hessian:
            state.stacked.dot(state.base)
        return state

    monkeypatch.setattr(metric_mod.GraphMetric, "state_at", heavy)
    result = check_step_operations()
    assert not result.passed
    assert result.measured >= 8  # at least one per size and kinetic


def test_verify_detects_a_force_that_is_not_a_gradient(monkeypatch):
    # a curl added to std_gaussian's gradient: every kick keeps det J = 1
    # whatever its force, so the volume row passes, but the step no longer
    # keeps dq^dp, which the symplecticity row reads from the same Jacobians
    from ghmc import verify

    build = verify.builtin_target

    def curled(name, **params):
        model = build(name, **params)
        if name != "std_gaussian":
            return model
        return replace(model, gradient=lambda q: np.array([q[0] + 0.3 * q[1], q[1] - 0.3 * q[0]]))

    monkeypatch.setattr(verify, "builtin_target", curled)
    assert verify.check_volume_preservation().passed
    result = verify.check_symplecticity()
    assert not result.passed
    assert result.measured > 1e-2


def test_verify_detects_an_injected_graph_metric_bug(monkeypatch):
    # the raised gradient g_up = lam g returned as g: right on the identity
    # background, wrong on the mapped one, so H changes under Q = A q
    from ghmc import metric as metric_mod
    from ghmc.verify import check_coordinate_invariance

    original = metric_mod.GraphMetric._raised_gradient

    def unraised(self, q):
        g, _, denom = original(self, q)
        return g, g, denom

    monkeypatch.setattr(metric_mod.GraphMetric, "_raised_gradient", unraised)
    result = check_coordinate_invariance()
    assert not result.passed
    assert result.measured > 1e-2


def test_verify_detects_a_reflection_through_the_identity(monkeypatch):
    # a step that reflects through I in place of Lam(q) makes a Householder
    # map: the chain still samples the target, but the kinetic energy is not
    # conserved and the trajectory through a wall no longer maps under
    # Q = A q.  Swapping Lam dc for dc in the reflection that both the step
    # and reflect_momentum end in puts I at the step's reflections.
    from ghmc import integrator
    from ghmc.verify import check_covariance

    mirror = integrator._mirror
    monkeypatch.setattr(integrator, "_mirror", lambda p, dc, lam_dc: mirror(p, dc, dc))
    result = check_covariance()
    assert not result.passed
    assert result.measured > 0.1, result.detail


def _without_rank1(self, q, rng):
    return self.background.sample_gaussian(q, rng)


def _rank1_scaled(self, q, rng):
    g = self.model.gradient(np.asarray(q, float))
    return self.background.sample_gaussian(q, rng) + 1.1 * g * rng.standard_normal()


def _chisquare_with_one_more_degree(self, q, rng):
    z = self.field.sample_gaussian(q, rng)
    return z if self.nu == math.inf else z * math.sqrt(self.nu / rng.chisquare(self.nu + 1.0))


@pytest.mark.parametrize("owner, name, injected", [
    (GraphMetric, "sample_gaussian", _without_rank1),
    (GraphMetric, "sample_gaussian", _rank1_scaled),
    (Kinetic, "sample_momentum", _chisquare_with_one_more_degree),
], ids=["graph-draw-without-rank1", "graph-draw-rank1-scaled", "chisquare-nu-plus-one"])
def test_verify_detects_an_injected_momentum_draw_bug(monkeypatch, owner, name, injected):
    # a momentum draw that no longer follows exp(-T(q, .)) breaks
    # E[grad_p T p^T] = I, and the admissibility row sees it past its bound
    from ghmc.verify import check_admissibility

    monkeypatch.setattr(owner, name, injected)
    result = check_admissibility()
    assert not result.passed
    assert result.measured > 6.0, result.detail


def _run_refused(tmp_path, capsys, spec_text, *options):
    # `ghmc sample` on a spec that must be refused: exit 2, one line on
    # stderr, and no chain run
    spec_file = tmp_path / "refused.spec"
    spec_file.write_text(spec_text)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    assert main(["sample", str(spec_file), "--out-dir", str(out), *options]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not any(out.iterdir())
    return err


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("lambda = identity", "lambda = 1,0;0", 8),
        ("name = std_gaussian\nn = 1", "name = mvn\nmean = 0,0\ncov = 1,0.5;0.5", 5),
    ],
    ids=["kinetic-lambda", "mvn-cov"],
)
def test_unequal_matrix_rows_are_refused_with_their_line(old, new, line, tmp_path, capsys):
    bad = GAUSS_SPEC.replace(old, new)
    with pytest.raises(SpecError, match="equal length") as err:
        parse_run_spec(bad)
    assert err.value.line == line
    assert f"line {line}" in _run_refused(tmp_path, capsys, bad)


def test_a_near_singular_lambda_exits_2_at_its_line(tmp_path, capsys):
    # the matrix factors, but its inverse does not: a ValidationError cited
    # at the lambda line, not a traceback
    lam = "1.000000000000001,2.0,3.0;2.0,4.000000000000001,6.0;3.0,6.0,9.000000000000002"
    bad = GAUSS_SPEC.replace("n = 1", "n = 3").replace("lambda = identity", f"lambda = {lam}")
    assert "line 8: inverse metric is too near singular" in _run_refused(tmp_path, capsys, bad)


def test_a_negative_seed_exits_2(tmp_path, capsys):
    bad = GAUSS_SPEC.replace("seed = 42", "seed = -1")
    assert "seed" in _run_refused(tmp_path, capsys, bad)
    assert "seed" in _run_refused(tmp_path, capsys, GAUSS_SPEC, "--seed", "-3")


def test_a_nan_step_size_exits_2(tmp_path, capsys):
    # refused when the integrator config is built, not run as a divergence
    # storm; so is an infinite one
    for value in ("nan", "inf"):
        bad = GAUSS_SPEC.replace("step_size = 0.1", f"step_size = {value}")
        assert "step_size" in _run_refused(tmp_path, capsys, bad)


@pytest.mark.parametrize(
    "key, value",
    [("step_size", "0"), ("fp_tol", "nan"), ("num_steps", "0"), ("fp_max_iter", "0"),
     ("seed", "-1"), ("warmup", "-3"), ("num_samples", "0")],
)
def test_a_chain_value_its_config_refuses_is_cited_at_its_line(tmp_path, capsys, key, value):
    lines = [line for line in GAUSS_SPEC.splitlines() if not line.startswith(f"{key} =")]
    at = lines.index("[chain]") + 1
    lines.insert(at, f"{key} = {value}")
    err = _run_refused(tmp_path, capsys, "\n".join(lines) + "\n")
    assert err.startswith(f"spec error: {tmp_path / 'refused.spec'}: line {at + 1}: {key} "), err


def _mvn_spec(key, matrix):
    # a 2-d mvn spec with ``matrix`` as the value of ``key``, identity elsewhere
    kinetic = {
        "target-cov": "euclidean\n",
        "kinetic-lambda": "euclidean\nlambda = M\n",
        "metric-lambda": "riemannian\n[metric]\nvariant = constant\nlambda = M\n",
        "metric-sigma": "student_t\n[metric]\nvariant = graph\nsigma = M\n",
    }[key]
    cov = "M" if key == "target-cov" else "identity"
    text = f"[target]\nname = mvn\nmean = 0,0\ncov = {cov}\n[kinetic]\nvariant = {kinetic}"
    return (text + _CHAIN).replace("M", matrix)


@pytest.mark.parametrize(
    "matrix",
    ["diag:1,2,3", "1,0,0;0,1,0;0,0,1", "1,2;2,1", "1,2;0,1"],
    ids=["diag-size", "rows-size", "indefinite", "non-symmetric"],
)
@pytest.mark.parametrize("key", ["target-cov", "kinetic-lambda", "metric-lambda", "metric-sigma"])
def test_a_refused_matrix_names_its_line(key, matrix, tmp_path, capsys):
    # the size is checked where the matrix is read and symmetry and
    # definiteness where it is built; both refusals cite the key's line
    text = _mvn_spec(key, matrix)
    line = text.splitlines().index(f"{key.split('-')[1]} = {matrix}") + 1
    with pytest.raises(SpecError) as err:
        parse_run_spec(text)
    assert err.value.line == line
    assert f"line {line}: " in _run_refused(tmp_path, capsys, text)


@pytest.mark.parametrize("mean", ["nan,0", "0,-inf"])
def test_a_non_finite_vector_is_refused_with_its_line(mean, tmp_path, capsys):
    text = _mvn_spec("target-cov", "identity").replace("mean = 0,0", f"mean = {mean}")
    assert "line 3: " in _run_refused(tmp_path, capsys, text)


@pytest.mark.parametrize("name, n", [("std_gaussian", -1), ("halfspace_gaussian", 0)])
def test_a_dimension_below_one_exits_2(name, n, tmp_path, capsys):
    bad = GAUSS_SPEC.replace("name = std_gaussian\nn = 1", f"name = {name}\nn = {n}")
    assert "line 3: dimension must be >= 1" in _run_refused(tmp_path, capsys, bad)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_target_float_is_refused_with_its_line(value, tmp_path, capsys):
    bad = GAUSS_SPEC.replace("name = std_gaussian\nn = 1", f"name = banana\na = {value}")
    assert f"line 4: expected a finite number, got '{value}'" in _run_refused(
        tmp_path, capsys, bad
    )


@pytest.mark.parametrize(
    "edits",
    [
        {"samples = gauss.csv": "samples ="},
        {"diagnostics = gauss.json": "diagnostics ="},
        {"samples = gauss.csv": "samples = ."},
        {"diagnostics = gauss.json": "diagnostics = .."},
        {"diagnostics = gauss.json": "diagnostics = ./gauss.csv"},
        {"num_steps = 20": "num_steps = 20\nchains = 2", "gauss.json": "gauss_chain0.csv"},
    ],
    ids=[
        "empty-samples",
        "empty-diagnostics",
        "samples-names-a-directory",
        "diagnostics-names-a-directory",
        "diagnostics-overwrites-the-samples",
        "diagnostics-overwrites-a-chain",
    ],
)
def test_output_paths_are_checked_before_any_chain(edits, tmp_path, capsys):
    # refused before the first chain, so that no output is lost or overwritten
    text = GAUSS_SPEC.replace("num_samples = 1000", "num_samples = 20")
    for old, new in edits.items():
        text = text.replace(old, new)
    _run_refused(tmp_path, capsys, text)


def test_a_missing_output_directory_exits_2_before_any_chain(tmp_path, capsys, monkeypatch):
    import ghmc.runspec

    ran = []
    monkeypatch.setattr(ghmc.runspec, "run_chain", lambda *args: ran.append(args))
    spec_file = tmp_path / "run.spec"
    spec_file.write_text(GAUSS_SPEC)
    missing = tmp_path / "missing"
    assert main(["sample", str(spec_file), "--out-dir", str(missing)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(missing) in err
    assert ran == [] and not missing.exists()


def test_a_spec_that_is_not_utf8_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "binary.spec"
    spec_file.write_bytes(b"[target]\nname = std_gaussian\n\xff\xfe = 1\n")
    assert main(["sample", str(spec_file), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "UTF-8" in err


def test_integrator_keys_reach_the_integrator_config(tmp_path, monkeypatch):
    import ghmc.runspec

    configs = []
    real_run_chain = ghmc.runspec.run_chain

    def recording_run_chain(model, kinetic, cfg):
        configs.append(cfg)
        return real_run_chain(model, kinetic, cfg)

    monkeypatch.setattr(ghmc.runspec, "run_chain", recording_run_chain)
    text = GAUSS_SPEC.replace("num_samples = 1000", "num_samples = 20").replace(
        "num_steps = 20",
        "num_steps = 20\nfp_tol = 1e-9\nfp_max_iter = 7",
    )
    execute(parse_run_spec(text), out_dir=str(tmp_path))
    (cfg,) = configs
    assert cfg.integrator == IntegratorConfig(
        step_size=0.1,
        num_steps=20,
        fp_tol=1e-9,
        fp_max_iter=7,
    )


def _readme_spec_block():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("### Spec files", 1)[1].split("```\n", 2)[1]


def test_readme_spec_block_parses_builds_and_names_every_key():
    from ghmc.model import catalog_entries
    from ghmc.runspec import _KEYS

    block = _readme_spec_block()
    # trailing comments go; whole-line comments are the parser's to skip
    spec = parse_run_spec("\n".join(re.sub(r"\s+#.*", "", line) for line in block.splitlines()))
    assert spec.kinetic.field.n == spec.model.n

    documented, section = set(), None
    for line in block.splitlines():
        line = re.sub(r"\s+#.*", "", line.lstrip("# "))
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            documented.add((section, line.split("=", 1)[0].strip()))
    catalog = {("target", key) for entry in catalog_entries() for key in entry.params}
    accepted = {(section, key) for section, keys in _KEYS.items() for key in keys}
    assert documented - catalog == accepted
