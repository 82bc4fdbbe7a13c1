import csv
import filecmp
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochavg import acceptance_system, cli, parse_field_expr, parse_system_text, stats
from stochavg.cli import EXIT_CONFIG, EXIT_NONFINITE, EXIT_OK, EXIT_STRICT
from stochavg.model import Frequencies, SystemSpec, orthogonality_residual, random_states
from stochavg.systems import ACCEPTANCE_V0

RESONANT_CONFIG = """\
format = 1

[system]
n = 2
lambdas = 1.0, 2.0
epsilon = 0.5
psi_kind = constant
v0 = 1+0j, 1+0j

[drift]
p1 = -v1
p2 = -v2

[dispersion]
psi_1_1 = 1
psi_2_2 = 1
"""

FROZEN_CONFIG = """\
format = 1

[system]
n = 1
lambdas = 1.0
epsilon = 1.0
psi_kind = constant
v0 = 1+0j

[drift]
p1 = 0

[dispersion]
psi_1_1 = 0
"""

EXPLOSIVE_CONFIG = """\
format = 1

[system]
n = 1
lambdas = 1.0
epsilon = 1.0
psi_kind = constant
v0 = 10+0j

[drift]
p1 = 100*abs2(v1)*v1

[dispersion]
psi_1_1 = 0
"""


# system_to_text(acceptance_system(), ACCEPTANCE_V0) as written into the
# manifests of `--config acceptance` runs while system text was printed from
# parse trees; such a manifest must still replay
ACCEPTANCE_PARSE_TREE_TEXT = """\
format = 1

[system]
n = 2
n1 = 2
lambdas = 1.0, 1.4142135623730951
epsilon = 0.05
psi_kind = constant
m0 = 3.0
v0 = (1+0j), (1+0j)

[drift]
p1 = -v1 + 1.8*v2
p2 = -v2

[hamiltonian]
h = abs2(v1)*abs2(v2)

[dispersion]
psi_1_1 = 1.0
psi_1_2 = 0.0
psi_2_1 = 0.0
psi_2_2 = 1.0
"""


@pytest.fixture
def resonant_cfg(tmp_path):
    p = tmp_path / "resonant.cfg"
    p.write_text(RESONANT_CONFIG)
    return p


def test_check_reports_resonance(tmp_path, resonant_cfg, capsys):
    rc = cli.main(["check", "--config", str(resonant_cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "RESONANT" in out
    assert "(2, -1)" in out
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["nonresonance"]["resonant"]
    assert report["nonresonance"]["witness"] == [2, -1]


def test_average_prints_resonant_monomials(tmp_path, capsys):
    rc = cli.main(["average", "--config", "acceptance", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "component 1 = -1*a1 + 1i*a1*abs2(a2)" in out
    assert "component 2 = -1*a2 + 1i*a2*abs2(a1)" in out


def test_average_numeric_evaluation(tmp_path, capsys):
    rc = cli.main(["average", "--config", "acceptance", "--out", str(tmp_path),
                   "--at", "1+0j,2+0j"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    # -a1 + i a1 |a2|^2 at a = (1, 2) is -1 + 4i
    assert "component 1 at a = -1+4j" in out
    payload = json.loads((tmp_path / "average.json").read_text())
    assert payload["values"][0] == [-1.0, 4.0]
    assert len(payload["averaged_drift"]) == 2  # numeric lines stay out of it


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("format = 3\n[system]\nn = 1\n")
    assert cli.main(["check", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert cli.main(["check", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("text, named", [
    (RESONANT_CONFIG.replace("epsilon = 0.5", "epsilom = 0.01"), "system.epsilom"),
    (FROZEN_CONFIG + "psi_1_2 = 1\n", "dispersion.psi_1_2"),  # n1 = n = 1
    (RESONANT_CONFIG.replace("[dispersion]", "[dispersoin]"), "[dispersoin]"),
    # configparser copies a default section's keys into every section, and
    # they were reported as keys of [system]
    (RESONANT_CONFIG + "\n[DEFAULT]\nfoo = 1\n", "unknown section [DEFAULT]"),
], ids=["misspelt-key", "psi-past-n1", "misspelt-section", "default-section"])
def test_unknown_config_key_or_section_exits_2(tmp_path, capsys, text, named):
    # each was dropped without a word: the run used another system than the file's
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    assert cli.main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err, err
    assert len(err.strip().splitlines()) == 1, err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("key, bad", [("n1", "two"), ("m0", "big"), ("alpha", "x")])
def test_bad_config_number_names_its_key(tmp_path, capsys, key, bad):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(RESONANT_CONFIG.replace("n = 2\n", f"n = 2\n{key} = {bad}\n"))
    assert cli.main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"configuration error: bad value for system.{key}: {bad!r}\n"


@pytest.mark.parametrize("text", [
    FROZEN_CONFIG.replace("n = 1\n", "n = 1\nn1 = 0\n").split("[dispersion]")[0],
    FROZEN_CONFIG.replace("n = 1\n", "n = 1\nn1 = 0\n"),
], ids=["no-dispersion", "with-dispersion"])
def test_config_n1_below_one_names_its_key(tmp_path, capsys, text):
    # checked as n is: the run stopped on SystemSpec's row length, or on an
    # unknown psi_1_1, and neither named system.n1
    cfg = tmp_path / "n1.cfg"
    cfg.write_text(text)
    assert cli.main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: system.n1 must be >= 1\n"


def test_nonfinite_exits_3(tmp_path):
    cfg = tmp_path / "explosive.cfg"
    cfg.write_text(EXPLOSIVE_CONFIG)
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                   "--system", "effective", "--T", "1.0", "--dtau", "0.01",
                   "--paths", "2"])
    assert rc == EXIT_NONFINITE


def test_compare_strict_flags_flat_distances(tmp_path):
    # frozen system: all distances are ~0, so no strict decrease -> exit 4
    cfg = tmp_path / "frozen.cfg"
    cfg.write_text(FROZEN_CONFIG)
    rc = cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path),
                   "--eps-list", "0.5,0.1", "--times", "0.5", "--T", "0.5",
                   "--paths", "16", "--strict"])
    assert rc == EXIT_STRICT


def test_simulate_writes_normative_csv(tmp_path, resonant_cfg):
    rc = cli.main(["simulate", "--config", str(resonant_cfg), "--out", str(tmp_path),
                   "--system", "perturbed", "--T", "0.1", "--dtau", "0.01",
                   "--paths", "3", "--record-times", "0.0,0.1"])
    assert rc == EXIT_OK
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,time,k,re,im"
    assert len(lines) == 1 + 3 * 2 * 2  # paths x times x components
    rc = cli.main(["simulate", "--config", str(resonant_cfg), "--out", str(tmp_path),
                   "--system", "action", "--T", "0.1", "--dtau", "0.01",
                   "--paths", "2", "--i0", "0.5,0.5"])
    assert rc == EXIT_OK
    assert (tmp_path / "paths.csv").read_text().splitlines()[0] == "path,time,k,I"


def test_compare_csv_schema_and_plotdata(tmp_path, resonant_cfg):
    rc = cli.main(["compare", "--config", str(resonant_cfg), "--out", str(tmp_path),
                   "--eps-list", "0.5,0.1", "--times", "0.25", "--T", "0.25",
                   "--paths", "60", "--seed", "5"])
    assert rc == EXIT_OK
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "eps,time,metric,estimate,ci_lo,ci_hi,noise_floor"
    assert len(lines) == 3
    rows = json.loads((tmp_path / "convergence.json").read_text())
    assert {r["eps"] for r in rows} == {0.5, 0.1}
    plot = (tmp_path / "plotdata.csv").read_text().splitlines()
    assert plot[0] == "series,x,y,lo,hi"
    assert len(plot) == 3


def test_couple_demo_artifacts(tmp_path):
    rc = cli.main(["couple-demo", "--config", "acceptance", "--out", str(tmp_path),
                   "--T", "0.2", "--paths", "20", "--delta", "0.1",
                   "--delta-list", "0.2,0.1", "--R", "16"])
    assert rc == EXIT_OK
    seg = (tmp_path / "segments.csv").read_text().splitlines()
    assert seg[0] == "path,seg_index,kind,start_time,end_time"
    occ = (tmp_path / "occupation.csv").read_text().splitlines()
    assert occ[0] == "delta,k,estimate"
    assert len(occ) == 1 + 2 * 2


def _numeric_fields_parse(path, text_columns=()):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        for col, val in row.items():
            if col not in text_columns:
                float(val)


def test_couple_demo_then_plot_data_parses_every_field(tmp_path):
    rc = cli.main(["couple-demo", "--config", "acceptance", "--out", str(tmp_path),
                   "--T", "0.2", "--paths", "10", "--delta-list", "0.2,0.1"])
    assert rc == EXIT_OK
    _numeric_fields_parse(tmp_path / "segments.csv", text_columns=("kind",))
    before = (tmp_path / "plotdata.csv").read_bytes()
    (tmp_path / "plotdata.csv").unlink()
    assert cli.main(["plot-data", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "plotdata.csv").read_bytes() == before
    for system, extra in (("effective", []), ("action", ["--i0", "0.5,0.5"])):
        out = tmp_path / system
        rc = cli.main(["simulate", "--config", "acceptance", "--out", str(out),
                       "--system", system, "--T", "0.05", "--dtau", "0.01",
                       "--paths", "3"] + extra)
        assert rc == EXIT_OK
        _numeric_fields_parse(out / "paths.csv")


def test_import_loads_no_scipy():
    # neither scipy nor numpy.random: PCG64 is built only when a path draws
    code = ("import sys, stochavg, stochavg.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'random']))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_mixing_writes_the_distance_csv_schema_bytes(tmp_path):
    rc = cli.main(["mixing", "--config", "acceptance", "--out", str(tmp_path),
                   "--v0-a", "1+0j,0.5+0j", "--v0-b", "0.5+0j,1+0j", "--times", "0.1,0.2",
                   "--T", "0.2", "--dtau", "0.01", "--paths", "40", "--seed", "3"])
    assert rc == EXIT_OK
    # the same profile, spelled out the way the mixing command used to write it
    spec = acceptance_system()
    rows = stats.mixing_profile(spec, "full", np.array([1 + 0j, 0.5 + 0j]),
                                np.array([0.5 + 0j, 1 + 0j]), 0.2, 0.01, 40, 3, [0.1, 0.2])
    assert [r.time for r in rows] == [0.1, 0.2]
    assert any(r.estimate > 0 for r in rows)
    lines = ["eps,time,metric,estimate,ci_lo,ci_hi,noise_floor\n"]
    payload = []
    for r in rows:
        lines.append(f"{spec.epsilon!r},{r.time!r},bl_state_distance,{r.estimate!r},"
                     f"{r.ci_lo!r},{r.ci_hi!r},{r.noise_floor!r}\n")
        payload.append({"eps": spec.epsilon, "time": r.time, "metric": "bl_state_distance",
                        "estimate": r.estimate, "ci_lo": r.ci_lo, "ci_hi": r.ci_hi,
                        "noise_floor": r.noise_floor})
    assert (tmp_path / "mixing.csv").read_text(encoding="utf-8") == "".join(lines)
    assert (tmp_path / "mixing.json").read_text() == json.dumps(payload, indent=2,
                                                                 sort_keys=True)


def test_mixing_labels_each_distance_with_its_time_in_any_order(tmp_path):
    # the profile is computed in ascending time; a descending --times list
    # must not put the tau = 0.1 distance on the tau = 0.2 row, and a
    # repeated time is one row
    outs = []
    for order in ("0.1,0.2", "0.2,0.1", "0.2,0.1,0.2"):
        out = tmp_path / order
        rc = cli.main(["mixing", "--config", "acceptance", "--out", str(out),
                       "--v0-a", "1+0j,0.5+0j", "--v0-b", "0.5+0j,1+0j", "--times", order,
                       "--T", "0.2", "--dtau", "0.01", "--paths", "40", "--seed", "3"])
        assert rc == EXIT_OK
        outs.append(out)
    for name in ("mixing.csv", "mixing.json", "plotdata.csv"):
        for out in outs[1:]:
            assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), (name, out)
    rows = json.loads((outs[2] / "mixing.json").read_text())
    assert [r["time"] for r in rows] == [0.1, 0.2]
    assert rows[0]["estimate"] != rows[1]["estimate"]


def test_a_repeated_time_is_one_row(tmp_path):
    # a repeated time is solved once; before, --strict compared the repeated
    # row with its own copy and exited 4
    argv = ["compare", "--config", "acceptance", "--eps-list", "0.2,0.0125", "--T", "0.5",
            "--paths", "300", "--seed", "3", "--strict"]
    codes = [cli.main(argv + ["--times", times, "--out", str(tmp_path / times)])
             for times in ("0.5", "0.5,0.5")]
    assert codes[0] == codes[1]
    for name in ("convergence.csv", "convergence.json", "plotdata.csv"):
        assert (tmp_path / "0.5" / name).read_bytes() == \
            (tmp_path / "0.5,0.5" / name).read_bytes(), name
    assert len(json.loads((tmp_path / "0.5,0.5" / "convergence.json").read_text())) == 2


@pytest.mark.parametrize("argv", [
    ["--ou", "{out}", "--config", "acceptance"],
    ["--out", "{out}", "--conf", "acceptance"],
])
def test_abbreviated_options_exit_2(tmp_path, monkeypatch, argv):
    # a prefix would keep --out in the manifest's argv, and stops replaying
    # once a new option makes it ambiguous
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    argv = ["simulate", "--paths", "2", "--T", "0.01"] + [a.format(out=out) for a in argv]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == EXIT_CONFIG
    assert not list(tmp_path.rglob("manifest.json"))


def test_mixing_artifacts_and_zero_profile(tmp_path, capsys):
    rc = cli.main(["mixing", "--config", "acceptance", "--out", str(tmp_path),
                   "--v0-a", "1+0j,1+0j", "--v0-b", "1+0j,1+0j",
                   "--times", "0.1,0.2", "--T", "0.2", "--dtau", "0.01",
                   "--paths", "32"])
    assert rc == EXIT_OK
    rows = json.loads((tmp_path / "mixing.json").read_text())
    assert all(r["estimate"] == 0.0 for r in rows)


def test_plot_data_errors_on_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["plot-data", str(empty)]) == EXIT_CONFIG


def test_plot_data_rebuilds_from_artifacts(tmp_path, resonant_cfg):
    cli.main(["compare", "--config", str(resonant_cfg), "--out", str(tmp_path),
              "--eps-list", "0.5,0.1", "--times", "0.25", "--T", "0.25",
              "--paths", "40"])
    before = (tmp_path / "plotdata.csv").read_bytes()
    (tmp_path / "plotdata.csv").unlink()
    assert cli.main(["plot-data", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "plotdata.csv").read_bytes() == before


def test_manifest_reproduces_run_bit_exactly(tmp_path, resonant_cfg):
    first = tmp_path / "first"
    rc = cli.main(["compare", "--config", str(resonant_cfg), "--out", str(first),
                   "--eps-list", "0.5,0.1", "--times", "0.25", "--T", "0.25",
                   "--paths", "50", "--seed", "11"])
    assert rc == EXIT_OK
    replay = tmp_path / "replay"
    rc = cli.run_from_manifest(first / "manifest.json", replay)
    assert rc == EXIT_OK
    assert filecmp.cmp(first / "convergence.csv", replay / "convergence.csv",
                       shallow=False)
    assert filecmp.cmp(first / "plotdata.csv", replay / "plotdata.csv", shallow=False)


REPLAY_ARGV = {
    "check": ["check", "--samples", "16", "--seed", "3"],
    "average": ["average", "--at", "1+0j,2+0j"],
    "simulate": ["simulate", "--system", "action", "--T", "0.05", "--dtau", "0.01",
                 "--paths", "3", "--i0", "0.5,0.25", "--seed", "4"],
    "compare": ["compare", "--eps-list", "0.5,0.1", "--times", "0.25", "--T", "0.25",
                "--paths", "30", "--seed", "11"],
    "couple-demo": ["couple-demo", "--config", "acceptance", "--T", "0.1", "--paths", "10",
                    "--delta-list", "0.2,0.1", "--seed", "2"],
    "mixing": ["mixing", "--config", "acceptance", "--v0-a", "1+0j,0.5+0j",
               "--v0-b", "0.5+0j,1+0j", "--times", "0.1", "--T", "0.1",
               "--dtau", "0.01", "--paths", "20"],
    "acceptance": ["acceptance", "--criteria", "1,3", "--paths", "50"],
}


@pytest.mark.parametrize("command", sorted(REPLAY_ARGV))
def test_manifest_replays_each_command_bit_exactly(tmp_path, resonant_cfg, command):
    argv = REPLAY_ARGV[command]
    if command != "acceptance" and "--config" not in argv:
        argv = argv + ["--config", str(resonant_cfg)]
    _assert_replays_bit_exactly(tmp_path, argv)


# state-dependent dispersions: the first averages to diagonal A(a) and S(I),
# whose roots are taken per mode; the cv1*v2 entry of the second makes both
# non-diagonal, so their roots are batched matrix roots
SMOOTH_PSI = {"diagonal": "psi_1_1 = 1\npsi_1_2 = 0.5*v1\npsi_2_2 = 1\n",
              "cross": "psi_1_1 = 1\npsi_1_2 = 0.5*v1\npsi_2_1 = 0.5*cv1*v2\npsi_2_2 = 1\n"}


@pytest.mark.parametrize("system", ["effective", "action"])
@pytest.mark.parametrize("psi", sorted(SMOOTH_PSI))
def test_manifest_replays_state_dependent_psi_bit_exactly(tmp_path, psi, system):
    cfg = tmp_path / "smooth.cfg"
    cfg.write_text(RESONANT_CONFIG.replace("psi_kind = constant", "psi_kind = smooth")
                   .replace("v0 = 1+0j, 1+0j", "v0 = 1+0.5j, 0.5-1j")
                   .replace("psi_1_1 = 1\npsi_2_2 = 1\n", SMOOTH_PSI[psi]))
    _assert_replays_bit_exactly(tmp_path, ["simulate", "--system", system, "--T", "0.05",
                                           "--paths", "20", "--seed", "6", "--config", str(cfg)])


def _assert_replays_bit_exactly(tmp_path, argv):
    first = tmp_path / "first"
    assert cli.main(argv + ["--out", str(first)]) == EXIT_OK
    replay = tmp_path / "replay"
    assert cli.run_from_manifest(first / "manifest.json", replay) == EXIT_OK
    # the manifest too: it names neither the config path nor the output dir
    artifacts = sorted(p.name for p in first.iterdir())
    assert "manifest.json" in artifacts and len(artifacts) > 1
    for name in artifacts:
        assert filecmp.cmp(first / name, replay / name, shallow=False), name


def test_manifest_records_its_environment_and_replays_without_it(tmp_path, resonant_cfg,
                                                                 monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    first = tmp_path / "first"
    assert cli.main(["simulate", "--system", "effective", "--T", "0.05", "--paths", "5",
                     "--config", str(resonant_cfg), "--out", str(first)]) == EXIT_OK
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest.pop("environment") == {
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(), "openblas_num_threads": None}
    # a manifest written before the environment was recorded
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert cli.run_from_manifest(old, tmp_path / "replay") == EXIT_OK
    assert (first / "paths.csv").read_bytes() == (tmp_path / "replay" / "paths.csv").read_bytes()
    replayed = json.loads((tmp_path / "replay" / "manifest.json").read_text())
    assert replayed["environment"]["openblas_num_threads"] == "1"


def test_manifest_of_a_spec_built_in_code_replays_bit_exactly(tmp_path, monkeypatch):
    # --config acceptance writes the spec built in code as text; a drift with
    # three terms out of sorted order must parse back to the same summation
    # order, or the replayed paths differ in their last bits
    p1 = (parse_field_expr("0.3*v2 + -v1 + 0.7*cv1*v2*v2", 2), parse_field_expr("-v2", 2))
    spec = SystemSpec(freqs=Frequencies((1.0, 2.0 ** 0.5)), epsilon=0.05, p1=p1,
                      psi=((1.0, 0.0), (0.0, 1.0)), psi_kind="constant")
    monkeypatch.setattr(cli, "acceptance_system", lambda: spec)
    first = tmp_path / "first"
    assert cli.main(["simulate", "--config", "acceptance", "--system", "perturbed",
                     "--T", "0.05", "--dtau", "0.001", "--paths", "20", "--seed", "1",
                     "--out", str(first)]) == EXIT_OK
    replay = tmp_path / "replay"
    assert cli.run_from_manifest(first / "manifest.json", replay) == EXIT_OK
    for name in ("manifest.json", "paths.csv"):
        assert (first / name).read_bytes() == (replay / name).read_bytes(), name


def test_acceptance_manifest_records_its_system(tmp_path):
    # the state the criteria start from is part of the recorded system;
    # REPLAY_ARGV["acceptance"] replays such a manifest byte for byte
    assert cli.main(["acceptance", "--criteria", "1", "--paths", "50",
                     "--out", str(tmp_path)]) == EXIT_OK
    cfg = parse_system_text(json.loads((tmp_path / "manifest.json").read_text())["config_text"])
    assert cfg.spec == acceptance_system()
    assert _term_lists(cfg.spec) == _term_lists(acceptance_system())
    assert np.array_equal(cfg.v0, ACCEPTANCE_V0)


def _term_lists(spec):
    polys = [*spec.p1_polys, spec.h_poly, *(p for row in spec.psi_polys for p in row)]
    return [list(p.terms.items()) for p in polys]


@pytest.mark.parametrize("system", ["perturbed", "effective", "modified", "action"])
def test_parse_tree_era_acceptance_text_replays(tmp_path, system):
    old = tmp_path / "old.cfg"
    old.write_text(ACCEPTANCE_PARSE_TREE_TEXT)
    # the same polynomials, terms in the same order, so every sum is the same
    assert _term_lists(parse_system_text(ACCEPTANCE_PARSE_TREE_TEXT).spec) == \
        _term_lists(acceptance_system())
    argv = ["simulate", "--system", system, "--T", "0.02", "--dtau", "0.001",
            "--paths", "6", "--seed", "5"]
    if system == "action":
        argv += ["--i0", "0.5,0.5"]
    assert cli.main(argv + ["--config", "acceptance", "--out", str(tmp_path / "new")]) == EXIT_OK
    assert cli.main(argv + ["--config", str(old), "--out", str(tmp_path / "old")]) == EXIT_OK
    assert (tmp_path / "new" / "paths.csv").read_bytes() == \
        (tmp_path / "old" / "paths.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["acceptance", "--strict", "--criteria", "42"],
    ["acceptance", "--criteria", "1,x"],
    ["compare", "--config", "acceptance", "--eps-list", "0.2,abc"],
    ["simulate", "--config", "acceptance", "--paths", "0"],
    ["simulate", "--config", "acceptance", "--paths", "-3"],
    ["simulate", "--config", "acceptance", "--system", "action", "--i0", "1,-2"],
    ["couple-demo", "--config", "acceptance", "--delta", "0.9"],
    ["simulate", "--config", "acceptance", "--record-times", "0.0005"],
    ["couple-demo", "--config", "acceptance", "--paths", "-3"],
    ["simulate", "--config", "acceptance", "--system", "action", "--paths", "-3"],
    # an empty value is a value, not a missing option
    ["simulate", "--config", "acceptance", "--v0", ""],
    ["average", "--config", "acceptance", "--at", ""],
    ["simulate", "--config", "acceptance", "--system", "action", "--i0", ""],
    ["simulate", "--config", "acceptance", "--record-times", ""],
    ["compare", "--config", "acceptance", "--eps-list", ""],
    ["acceptance", "--criteria", ""],
])
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    if "--paths" in argv:
        assert "n_paths" in err, err
    assert not (tmp_path / "manifest.json").exists()


def test_threaded_run_matches_reference(tmp_path, resonant_cfg):
    # --threads 3 over 2 epsilon rows: one worker process per row
    ref = tmp_path / "ref"
    thr = tmp_path / "thr"
    base = ["compare", "--config", str(resonant_cfg), "--eps-list", "0.5,0.1",
            "--times", "0.25", "--T", "0.25", "--paths", "80", "--seed", "2"]
    assert cli.main(base + ["--out", str(ref), "--threads", "1"]) == EXIT_OK
    assert cli.main(base + ["--out", str(thr), "--threads", "3"]) == EXIT_OK
    for name in ("convergence.csv", "convergence.json", "plotdata.csv"):
        assert filecmp.cmp(ref / name, thr / name, shallow=False), name


def test_acceptance_report_does_not_depend_on_threads(tmp_path):
    # criterion 11 runs compare --threads 2, so with --threads 2 it starts a
    # pool inside a worker
    argv = ["acceptance", "--criteria", "2,3,10,11", "--paths", "200"]
    for threads in ("1", "2"):
        assert cli.main(argv + ["--threads", threads, "--out", str(tmp_path / threads)]) \
            == EXIT_OK
    assert filecmp.cmp(tmp_path / "1" / "acceptance_report.json",
                       tmp_path / "2" / "acceptance_report.json", shallow=False)


def test_nonfinite_in_a_worker_exits_3_with_one_line(tmp_path, capfd):
    cfg = tmp_path / "explosive.cfg"
    cfg.write_text(EXPLOSIVE_CONFIG)
    out = tmp_path / "run"
    rc = cli.main(["compare", "--config", str(cfg), "--out", str(out), "--eps-list", "0.5,0.1",
                   "--times", "0.01", "--T", "0.01", "--paths", "2", "--threads", "2"])
    assert rc == EXIT_NONFINITE
    captured = capfd.readouterr()
    assert captured.err.startswith("simulation diverged: ") and \
        len(captured.err.strip().splitlines()) == 1, captured.err
    assert not (out / "manifest.json").exists()


def test_workers_from_a_script_on_stdin_exit_2_with_one_line(tmp_path):
    # spawned workers import __main__ again from its file, and a script piped
    # to `python -` has none: the run stops before any worker starts
    out = tmp_path / "run"
    script = ("import sys\nfrom stochavg import cli\n"
              f"sys.exit(cli.main(['compare', '--config', 'acceptance', '--out', {str(out)!r}, "
              "'--eps-list', '0.2,0.1', '--times', '0.1', '--T', '0.1', '--paths', '20', "
              "'--threads', '2']))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-"], input=script, env=env, capture_output=True,
                         text=True, cwd=tmp_path, timeout=120)
    assert run.returncode == EXIT_CONFIG
    lines = run.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr
    assert 'if __name__ == "__main__":' in lines[0]
    assert not (out / "manifest.json").exists()


def test_workers_of_an_unguarded_script_exit_without_tracebacks(tmp_path):
    # each spawned worker re-runs a script without the __main__ guard as it
    # starts, reaches the pool there and ends quietly; the caller names the guard
    out = tmp_path / "run"
    script = tmp_path / "unguarded.py"
    script.write_text("import sys\nfrom stochavg import cli\n"
                      "sys.exit(cli.main(['compare', '--config', 'acceptance', '--out', "
                      f"{str(out)!r}, '--eps-list', '0.2,0.1', '--times', '0.1', '--T', '0.1', "
                      "'--paths', '50', '--threads', '2']))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True,
                         cwd=tmp_path, timeout=120)
    assert run.returncode == EXIT_CONFIG
    lines = run.stderr.strip().splitlines()
    assert len(lines) <= 3 and 'if __name__ == "__main__":' in run.stderr, run.stderr
    assert not (out / "manifest.json").exists()


def test_a_broken_worker_pool_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    def broken(*args, **kwargs):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr(stats, "convergence_table", broken)
    out = tmp_path / "run"
    rc = cli.main(["compare", "--config", "acceptance", "--out", str(out), "--eps-list",
                   "0.2,0.1", "--times", "0.1", "--T", "0.1", "--paths", "20", "--threads", "2"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process ended abruptly") and \
        len(err.strip().splitlines()) == 1, err
    assert 'if __name__ == "__main__":' in err
    assert not (out / "manifest.json").exists()


def test_check_residual_is_a_direct_scan_of_the_hamiltonian(tmp_path, resonant_cfg):
    # --samples states drawn from --seed, each scanned on its own
    h = acceptance_system().h
    for seed, samples in ((0, 128), (7, 64)):
        assert cli.main(["check", "--config", "acceptance", "--seed", str(seed),
                         "--samples", str(samples), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "check_report.json").read_text())
        pts = random_states(2, samples, 3.0, np.random.default_rng(seed))
        worst = max(float(np.abs(orthogonality_residual(h, v)).max()) for v in pts)
        assert report["hamiltonian_max_orthogonality_residual"] == worst
    # the resonant config has no [hamiltonian] section
    assert cli.main(["check", "--config", str(resonant_cfg), "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert "hamiltonian_max_orthogonality_residual" not in report


def test_acceptance_subcommand_subset(tmp_path, capsys):
    rc = cli.main(["acceptance", "--out", str(tmp_path), "--criteria", "1,3",
                   "--paths", "200"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] criterion 1" in out
    assert "[PASS] criterion 3" in out
    report = json.loads((tmp_path / "acceptance_report.json").read_text())
    assert [r["index"] for r in report] == [1, 3]
    assert all(r["passed"] for r in report)
