import json
import tracemalloc

import numpy as np
import pytest

from sandwiched_sde import cli, noise, solver
from sandwiched_sde.cli import _csv, _csv_lines, main
from sandwiched_sde.config import ConfigError, load_config, parse_config


def cir_config_dict(**run_overrides):
    run = {"T": 1.0, "N": 256, "seed": 11, "paths": 2}
    run.update(run_overrides)
    return {
        "model": {
            "drift": {"family": "cir", "kappa1": 1.0, "kappa2": 1.0,
                      "gamma": 1.0},
            "bounds": {"lambda": 0.69},
            "y0": 1.0,
        },
        "noise": {"kind": "fbm", "H": 0.7},
        "run": run,
    }


def tsb_config_dict():
    return {
        "model": {
            "drift": {"family": "tsb", "kappa1": 0.5, "kappa2": 0.5},
            "bounds": {"lambda": 0.69},
            "y0": 0.0,
        },
        "noise": {"kind": "fbm", "H": 0.7},
        "run": {"T": 1.0, "N": 256, "seed": 4, "paths": 1},
    }


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestParseConfig:
    def test_cir_round_trip(self):
        rc = parse_config(cir_config_dict())
        assert rc.config.y0 == 1.0
        assert rc.config.grid_points == 256
        assert rc.config.drift.family == "cir"
        assert rc.driver.kind == "fbm" and rc.driver.hurst == 0.7
        assert rc.seed == 11 and rc.paths == 2
        assert rc.stepper == "auto" and rc.tol == 1e-12

    def test_rejects_unknown_root_key(self):
        data = cir_config_dict()
        data["plotting"] = {}
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(data)

    def test_rejects_unknown_drift_key(self):
        data = cir_config_dict()
        data["model"]["drift"]["theta"] = 1.0
        with pytest.raises(ConfigError, match="theta"):
            parse_config(data)

    def test_cir_forbids_explicit_bounds(self):
        data = cir_config_dict()
        data["model"]["bounds"]["phi"] = {"kind": "const", "value": 0.0}
        with pytest.raises(ConfigError, match="phi"):
            parse_config(data)

    def test_tsb_forbids_gamma(self):
        data = tsb_config_dict()
        data["model"]["drift"]["gamma"] = 2.0
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(data)

    def test_tsb_defaults_unit_barriers(self):
        rc = parse_config(tsb_config_dict())
        assert float(rc.config.drift.bounds.phi(0.3)) == -1.0
        assert float(rc.config.drift.bounds.psi(0.3)) == 1.0

    def test_power_sandwich_with_sin_barriers(self):
        data = {
            "model": {
                "drift": {"family": "power_sandwich", "kappa1": 1.0,
                          "kappa2": 1.0, "gamma": 4.0},
                "bounds": {
                    "phi": {"kind": "sin_shift", "a": 0.0, "b": 1.0, "c": 10.0},
                    "psi": {"kind": "sin_shift", "a": 2.0, "b": 1.0, "c": 10.0},
                    "lambda": 0.29,
                },
                "y0": 1.0,
            },
            "noise": {"kind": "mbm", "H": {"a": 0.5, "b": 0.2,
                                           "c": 2 * np.pi}},
            "run": {"T": 1.0, "N": 128},
        }
        rc = parse_config(data)
        assert rc.config.drift.family == "power_sandwich"
        assert rc.driver.kind == "mbm"
        assert float(rc.config.drift.bounds.phi(0.0)) == 0.0

    def test_mbm_scalar_hurst(self):
        data = cir_config_dict()
        data["noise"] = {"kind": "mbm", "H": 0.6}
        rc = parse_config(data)
        assert rc.driver.kind == "mbm"
        assert np.allclose(rc.driver.hurst_fn(np.linspace(0, 1, 5)), 0.6)

    def test_rejects_bad_noise_kind(self):
        data = cir_config_dict()
        data["noise"] = {"kind": "levy"}
        with pytest.raises(ConfigError, match="levy"):
            parse_config(data)

    def test_rejects_bad_stepper(self):
        with pytest.raises(ConfigError, match="stepper"):
            parse_config(cir_config_dict(stepper="magic"))

    def test_rejects_missing_horizon(self):
        data = cir_config_dict()
        del data["run"]["T"]
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_rejects_bad_lambda(self):
        data = cir_config_dict()
        data["model"]["bounds"]["lambda"] = 1.5
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(data)

    @pytest.mark.parametrize("key, value", [
        ("N", 100.7), ("N", 0), ("N", float("inf")), ("N", 10 ** 400),
        ("seed", 1.5), ("seed", float("nan")),
        ("paths", -2), ("paths", 0), ("paths", 2.5),
    ])
    def test_rejects_non_integral_run_counts(self, key, value):
        with pytest.raises(ConfigError, match=rf"^run\.{key} "):
            parse_config(cir_config_dict(**{key: value}))

    def test_integral_floats_load_as_ints(self):
        rc = parse_config(cir_config_dict(N=1e4, seed=3.0, paths=2.0))
        assert (rc.config.grid_points, rc.seed, rc.paths) == (10000, 3, 2)
        assert all(type(v) is int
                   for v in (rc.config.grid_points, rc.seed, rc.paths))

    def test_load_reports_json_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(bad))

    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.json")


class TestValidateCommand:
    def test_good_config_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cir_config_dict())
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "assumption report" in out
        assert "max admissible mesh" in out

    def test_failing_assumption_exits_one(self, tmp_path, capsys):
        data = cir_config_dict()
        data["model"]["drift"]["gamma"] = 0.3  # gamma <= 1/lambda - 1
        cfg = write_config(tmp_path, data)
        assert main(["validate", "--config", cfg]) == 1
        assert "(A3)" in capsys.readouterr().out

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        data = cir_config_dict()
        data["extra"] = 1
        cfg = write_config(tmp_path, data)
        assert main(["validate", "--config", cfg]) == 2
        assert "extra" in capsys.readouterr().err

    @pytest.mark.parametrize("run", ['"N": 100.7, "seed": 1.5, "paths": -2',
                                     '"N": 1e400'])
    def test_truncated_run_counts_exit_two(self, tmp_path, capsys, run):
        text = json.dumps(cir_config_dict()).replace('"N": 256', run)
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "run.N" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("where, value, message", [
        ("run.seed", "-1", "run.seed must be a non-negative integer"),
        ("run.tol", "0", "run.tol must be positive"),
        ("run.tol", "-1e-12", "run.tol must be positive"),
        ("run.tol", "NaN", "run.tol must be finite"),
        ("run.T", "0", "run.T must be positive"),
        ("run.T", "-1", "run.T must be positive"),
        ("run.T", "Infinity", "run.T must be finite"),
        ("model.y0", "-Infinity", "model.y0 must be finite"),
        ("model.drift.kappa1", "NaN", "model.drift.kappa1 must be finite"),
        ("model.bounds.lambda", "Infinity", "model.bounds.lambda must be finite"),
    ])
    def test_bad_run_values_exit_two(self, tmp_path, capsys, where, value, message):
        data = cir_config_dict()
        *path, key = where.split(".")
        section = data
        for name in path:
            section = section[name]
        section[key] = "@"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data).replace('"@"', value))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        # A valid --seed does not rescue a bad config seed.
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seed=-1", "--seed=1.5", "--seed=x",
                                      "--tol=0", "--tol=-1e-12", "--tol=nan",
                                      "--tol=inf", "--tol=x"])
    def test_bad_flags_exit_two(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path, cir_config_dict())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, "--out", str(out), flag])
        assert exc.value.code == 2
        assert f"argument {flag.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()


README_TWO_SIDED = {
    "model": {
        "drift": {"family": "power_sandwich", "kappa1": 1.0, "kappa2": 1.0,
                  "gamma": 4.0},
        "bounds": {
            "phi": {"kind": "sin_shift", "a": 0.0, "b": 1.0, "c": 10.0},
            "psi": {"kind": "sin_shift", "a": 2.0, "b": 1.0, "c": 10.0},
            "lambda": 0.29,
        },
        "y0": 1.0,
    },
    "noise": {"kind": "mbm", "H": {"a": 0.5, "b": 0.2, "c": 6.283185307179586}},
    "run": {"T": 1.0, "N": 10000, "seed": 1, "paths": 3},
}


def showcase_configs():
    """README's two-sided example and the CIR, TSB and mBm showcase runs."""
    tsb = tsb_config_dict()
    tsb["model"]["bounds"].update(phi={"kind": "const", "value": -1.0},
                                  psi={"kind": "const", "value": 1.0})
    tsb["run"] = {"T": 1.0, "N": 10000, "seed": 42, "paths": 8}
    power = json.loads(json.dumps(README_TWO_SIDED))
    power["run"]["N"] = 4096
    return {"cir_fbm": cir_config_dict(N=10000, seed=42, paths=20),
            "tsb_fbm": tsb, "power_mbm": power, "readme_two_sided": README_TWO_SIDED}


# `validate` stdout, as the scalar-loop validation printed it.
GOLDEN_VALIDATE = {
    "cir_fbm": """\
assumption report (one-sided sandwich)
  (A1)         pass         y0=1 > phi(0)=0
  barriers     spot-checked barriers sampled on 257 points
  (A2)         spot-checked c1=2, p=2 on 3 lattices
  (A3)         spot-checked gamma=1 > 0.449275; repulsion holds on lattice
  (A4)         spot-checked c3=1 vs sampled sup db/dy=-1.09909
  mesh         pass         mesh=0.0001, max admissible=0.495
max admissible mesh: 0.495 (configured mesh 0.0001)
binding mesh term: c1/(y0-phi(0))^p = 2
""",
    "tsb_fbm": """\
assumption report (two-sided sandwich)
  (B1)         pass         phi(0)=-1 < y0=0 < psi(0)=1
  barriers     spot-checked barriers sampled on 257 points
  (B2)         spot-checked c1=1, p=2 on 3 lattices
  (B3)         spot-checked gamma=1 > 0.449275; repulsion holds on lattice
  (B4)         spot-checked c3=1 vs sampled sup db/dy=-1
  mesh         pass         mesh=0.0001, max admissible=0.99
max admissible mesh: 0.99 (configured mesh 0.0001)
binding mesh term: c3 = 1
""",
    "power_mbm": """\
assumption report (two-sided sandwich)
  (B1)         pass         phi(0)=0 < y0=1 < psi(0)=2
  barriers     spot-checked barriers sampled on 257 points
  (B2)         spot-checked c1=168, p=5 on 3 lattices
  (B3)         spot-checked gamma=4 > 2.44828; repulsion holds on lattice
  (B4)         spot-checked c3=1 vs sampled sup db/dy=-8
  mesh         pass         mesh=0.000244141, max admissible=0.99
max admissible mesh: 0.99 (configured mesh 0.000244141)
binding mesh term: c3 = 1
""",
    "readme_two_sided": """\
assumption report (two-sided sandwich)
  (B1)         pass         phi(0)=0 < y0=1 < psi(0)=2
  barriers     spot-checked barriers sampled on 257 points
  (B2)         spot-checked c1=168, p=5 on 3 lattices
  (B3)         spot-checked gamma=4 > 2.44828; repulsion holds on lattice
  (B4)         spot-checked c3=1 vs sampled sup db/dy=-8
  mesh         pass         mesh=0.0001, max admissible=0.99
max admissible mesh: 0.99 (configured mesh 0.0001)
binding mesh term: c3 = 1
""",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VALIDATE))
def test_validate_stdout_golden(tmp_path, capsys, name):
    cfg = write_config(tmp_path, showcase_configs()[name])
    assert main(["validate", "--config", cfg]) == 0
    assert capsys.readouterr().out == GOLDEN_VALIDATE[name]


class TestSimulateCommand:
    def test_writes_paths_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cir_config_dict())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["paths"]) == 2
        for entry in manifest["paths"]:
            assert (out / entry["file"]).exists()
            assert entry["max_residual"] <= 1e-12 * 100
            assert entry["sandwich_ok"] is True
        body = (out / "path_11.csv").read_text().splitlines()
        assert body[0] == "t,y"
        assert len(body) == 258

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_config(tmp_path, cir_config_dict(paths=1))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "path_11.csv").read_bytes() \
            == (out2 / "path_11.csv").read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, cir_config_dict(paths=1))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "99"]) == 0
        assert (out / "path_99.csv").exists()

    def test_gnuplot_script(self, tmp_path):
        cfg = write_config(tmp_path, cir_config_dict(paths=1))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--gnuplot"]) == 0
        script = (out / "plot.gp").read_text()
        assert "path_11.csv" in script

    def test_tsb_simulation(self, tmp_path):
        cfg = write_config(tmp_path, tsb_config_dict())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "path_4.csv").read_text().splitlines()[1:]
        ys = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(ys > -1.0) and np.all(ys < 1.0)

    def test_overcoarse_mesh_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cir_config_dict(N=1))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert not (out / "manifest.json").exists()
        assert "mesh" in capsys.readouterr().err


    def test_multi_path_bytes_match_old_formatter(self, tmp_path):
        # The time column is formatted once per run and shared by the paths.
        for data in (cir_config_dict(paths=3), dict(tsb_config_dict(), run={
                "T": 1.0, "N": 300, "seed": 4, "paths": 3})):
            cfg = write_config(tmp_path, data)
            out = tmp_path / data["model"]["drift"]["family"]
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            rc = load_config(cfg)
            for seed in range(rc.seed, rc.seed + rc.paths):
                path = solver.simulate(rc.config, noise.generate_noise(
                    rc.driver, rc.config.grid, seed), stepper=rc.stepper,
                    tol=rc.tol)
                assert (out / f"path_{seed}.csv").read_bytes() == old_csv(
                    "t,y", (path.grid.points, path.values)).encode()


def old_csv(header, columns):
    # The per-value formatter the CSV bytes were first written with.
    rows = np.column_stack(columns)
    lines = [header]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestCsvBytes:
    AWKWARD = [5e-324, -0.0, 0.1, 1e300, 3.0, 2.0 ** 53, -1e16, 1e-7,
               123456789.0, float("nan"), float("inf"), 1.0 / 3.0]

    def test_columns_match_old_formatter(self):
        t = np.linspace(0.0, 1.0, len(self.AWKWARD))
        ints = list(range(len(self.AWKWARD)))
        for cols in ((t, self.AWKWARD), (ints, self.AWKWARD[::-1], t)):
            assert _csv("a,b", cols) == old_csv("a,b", cols)

    def test_matrix_rows_match_old_formatter(self):
        m = np.array(self.AWKWARD).reshape(3, 4)
        old = "\n".join(",".join(repr(float(v)) for v in row) for row in m)
        assert "\n".join(_csv_lines(m.tolist())) == old

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            _csv("a,b", ([1.0, 2.0], [1.0]))


class TestNoiseCommand:
    def test_writes_noise_csv(self, tmp_path):
        cfg = write_config(tmp_path, cir_config_dict())
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "noise_11.csv").read_text().splitlines()
        assert rows[0] == "t,z"
        assert float(rows[1].split(",")[1]) == 0.0

    def test_covariance_dump_mbm_matches_fbm(self, tmp_path):
        base = cir_config_dict(N=32)
        fbm_cfg = write_config(tmp_path, base, "fbm.json")
        mbm_data = cir_config_dict(N=32)
        mbm_data["noise"] = {"kind": "mbm", "H": 0.7}
        mbm_cfg = write_config(tmp_path, mbm_data, "mbm.json")
        out_f, out_m = tmp_path / "f", tmp_path / "m"
        assert main(["noise", "--config", fbm_cfg, "--out", str(out_f),
                     "--cov"]) == 0
        assert main(["noise", "--config", mbm_cfg, "--out", str(out_m),
                     "--cov"]) == 0
        a = np.loadtxt(out_f / "cov_11.csv", delimiter=",")
        b = np.loadtxt(out_m / "cov_11.csv", delimiter=",")
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_covariance_built_once(self, tmp_path, monkeypatch):
        data = cir_config_dict(N=64)
        data["noise"] = {"kind": "mbm", "H": {"a": 0.5, "b": 0.2,
                                              "c": 2 * np.pi}}
        cfg = write_config(tmp_path, data)
        build = noise.covariance_matrix
        calls = []

        def counting(spec, grid, **layout):
            calls.append((grid.n, layout))
            return build(spec, grid, **layout)

        monkeypatch.setattr(noise, "_factor_cache", {})
        monkeypatch.setattr(noise, "covariance_matrix", counting)
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out), "--cov"]) == 0
        # Once, packed: the dump is written from the lower block rows.
        assert calls == [(64, {"packed": True})]
        # Same bytes as a separate cold Cholesky sample and covariance dump.
        monkeypatch.setattr(noise, "_factor_cache", {})
        rc = load_config(cfg)
        path = noise.sample_path(rc.driver, rc.config.grid, 11)
        assert (out / "noise_11.csv").read_text() == _csv(
            "t,z", (path.grid.points, path.values))
        cov = build(rc.driver, rc.config.grid)
        assert (out / "cov_11.csv").read_text() == "\n".join(
            _csv_lines(cov.tolist())) + "\n"


    def test_covariance_dump_memory_is_blocked(self, tmp_path, monkeypatch):
        # The dump is written in row blocks: between the covariance build
        # and the factor, Python objects for at most a few blocks exist.
        n = 768
        data = cir_config_dict(N=n)
        data["noise"] = {"kind": "mbm", "H": {"a": 0.5, "b": 0.2,
                                              "c": 2 * np.pi}}
        cfg = write_config(tmp_path, data)
        build, sample = noise.covariance_matrix, cli.sample_path
        marks = {}

        def building(spec, grid, **layout):
            cov = build(spec, grid, **layout)
            marks["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return cov

        def sampling(*args, **kwargs):
            marks["dump_peak"] = tracemalloc.get_traced_memory()[1]
            return sample(*args, **kwargs)

        monkeypatch.setattr(noise, "_factor_cache", {})
        monkeypatch.setattr(noise, "covariance_matrix", building)
        monkeypatch.setattr(cli, "sample_path", sampling)
        tracemalloc.start()
        try:
            assert main(["noise", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--cov"]) == 0
        finally:
            tracemalloc.stop()
        # Under 128 bytes of floats, strings and text per dumped value
        # (about 55 measured); the whole dump at once takes about 40 MB.
        block = 128 * cli._DUMP_BLOCK
        assert marks["dump_peak"] - marks["base"] <= 2 * block < 128 * n * n

class TestUnattainableContract:
    def test_simulate_exits_1(self, tmp_path, monkeypatch, capsys):
        # One step shocked to rhs = 2.5 on a 2^14 grid (see test_solver).
        data = tsb_config_dict()
        data["run"]["N"] = 2 ** 14
        cfg = write_config(tmp_path, data)

        def shock(driver, grid, seed):
            values = np.full(grid.n + 1, 2.5)
            values[0] = 0.0
            return noise.NoisePath(grid=grid, values=values, seed=seed,
                                   spec=driver)

        monkeypatch.setattr(cli, "generate_noise", shock)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "step 1 " in err and "residual contract unattainable" in err
        assert not list(out.glob("path_*.csv"))


class TestConvergenceCommand:
    def test_small_study_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cir_config_dict())
        out = tmp_path / "out"
        code = main(["convergence", "--config", cfg, "--out", str(out),
                     "--meshes", "16,32,64", "--ref", "1024", "--paths", "5"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "fitted slope" in stdout
        assert "expected rate lambda: 0.6900" in stdout
        report = json.loads((out / "convergence.json").read_text())
        assert len(report["per_mesh"]) == 3
        assert (out / "convergence.csv").exists()
        assert (out / "loglog.dat").exists()

    def test_rejects_non_dividing_mesh(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cir_config_dict())
        code = main(["convergence", "--config", cfg, "--out", str(tmp_path),
                     "--meshes", "12", "--ref", "1024"])
        assert code == 1
        assert "12" in capsys.readouterr().err

    def test_single_path_notes_missing_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cir_config_dict())
        out = tmp_path / "out"
        code = main(["convergence", "--config", cfg, "--out", str(out),
                     "--meshes", "16,32", "--ref", "512", "--paths", "1"])
        assert code == 0
        assert "stderr unavailable" in capsys.readouterr().out
