"""FieldFile container, result emission, and the command-line entry point."""

import json
import math
import struct

import numpy as np
import pytest

from qs4.cli import emit_results, parse_and_run, read_field, write_field
from qs4.errors import QS4Error, ValidationError
from qs4.grid import Field, SpectralField, dft_forward, make_gaussian, make_grid, make_random_field


class TestFieldFile:
    def test_round_trip_physical(self, tmp_path):
        g = make_grid(64, 16.0)
        f = make_random_field(g, 0, band_radius=0.5 * g.nyquist)
        path = tmp_path / "f.qs4f"
        write_field(f, path)
        back = read_field(path)
        assert isinstance(back, Field)
        assert back.grid == g
        assert np.array_equal(back.values, np.asarray(f.values, dtype=complex))

    def test_round_trip_spectral(self, tmp_path):
        g = make_grid(32, 8.0)
        F = dft_forward(make_gaussian(g, width=0.5))
        path = tmp_path / "F.qs4f"
        write_field(F, path)
        back = read_field(path)
        assert isinstance(back, SpectralField)
        assert np.array_equal(back.coeffs, F.coeffs)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.qs4f"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValidationError):
            read_field(path)

    def test_truncated_payload_rejected(self, tmp_path):
        g = make_grid(32, 8.0)
        f = make_gaussian(g, width=0.5)
        path = tmp_path / "trunc.qs4f"
        write_field(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValidationError):
            read_field(path)

    def test_wrong_version_rejected(self, tmp_path):
        head = struct.Struct("<4sHIdB").pack(b"QS4F", 99, 32, 8.0, 0)
        path = tmp_path / "ver.qs4f"
        path.write_bytes(head + b"\x00" * (2 * 32 * 32 * 8))
        with pytest.raises(ValidationError):
            read_field(path)

    def test_unknown_domain_flag_rejected(self, tmp_path):
        head = struct.Struct("<4sHIdB").pack(b"QS4F", 1, 32, 8.0, 7)
        path = tmp_path / "flag.qs4f"
        path.write_bytes(head + b"\x00" * (2 * 32 * 32 * 8))
        with pytest.raises(ValidationError, match="domain flag 7"):
            read_field(path)


class TestEmitResults:
    def test_json_record(self, tmp_path):
        path = tmp_path / "out.json"
        emit_results({"config": {"a": 1}, "results": {"x": 0.1, "flag": True}},
                     "json", path)
        data = json.loads(path.read_text())
        assert data["results"]["flag"] is True
        assert data["results"]["x"] == 0.1

    def test_json_full_precision(self, tmp_path):
        path = tmp_path / "out.json"
        x = 0.1234567890123456789
        emit_results({"config": {}, "results": {"x": x}}, "json", path)
        assert json.loads(path.read_text())["results"]["x"] == x

    def test_json_integral_float_stays_float(self, tmp_path):
        path = tmp_path / "out.json"
        emit_results({"config": {}, "results": {"x": 1.0, "y": np.float64(2.0)}}, "json", path)
        results = json.loads(path.read_text())["results"]
        assert isinstance(results["x"], float) and isinstance(results["y"], float)

    def test_json_nan_reloads(self, tmp_path):
        path = tmp_path / "out.json"
        emit_results({"config": {}, "results": {"x": float("nan")}}, "json", path)
        assert math.isnan(json.loads(path.read_text())["results"]["x"])

    def test_json_requires_keys(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_results({"results": {}}, "json", tmp_path / "o.json")

    def test_csv_table(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results({"header": ["a", "b"], "rows": [(1.0, 2.0), (3.0, 4.0)]},
                     "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert len(lines) == 3

    def test_csv_shortest_float(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results({"header": ["a", "b"], "rows": [(0.1, np.float64(0.1))]}, "csv", path)
        assert path.read_text().splitlines()[1] == "0.1,0.1"

    def test_csv_ragged_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_results({"header": ["a", "b"], "rows": [(1.0,)]},
                         "csv", tmp_path / "o.csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_results({"config": {}, "results": {}}, "yaml", tmp_path / "o")


class TestExitCodes:
    def test_unknown_subcommand_is_config_error(self, capsys):
        assert parse_and_run(["no-such-command"]) == 1

    def test_missing_required_flag(self, capsys):
        assert parse_and_run(["propagate", "--t", "0.1"]) == 1

    @pytest.mark.parametrize("argv", [
        ["extremize", "--beta", "0.5"],
        ["extremize", "--seed", "2"],  # a prefix of --seed-width
        ["extremize", "--seed-noise", "0.1"],
        ["weight-check", "--scale", "0.5"],
        ["weight-check", "--coupled"],
    ])
    def test_removed_option_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "o.json"
        assert parse_and_run(argv + ["--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_numeric_argument(self, tmp_path, capsys):
        rc = parse_and_run(["weight-check", "--mu", "-1.0",
                            "--out", str(tmp_path / "o.json")])
        assert rc == 1

    def test_fractional_seed_rejected(self, tmp_path, capsys):
        rc = parse_and_run(["bilinear-scan", "--seeds", "1.5",
                            "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["weight-check", "--count", "10", "--seed", "-1"],
        ["profile-demo", "--seed", "-1"],
        ["bilinear-scan", "--seeds", "0,-1"],
    ])
    def test_negative_seed_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "o.json"
        assert parse_and_run(argv + ["--out", str(out)]) == 1
        assert "qs4: error: rng seeds must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_extremize_window_too_short_is_guard_error(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        rc = parse_and_run(["extremize", "--grid-n", "64", "--extent", "64", "--nt", "65",
                            "--t-max", "0.05", "--out", str(out)])
        assert rc == 2
        assert "endpoint slices" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_values, message", [
        ("4,8,16,64", "geometric ladder"),
        ("4,8,16,32", "guarded band"),
    ])
    def test_bad_bilinear_ladder_is_config_error(self, tmp_path, capsys, n_values, message):
        # both fail before any pair is built: the ladder is not geometric, or
        # its largest annulus leaves the guarded band of the 64^2 lattice
        out = tmp_path / "o.json"
        rc = parse_and_run(["bilinear-scan", "--grid-n", "64", "--n-values", n_values,
                            "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_bound_violation_is_check_failure(self, tmp_path, capsys, monkeypatch):
        def violated(tuples, params):
            raise QS4Error("weight kernel bound violated")

        monkeypatch.setattr("qs4.cli.weight_kernel_check", violated)
        rc = parse_and_run(["weight-check", "--count", "10",
                            "--out", str(tmp_path / "o.json")])
        assert rc == 3
        assert "kernel bound violated" in capsys.readouterr().err


class TestScanCommands:
    def test_modulation_scan_json(self, tmp_path):
        out = tmp_path / "m.json"
        assert parse_and_run(["modulation-scan", "--grid-n", "64", "--extent", "16",
                              "--magnitudes", "2,4", "--t-max", "2", "--nt", "33",
                              "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["direction"] == [1.0, 0.0]
        assert data["results"]["magnitudes"] == [2.0, 4.0]
        assert data["results"]["raw_norms"][1] < data["results"]["raw_norms"][0]

    def test_bilinear_scan_json_with_seed_above_2_53(self, tmp_path):
        # the seed is not exactly representable as a float
        seed = 2 ** 53 + 1
        out = tmp_path / "b.json"
        assert parse_and_run(["bilinear-scan", "--grid-n", "64", "--extent", "32",
                              "--scale", "0.5", "--n-values", "2,2.5,3.125,3.90625",
                              "--nt", "33", "--seeds", str(seed), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["seeds"] == [seed]
        assert len(data["results"]["per_seed"]) == 4
        assert isinstance(data["results"]["reliable"], bool)


class TestPropagate:
    def test_gaussian_default_seed(self, tmp_path):
        out = tmp_path / "u.qs4f"
        rc = parse_and_run(["propagate", "--grid-n", "64", "--extent", "16",
                            "--t", "0.3", "--out", str(out)])
        assert rc == 0
        u = read_field(out)
        assert abs(u.l2_norm() - 1.0) < 1e-12

    def test_round_trip_through_files(self, tmp_path):
        fwd = tmp_path / "fwd.qs4f"
        back = tmp_path / "back.qs4f"
        assert parse_and_run(["propagate", "--grid-n", "64", "--extent", "16",
                              "--t", "0.3", "--out", str(fwd)]) == 0
        assert parse_and_run(["propagate", "--input", str(fwd),
                              "--t", "-0.3", "--out", str(back)]) == 0
        g = make_grid(64, 16.0)
        f0 = make_gaussian(g, width=1.0)
        u = read_field(back)
        assert np.max(np.abs(u.values - f0.values)) < 1e-12


class TestWeightCheckCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "w.json"
        rc = parse_and_run(["weight-check", "--count", "500",
                            "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["results"]["max_kernel"] <= 1 + 1e-12
        assert data["results"]["n_checked"] == 500
        assert data["config"]["count"] == 500

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            assert parse_and_run(["weight-check", "--count", "200",
                                  "--seed", "5", "--out", str(p)]) == 0
        # configs differ only in the echoed output path
        assert (json.loads(a.read_text())["results"]
                == json.loads(b.read_text())["results"])


class TestDecayFitCommand:
    def test_planted_spectrum(self, tmp_path):
        g = make_grid(64, 16.0)
        coeffs = np.exp(-1.0 * g.xi_abs ** 4).astype(complex)
        field_path = tmp_path / "spec.qs4f"
        write_field(SpectralField(g, coeffs), field_path)
        out = tmp_path / "fit.json"
        rc = parse_and_run(["decay-fit", "--input", str(field_path),
                            "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert abs(data["results"]["mu_hat"] - 1.0) < 0.05
        assert data["results"]["quartic_profile"] is True

    def test_missing_file(self, tmp_path):
        rc = parse_and_run(["decay-fit", "--input", str(tmp_path / "nope"),
                            "--out", str(tmp_path / "o.json")])
        assert rc == 1


class TestProfileDemoCommand:
    def test_defaults_pass_guards(self, tmp_path):
        out = tmp_path / "p.json"
        assert parse_and_run(["profile-demo", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["n_profiles"] == 2


class TestOscillatoryCommand:
    def test_defaults_resolve_largest_time(self, tmp_path):
        # leading stationary-phase term at X = 0: 2 pi / (T sqrt 48)
        out = tmp_path / "osc.csv"
        assert parse_and_run(["oscillatory-check", "--out", str(out)]) == 0
        T, _, value = (float(v) for v in out.read_text().splitlines()[-1].split(","))
        leading = 2 * math.pi / (T * math.sqrt(48.0))
        assert abs(value - leading) / leading <= 1e-3

    def test_small_scan_decays(self, tmp_path):
        out = tmp_path / "osc.csv"
        rc = parse_and_run(["oscillatory-check", "--grid-n", "512",
                            "--extent", "400", "--t-values", "1,4",
                            "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,X1,abs_value"
        vals = [float(line.split(",")[2]) for line in lines[1:]]
        assert vals[1] < vals[0]


class TestConfigEcho:
    def test_echo_contains_all_flags(self, tmp_path):
        out = tmp_path / "w.json"
        assert parse_and_run(["weight-check", "--count", "100",
                              "--eps", "0.1", "--out", str(out)]) == 0
        cfg = json.loads(out.read_text())["config"]
        assert cfg["eps"] == 0.1
        assert cfg["seed"] == 0
        assert "tool_version" in cfg
