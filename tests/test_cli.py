import hashlib
import math
import re

import pytest

from measengine.cli import main
from measengine.config import ConfigError, load_config
from measengine.sweep import CSV_HEADER
from measengine.verify import run_verification


# Within 1e-12 below the partner threshold (1 - e^-b)/2, whose q at b = 10 falls below -1e-12:
# no damping strength swaps the populations.
BAND_GAMMA = "0.4999999999995"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def etas_from_output(out: str) -> list[float]:
    return [float(m) for m in re.findall(r"\beta=([-+0-9.e]+)", out)]


class TestCycleCommand:
    def test_three_stroke_worked_point(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--mode", "three", "--b", "0.6931", "--gamma", "0.75")
        assert code == 0
        for eta in etas_from_output(out):
            assert eta == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert "[numeric]" in out and "[analytic]" in out
        for name in ("TP", "QMI", "QMII"):
            assert name in out

    def test_five_stroke_analytic_half_gamma(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--mode", "five", "--b", "0.6931", "--gamma", "0.5", "--r", "2", "--analytic"
        )
        assert code == 0
        assert "[numeric]" not in out
        assert etas_from_output(out) == [pytest.approx(0.5, abs=1e-12)]

    def test_gamma_below_bound_is_invalid_cycle(self, capsys):
        code, _, err = run_cli(capsys, "cycle", "--mode", "three", "--gamma", "0.3")
        assert code == 2
        assert "0.5" in err and "gamma" in err

    @pytest.mark.parametrize("source", ["--both", "--numeric"])
    def test_five_stroke_unrealizable_gamma_aborts_without_output(self, capsys, source):
        # gamma = 0.4 lies in the r = 2 formula range [1/3, 1] but below the
        # realizable 1/2: no damping strength swaps the populations.
        code, out, err = run_cli(
            capsys, "cycle", "--mode", "five", "--gamma", "0.4", "--r", "2", source
        )
        assert code == 2
        assert "unrealizable" in err
        assert out == ""

    def test_five_stroke_unrealizable_gamma_analytic_is_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--mode", "five", "--gamma", "0.4", "--r", "2", "--analytic"
        )
        assert code == 0
        assert "q_used=nan" in out
        assert "flags=no-isentropic-partner" in out

    def test_gamma_just_below_half_has_no_partner(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--mode", "three", "--b", "10", "--gamma", BAND_GAMMA, "--analytic"
        )
        assert code == 0
        assert "q_used=nan" in out
        assert "flags=no-isentropic-partner" in out

    # sha256 of the stdout of `cycle` at every b x gamma below, run in this
    # order, as first recorded: a change to the scalar cycle must print the
    # same ledgers byte for byte.
    @pytest.mark.parametrize(
        ("mode", "source", "digest"),
        [
            ("three", "--numeric", "f36503ec16e5037525e0c6964700dc83a3680fb82361afc9236cfbc303b4b44d"),
            ("three", "--analytic", "8e1a16e544f43baba96c5ccc48b3286f7b081bb6b7054b71b88d50b9442fc19a"),
            ("three", "--both", "f01f2777383ec33b8d7305fff50aca9aab29327ace4210488cf61ebe62748ff1"),
            ("five", "--numeric", "a4346d8a99d137cc6760f22c989da66c33bbae22a985a9391bea50b49b51e662"),
            ("five", "--analytic", "9653c9b3498448a2a6b187fc4165dfd19da53adb579373d6985ef7d821a52cfa"),
            ("five", "--both", "6098d8d6a7a48068a2faf5c075176984b1a33ae3327131da0ede4bfe05c0e536"),
        ],
    )
    def test_stdout_digest_is_pinned(self, capsys, mode, source, digest):
        extra = ["--r", "2"] if mode == "five" else []
        out = []
        for b in ("1e-7", "0.6931471805599453", "5", "700"):
            for gamma in ("0.5", "0.8", "1"):
                code, text, _ = run_cli(
                    capsys, "cycle", "--mode", mode, "--b", b, "--gamma", gamma, *extra, source
                )
                assert code == 0
                out.append(text)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == digest

    def test_analytic_only_stdout_digest_is_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--mode", "five", "--gamma", "0.3", "--r", "2", "--analytic"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "03853a19cabf125b79e4a885ae0ffa6aa40136d66f3dafac54c5340aa2bc9165"
        )

    def test_missing_gamma_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cycle", "--mode", "three")
        assert code == 1
        assert "gamma" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cycle", "--mode", "three", "--gamma", "0.75", "--bogus")
        assert code == 1

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "subcommand" in err


class TestSweepCommand:
    def test_header_and_analytic_column(self, capsys, tmp_path):
        out_path = tmp_path / "three.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--mode", "three",
            "--b-values", repr(math.log(2.0)),
            "--gamma-values", "0.5,0.75,1.0",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        eta_col = CSV_HEADER.split(",").index("eta_analytic")
        etas = [float(line.split(",")[eta_col]) for line in lines[1:]]
        assert etas == [0.0, pytest.approx(2.0 / 3.0, abs=1e-12), 1.0]

    def test_gamma_just_below_half_leaves_q_empty(self, capsys, tmp_path):
        out_path = tmp_path / "band.csv"
        code, _, _ = run_cli(capsys, "sweep", "--mode", "three", "--b-values", "10",
                             "--gamma-values", BAND_GAMMA, "--out", str(out_path))
        assert code == 0
        header, row = out_path.read_text().splitlines()
        assert row.split(",")[header.split(",").index("q")] == ""

    def test_rows_round_trip_at_12_significant_digits(self, capsys, tmp_path):
        out_path = tmp_path / "five.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--mode", "five",
            "--b-values", "0.1,1.0",
            "--gamma-values", "0.4,0.5,0.9",
            "--r-values", "1,2",
            "--out", str(out_path),
        )
        assert code == 0
        header, *rows = out_path.read_text().splitlines()
        assert len(rows) == 12  # b outer, gamma middle, r inner
        for row in rows:
            for cell in row.split(",")[1:]:
                if cell == "":
                    continue
                assert f"{float(cell):.12g}" == cell

    def test_valid_rows_pair_numeric_with_analytic(self, capsys, tmp_path):
        out_path = tmp_path / "pairs.csv"
        run_cli(
            capsys, "sweep", "--mode", "five",
            "--b-values", "0.5,2.0",
            "--gamma-values", "0.35,0.5,0.75,1.0",
            "--r-values", "2",
            "--out", str(out_path),
        )
        cols = CSV_HEADER.split(",")
        i_va, i_vn = cols.index("eta_analytic"), cols.index("eta_numeric")
        i_valid, i_gamma = cols.index("valid"), cols.index("gamma")
        for line in out_path.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[i_valid] == ("1" if float(cells[i_gamma]) >= 1.0 / 3.0 else "0")
            if cells[i_valid] == "1" and cells[i_vn] != "":
                assert abs(float(cells[i_va]) - float(cells[i_vn])) <= 1e-10
            if float(cells[i_gamma]) < 0.5:
                assert cells[i_vn] == ""  # numerically unrealizable

    def test_five_stroke_r1_matches_three_stroke_rows(self, capsys, tmp_path):
        three_path = tmp_path / "three.csv"
        five_path = tmp_path / "five.csv"
        args = ["--b-values", "0.2,1.3", "--gamma-values", "0.5,0.8,1.0"]
        run_cli(capsys, "sweep", "--mode", "three", *args, "--out", str(three_path))
        run_cli(capsys, "sweep", "--mode", "five", *args, "--r-values", "1", "--out", str(five_path))
        three_rows = three_path.read_text().splitlines()[1:]
        five_rows = five_path.read_text().splitlines()[1:]
        for t, f in zip(three_rows, five_rows):
            assert t.split(",")[1:] == f.split(",")[1:]  # everything but the mode column

    def test_sweep_is_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "sweep", "--mode", "three",
            "--b-values", "0.1,0.6931471805599453,1.0,5.0",
            "--gamma-values", "0.5,0.6,0.75,0.9,1.0",
        ]
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--mode", "three", "--b-values", "1", "--gamma-values", "0.5",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        )
        assert code == 1
        assert "io error" in err

    # The error of the first bad point in the flat b > gamma > r order, as first recorded: a
    # bad r meets the first (b, gamma), before a later bad b or gamma.
    @pytest.mark.parametrize(
        ("grid", "message"),
        [
            (["--mode", "three", "--b-values", "1", "--gamma-values", "0.6,0.75", "--r-values", "1,2"],
             "three-stroke cycle requires r = 1, got r = 2.0"),
            (["--mode", "five", "--b-values", "1,-1", "--gamma-values", "0.75"],
             "b must be finite and positive, got -1.0"),
            (["--mode", "three", "--b-values", "1,-1", "--gamma-values", "0.75", "--r-values", "2"],
             "three-stroke cycle requires r = 1, got r = 2.0"),
            (["--mode", "three", "--b-values", "1", "--gamma-values", "0.75,2", "--r-values", "2"],
             "three-stroke cycle requires r = 1, got r = 2.0"),
            (["--mode", "three", "--b-values=-1,1", "--gamma-values", "0.75", "--r-values", "2"],
             "b must be finite and positive, got -1.0"),
            (["--mode", "five", "--b-values", "1,-1", "--gamma-values", "0.75", "--r-values", "0.5"],
             "frequency ratio r must be >= 1, got 0.5"),
            (["--mode", "five", "--b-values", "1", "--gamma-values", "0.75,2", "--r-values", "0.5"],
             "frequency ratio r must be >= 1, got 0.5"),
            (["--mode", "five", "--b-values=-1,1", "--gamma-values", "0.75", "--r-values", "0.5"],
             "b must be finite and positive, got -1.0"),
        ],
        ids=["three-stroke-r2", "negative-b",
             "three-bad-r-then-bad-b", "three-bad-r-then-bad-gamma", "three-bad-b-and-bad-r",
             "five-bad-r-then-bad-b", "five-bad-r-then-bad-gamma", "five-bad-b-and-bad-r"],
    )
    def test_invalid_grid_point_leaves_no_file(self, capsys, tmp_path, grid, message):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sweep", *grid, "--out", str(out_path))
        assert code == 2
        assert err == f"invalid cycle: {message}\n"
        assert list(tmp_path.iterdir()) == []

    # sha256 of each CSV as first recorded: a change to the cycle core or to
    # the validation layers must reproduce the sweep byte for byte.
    @pytest.mark.parametrize(
        ("grid", "digest"),
        [
            (
                ["--mode", "three", "--b-values", "0.1,0.6931471805599453,1,5,50",
                 "--gamma-values", "0,0.25,0.4,0.5,0.6,0.75,0.9,1"],
                "40d3dfccd3a79c5a27713b14b9ce94b4601bb292458b45c199883ac5a16249ec",
            ),
            (
                ["--mode", "five", "--b-values", "0.1,0.6931471805599453,1,5",
                 "--gamma-values", "0,0.2,0.4,0.5,0.75,1", "--r-values", "1,2,5"],
                "af509878da86ec15fbe8e73f0533403de8e85113fba5ee6563be4f15d7124f04",
            ),
            (
                # every row twice
                ["--mode", "three", "--b-values", "0.1,1,5", "--gamma-values", "0.3,0.5,1",
                 "--r-values", "1,1"],
                "1da21a684544c4ed9ff7ff3e226cebc94d35954f0fa7b869295760f2391786f9",
            ),
        ],
        ids=["three", "five", "three-duplicate-r"],
    )
    def test_csv_digest_is_pinned(self, capsys, tmp_path, grid, digest):
        out_path = tmp_path / "pinned.csv"
        code, _, _ = run_cli(capsys, "sweep", *grid, "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_bad_gamma_list_value(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--mode", "three", "--b-values", "1", "--gamma-values", "0.5,1.5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestVerifyCommand:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "0 failures" in out

    def test_default_grid_is_fast(self):
        report = run_verification()
        assert report.passed
        assert report.checks_run == 1672
        assert report.elapsed_seconds < 1.0

    def test_gamma_just_below_half_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--grid-b", "10",
                               "--grid-gamma", f"{BAND_GAMMA},0.5")
        assert code == 0
        assert out.startswith("verify: 85 checks, 0 failures, ")

    def test_perturbation_fails_first_law(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--perturb", "qout")
        assert code == 3
        assert "first-law" in out

    @pytest.mark.parametrize("field", ["qin", "w_ext", "eta", "delta"])
    def test_any_perturbation_is_caught(self, capsys, field):
        code, out, _ = run_cli(capsys, "verify", "--perturb", field)
        assert code == 3

    def test_grid_flags_scale_the_check_count(self, capsys):
        _, small_out, _ = run_cli(capsys, "verify", "--grid-b", "0.1,5", "--grid-gamma", "0.5,1.0")
        _, full_out, _ = run_cli(capsys, "verify")
        small = int(re.search(r"verify: (\d+) checks", small_out).group(1))
        full = int(re.search(r"verify: (\d+) checks", full_out).group(1))
        assert 0 < small < full

    def test_unknown_perturb_field(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--perturb", "nonsense")
        assert code == 1
        assert "perturbation field" in err


class TestConfigFile:
    def test_cycle_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("# worked point\nmode=three\nb=0.6931\ngamma=0.75\n")
        code, out, _ = run_cli(capsys, "cycle", "--config", str(cfg))
        assert code == 0
        assert etas_from_output(out)[0] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("mode=three\nb=0.6931\ngamma=0.75\n")
        code, out, _ = run_cli(capsys, "cycle", "--config", str(cfg), "--gamma", "1.0")
        assert code == 0
        assert etas_from_output(out)[0] == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_gamma_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("mode=three\ngamma=1.5\n")
        code, _, err = run_cli(capsys, "cycle", "--config", str(cfg))
        assert code == 2
        assert "gamma" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cycle", "--config", str(tmp_path / "nope.cfg"))
        assert code == 1
        assert "not found" in err

    def test_unknown_key_names_the_line(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("mode=three\nwhat=ever\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(cfg))

    def test_malformed_number_names_the_line(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("mode=three\n\n# comment\nb=abc\n")
        with pytest.raises(ConfigError, match="line 4"):
            load_config(str(cfg))

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_empty_output_path_is_a_usage_error(self, capsys, tmp_path, spelling):
        # `--out ""` and a config line `output =` give no path, as if none were given.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("mode=three\nb_values=1\ngamma_values=0.75\noutput =\n")
        argv = ["--out", ""] if spelling == "flag" else []
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), *argv)
        assert (code, out) == (1, "")
        assert err.endswith(
            "usage error: output is required (pass --out or set it in a config file)\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_sweep_spec_from_config(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "mode=five\nb_values=0.5,1.0\ngamma_values=0.5,1.0\n"
            f"r_values=1,3\noutput={out_path}\n"
        )
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 9


HELP_LINES = [
    "Subcommands:",
    "  cycle   run one engine cycle and print its stroke table and ledger",
    "  sweep   evaluate a parameter grid and write it as CSV",
    "  verify  run the analytic-vs-numeric cross-check suite",
    "Exit codes: 0 success, 1 usage/config/io error, 2 invalid parameters, 3 failed checks.",
]


def test_help_prints_the_subcommands_and_exit_codes_as_written(capsys):
    # argparse's default formatter reflows a description into one paragraph.
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line in HELP_LINES] == HELP_LINES
    # Each subcommand's description prints once: the module docstring is its one owner.
    for name, line in zip(("cycle", "sweep", "verify"), HELP_LINES[1:4], strict=True):
        assert [ln for ln in lines if re.match(rf" +{name} +\w", ln)] == [line]
