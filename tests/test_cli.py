import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from cantorext import cli, hausdorff
from cantorext.cli import _emit, main
from cantorext.errors import BracketError

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "readme_cli.json"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def exit_code(args) -> int:
    """main's exit code; argparse's usage errors raise SystemExit(2)."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def _readme_commands() -> list:
    """Each command of the README's CLI block as an argument list.  ``--out``
    is dropped: it writes its own path into the header."""
    cmds, in_cli = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("## "):
            in_cli = line.strip() == "## CLI"
        elif in_cli and line.strip().startswith("cantorext "):
            args = shlex.split(line)[1:]
            if "--out" in args:
                i = args.index("--out")
                del args[i:i + 2]
            cmds.append(args)
    return cmds


def _command_id(args) -> str:
    if "--family" in args:
        return f"{args[0]}-{args[args.index('--family') + 1]}"
    return args[0]


@functools.lru_cache(maxsize=None)
def readme_run(command: str) -> tuple:
    """(exit code, stdout body, the config keys its handler read) of one
    README command, run once per test run.  The keys tell the boundary sweep
    which flags the command uses."""
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    resolve = cli.resolve_config
    buf = io.StringIO()
    with mock.patch.object(cli, "resolve_config",
                           lambda *a: Recording(resolve(*a))), \
            contextlib.redirect_stdout(buf):
        code = main(command.split())
    return code, buf.getvalue(), frozenset(read)


def readme_body(command: str) -> tuple:
    """(exit code, stdout body) of one README command."""
    return readme_run(command)[:2]


def _extend_rows_above_bound(command: str) -> list:
    """The rows of an ``extend`` body whose measured error exceeds its
    certified bound."""
    code, out = readme_body(command)
    assert code == 0
    return [row for row in json.loads(out)["data"]
            if row["ln_err"] is not None and row["ln_err"] > row["ln_bound"]]


# values at or past the edge of what each flag accepts
BOUNDARY_VALUES = {
    "--k-max": ["0", "1", "2", "4"], "--depth": ["0", "1"],
    "--bits": ["1"], "--N": ["-1", "0", "1"], "--n": ["0", "1"],
    "--r": ["0", "1", "0,128"], "--s": ["0", "-1"], "--q": ["0", "-1"],
    "--s-max": ["0"], "--interval": ["0,0", "2,0"],
    "--epsilon": ["0", "-1", "nan", "inf"],
    "--m-window": ["-1"], "--alpha0": ["-1", "0"], "--eps-sign": ["2", "-1"],
    "--m": ["0", "1"], "--B": ["0", "-1", "nan", "inf"],
    "--a": ["0", "nan", "inf"], "--b": ["0", "nan", "inf"],
    "--variant": ["Z"], "--gammas": ["0"], "--k-range": ["0", "1"],
    "--Q": ["0", "1", "nan", "inf"], "--seed": ["-1"],
}


_MAX = repr(sys.float_info.max)
# each family parameter at the edges of what its family accepts, and at the
# largest double; from_dimension_function's h has no flag
FAMILY_EXTREMES = {
    "power_law": [["--a", repr(math.nextafter(1.0, 2.0))], ["--a", _MAX]],
    "exponential": [["--a", repr(math.nextafter(1.0, 2.0))], ["--a", _MAX]],
    "doubly_exp": [["--a", repr(math.nextafter(1.0, 2.0))], ["--a", _MAX]],
    "example1": [["--B", "5e-324"], ["--B", _MAX]],
    "example2": [["--variant", "A"], ["--variant", "B"]],
    "example3": [["--m", "3"], ["--m", "1000"]],
    "delta_form": [["--b", repr(math.nextafter(math.log(4.0), 2.0))],
                   ["--b", _MAX]],
    "custom": [["--gammas", "0.03125"], ["--gammas", "5e-324"]],
    "from_dimension_function": [[]],
}
SWEEP_K_MAX = (1, 50, 400, 3000)
# sweep cases left out for their time, in seconds of one run in a fresh
# process on a 2-CPU machine; each exited 0, 2 or 3
SLOW_SWEEP_CASES = {
    "gamma --family doubly_exp --k-max 3000 --a " + _MAX: 8.4,
    "dn --family doubly_exp --k-max 3000 --a " + _MAX: 7.3,
    "hausdorff --family doubly_exp --k-max 3000 --a " + _MAX: 8.4,
    "hausdorff --family example2 --k-max 50 --variant B": 1.37,
    "hausdorff --family example2 --k-max 400 --variant B": 1.38,
    "hausdorff --family example3 --k-max 50 --m 3": 1.28,
    "gamma --family delta_form --k-max 3000 --b 1.3862943611198908": 0.67,
    "dn --family delta_form --k-max 3000 --b 1.3862943611198908": 0.71,
    "hausdorff --family delta_form --k-max 3000 --b 1.3862943611198908":
        0.77,
    "gamma --family delta_form --k-max 3000 --b " + _MAX: 13.6,
    "dn --family delta_form --k-max 3000 --b " + _MAX: 13.3,
    "hausdorff --family delta_form --k-max 3000 --b " + _MAX: 16.2,
}


def test_every_family_and_horizon_exits_cleanly():
    # gamma, dn and hausdorff over every family, k_max in SWEEP_K_MAX and
    # each family parameter's extreme values, in process: exit 0, 2 or 3,
    # and strict JSON on exit 0.  power_law's --a next to 1 (C0 past the
    # doubles) and dn with example1's --B at the largest double exited 1
    # on an OverflowError, and so did hausdorff with doubly_exp's --a or
    # delta_form's --b there
    bad, ran = [], 0
    for family, extremes in FAMILY_EXTREMES.items():
        for flags in extremes:
            for k_max in SWEEP_K_MAX:
                for command in ("gamma", "dn", "hausdorff"):
                    args = [command, "--family", family, "--k-max",
                            str(k_max), *flags]
                    if " ".join(args) in SLOW_SWEEP_CASES:
                        continue
                    ran += 1
                    out = io.StringIO()
                    try:
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(io.StringIO()):
                            code = exit_code(args)
                        if code == 0:
                            json.loads(out.getvalue(),
                                       parse_constant=pytest.fail)
                    except Exception as exc:
                        code = repr(exc)
                    if code not in (0, 2, 3):
                        bad.append(f"{' '.join(args)}: {code}")
    assert not bad, "\n".join(bad)
    assert ran + len(SLOW_SWEEP_CASES) == 3 * len(SWEEP_K_MAX) * sum(
        map(len, FAMILY_EXTREMES.values()))

class TestCLI:
    def test_no_subcommand_usage(self, capsys):
        assert main([]) == 2

    def test_gamma_example1(self, capsys):
        code, out = run_cli(["gamma", "--family", "example1", "--B", "1",
                             "--k-max", "10"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["data"]["polar"] == "polar"
        assert payload["data"]["ep"] == "yes"
        assert all(abs(b - 1.0) < 1e-12 for b in payload["data"]["B"])
        assert payload["config"]["family"] == "example1"
        assert "version" in payload

    def test_nodes_reference_order(self, capsys):
        code, out = run_cli(["nodes", "--family", "example1", "--B", "1",
                             "--k-max", "10", "--interval", "1,0", "--N", "6",
                             "--depth", "3"], capsys)
        assert code == 0
        data = json.loads(out)["data"]["nodes"]
        assert [n["type"] for n in data] == [0, 0, 1, 1, 2, 2]
        assert data[0]["x"].startswith("0.0")
        assert data[1]["x"].startswith("1.0")

    def test_validation_exit_code(self, capsys):
        code, _ = run_cli(["gamma", "--family", "custom", "--gammas", "0.3"],
                          capsys)
        assert code == 2

    def test_budget_exit_code(self, capsys):
        code, _ = run_cli(["geometry", "--family", "example1", "--B", "1",
                           "--k-max", "12", "--depth", "9", "--bits", "256"],
                          capsys)
        assert code == 3

    def test_library_error_outside_both_groups_exits_2(self, capsys,
                                                       monkeypatch):
        # build_tree raises BracketError on a negative discriminant; it
        # escaped main with a traceback, being in neither exit-code tuple
        def bracket(*args, **kwargs):
            raise BracketError("negative discriminant at the root level")

        monkeypatch.setattr(cli, "build_tree", bracket)
        code = main(["geometry", "--family", "power_law", "--a", "2",
                     "--depth", "2"])
        assert code == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: negative discriminant at the root "
                                  "level\n")

    def test_csv_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "gamma.csv"
        code, _ = run_cli(["gamma", "--family", "example1", "--B", "1",
                           "--k-max", "6", "--format", "csv",
                           "--out", str(out_file)], capsys)
        assert code == 0
        text = out_file.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# ")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "k,B_k,beta_k,robin_partial"
        assert len(lines) == header_idx + 7
        assert "\r" not in text

    def test_determinism(self, capsys):
        args = ["markov", "--family", "power_law", "--a", "2", "--k-max", "12",
                "--depth", "3", "--n", "2,4", "--seed", "11"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# demo config\nfamily = example1\nB = 1\nk_max = 6\n")
        code, out = run_cli(["gamma", "--config", str(cfg)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["family"] == "example1"
        assert payload["config"]["k_max"] == 6
        # explicit flag beats the config line
        code, out = run_cli(["gamma", "--config", str(cfg), "--k-max", "4"],
                            capsys)
        assert len(json.loads(out)["data"]["B"]) == 4
        # even when the flag repeats its default value (k_max 40)
        code, out = run_cli(["gamma", "--config", str(cfg), "--k-max", "40"],
                            capsys)
        payload = json.loads(out)
        assert payload["config"]["k_max"] == 40
        assert len(payload["data"]["B"]) == 40

    @pytest.mark.parametrize("text, cause", [
        ("famly = example2\n", "--famly=example2"),
        ("k_ma = 12\n", "--k-ma=12"),
        ("family = example1\nk_max 12\n", "config line without '='"),
        (None, "No such file"),
    ], ids=["unknown-key", "key-prefix", "no-equals", "missing-file"])
    def test_bad_config_exits_2_with_cause(self, capsys, tmp_path, text, cause):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        assert exit_code(["gamma", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and cause in captured.err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing-dir" / "gamma.json"
        assert exit_code(["gamma", "--family", "example1", "--k-max", "4",
                          "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_file_values_take_flag_types(self, capsys, tmp_path):
        # depth/bits from a file give the same body as the same flags
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("family = example1\nB = 1\nk_max = 12\ndepth = 3\n"
                       "bits = 256\n")
        code, out = run_cli(["geometry", "--config", str(cfg)], capsys)
        assert code == 0
        from_file = json.loads(out)
        code, out = run_cli(["geometry", "--family", "example1", "--B", "1",
                             "--k-max", "12", "--depth", "3", "--bits", "256"],
                            capsys)
        assert code == 0
        from_flags = json.loads(out)
        assert from_file["config"].pop("config_file") == str(cfg)
        assert from_flags["config"].pop("config_file") is None
        assert from_file == from_flags

    def test_dn_subcommand(self, capsys):
        code, out = run_cli(["dn", "--family", "example2", "--k-max", "40",
                             "--epsilon", "0.25", "--r", "128,512",
                             "--s", "9,16"], capsys)
        assert code == 0
        data = json.loads(out)["data"]
        assert data["rows"][0]["fires"] is True

    def test_density_islands(self, capsys):
        code, out = run_cli(["density", "--family", "islands", "--Q", "2",
                             "--alpha0", "0.5", "--k-max", "60",
                             "--k-range", "10,20,40"], capsys)
        assert code == 0
        data = json.loads(out)["data"]
        assert data["liminf_estimate"] == pytest.approx(2 ** -0.5, rel=0.1)

    def test_dn_default_r_and_s(self, capsys):
        code, out = run_cli(["dn", "--family", "example2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["config"]["r"], payload["config"]["s"]) == ("32,128", "4,9")
        assert [(row["r"], row["s"]) for row in payload["data"]["rows"]] == \
            [(32, 4), (128, 9)]

    def test_density_without_k_range_names_the_flag(self, capsys):
        code = main(["density", "--family", "delta_form", "--b", "2",
                     "--depth", "4"])
        assert code == 2
        assert "--k-range" in capsys.readouterr().err

    def test_density_k1_rejected_before_any_content(self, capsys, monkeypatch):
        # r_1 = 7/8 gives 2r > 1, outside every h's domain
        def no_content(*args):
            raise AssertionError("content computed before the k check")

        monkeypatch.setattr(hausdorff, "content_dp", no_content)
        code = main(["density", "--family", "delta_form", "--b", "2",
                     "--depth", "4", "--k-range", "1,2,3"])
        assert code == 2
        assert "k=1: radius r = 0.875 has 2r >= 1" in capsys.readouterr().err

    def test_markov_depth_0_estimates_on_the_unit_interval(self, capsys):
        # depth 0 leaves the one atom [0, 1], where M_2 = 2 n^2 = 8; depth 3
        # would give 64
        code, out = run_cli(["markov", "--family", "power_law", "--a", "2",
                             "--depth", "0", "--n", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["depth"] == 0
        assert 8.0 <= payload["data"][0]["numeric"] < 8.1

    def test_markov_depth_defaults_to_3(self, capsys):
        args = ["markov", "--family", "power_law", "--a", "2", "--n", "2"]
        _, implicit = run_cli(args, capsys)
        _, explicit = run_cli(args + ["--depth", "3"], capsys)
        assert json.loads(implicit)["config"]["depth"] == 3
        assert implicit == explicit

    def test_density_m_0_is_rejected(self, capsys):
        # LogPower(0.5, 1, m=0) is invalid; m = 0 must not stand for m = 3
        code = main(["density", "--family", "islands", "--Q", "2",
                     "--eps-sign", "1", "--m", "0", "--k-range", "10",
                     "--k-max", "20"])
        assert code == 2
        assert "m >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("s_max", ["0", "-1"])
    def test_extend_truncation_below_1_is_rejected(self, capsys, s_max):
        # a level below 1 used to index the schedule from its end and print
        # bounds like ln_bound = -8.8e12 next to ln_err = -5.8
        code = main(["extend", "--family", "example1", "--B", "1",
                     "--bits", "1024", "--s-max", s_max])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "truncation level" in err

    @pytest.mark.parametrize("args", [
        ["extend", "--N", "0"], ["extend", "--N", "-1"],
        ["markov", "--N", "1"], ["markov", "--N", "0"],
        ["markov", "--N", "-5"],
    ], ids=" ".join)
    def test_counts_below_their_minimum_are_rejected(self, capsys, args):
        # extend --N 0 used to print no rows and --N -1 to drop the last
        # point; markov --N below 2 estimated on 2 points per atom instead
        code = main(args + ["--family", "power_law", "--a", "2",
                            "--depth", "2", "--s-max", "1", "--n", "2"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["extend", "--family", "example1", "--B", "1", "--bits", "1024",
         "--s-max", "2", "--N", "2", "--k-max", "2"],
        ["extend", "--family", "example1", "--B", "1", "--bits", "1024",
         "--s-max", "3", "--k-max", "4"],
    ])
    def test_extend_bound_past_the_horizon_exits_3(self, capsys, args):
        assert main(args) == 3
        assert "horizon" in capsys.readouterr().err

    def test_hausdorff_k_max_below_5_exits_2(self, capsys):
        # the root test's k list range(5, k_max + 1, 5) is empty
        code = main(["hausdorff", "--family", "example1", "--B", "1",
                     "--depth", "3", "--k-max", "4"])
        assert code == 2
        assert "at least one k" in capsys.readouterr().err

    @pytest.mark.parametrize("Q", ["nan", "inf"])
    def test_density_non_finite_island_exponent_is_rejected(self, capsys, Q):
        # Q = nan passed the Q >= 2 test and printed a liminf of 0.496;
        # Q = inf gave zero-length islands and printed inf_phi 0.0
        code = main(["density", "--family", "islands", "--Q", Q,
                     "--alpha0", "0.5", "--k-range", "10,30", "--k-max", "120"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite Q_k >= 2" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("args", [
        ["gamma", "--family", "example1", "--B"],
        ["geometry", "--family", "power_law", "--a"],
        ["density", "--family", "delta_form", "--depth", "3",
         "--k-range", "2,3", "--b"],
    ], ids=["B", "a", "b"])
    def test_non_finite_family_parameter_is_rejected(self, capsys, args,
                                                     value):
        # inf raised a bare OverflowError (exit 1); nan exited 2 with
        # "cannot convert NaN to integer ratio", naming no flag
        code = main(args + [value])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"parameter {args[-1][2:]} must be finite" in err

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    def test_dn_epsilon_not_positive_is_rejected(self, capsys, eps):
        # eps = 0 and -1 printed "diverges": true with every row firing
        code = main(["dn", "--family", "example2", "--r", "128,512",
                     "--s", "9,16", "--epsilon", eps])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite eps > 0" in err

    @pytest.mark.parametrize("args,cause", [
        (["--r", "32,128", "--s", "0,0"], "s >= 1"),
        (["--r", "32,128", "--s=-1,-1"], "s >= 1"),
        (["--epsilon", "0.25", "--r", "128,512", "--s", "9,16",
          "--m-window", "-1"], "m >= 0"),
    ])
    def test_dn_level_below_1_and_window_below_0_are_rejected(self, capsys,
                                                             args, cause):
        # each printed rows and exited 0: "brace": null for s = 0 and -1,
        # and rows at q = 2^-1 for --m-window -1
        code = main(["dn", "--family", "example2"] + args)
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and cause in err

    def test_dn_r_not_a_power_of_two_is_rejected(self, capsys):
        # r = 0 failed in math.log2 with "error: math domain error"
        code = main(["dn", "--family", "example2", "--r", "0,128",
                     "--s", "4,9"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "r=0" in err

    def test_dn_bound_past_the_doubles_is_null(self, capsys):
        # 2^(s+n) = 2^1025 has no double: this exited 1 on an OverflowError
        code, out = run_cli(["dn", "--family", "example1", "--B", "1",
                             "--k-max", "1100", "--s", "1020", "--r", "32"],
                            capsys)
        assert code == 0
        row, = json.loads(out)["data"]["rows"]
        assert (row["brace"], row["fires"]) == (0.75, False)
        assert row["ln_bound_scaled"] is None and row["ln_bound_full"] is None

    def test_dn_brace_of_weights_at_the_largest_double(self, capsys):
        # the brace 2B - 0.25 * 5B = 0.75B is a double though its window
        # sums are not: it printed null, the doubles' inf - inf
        code, out = run_cli(["dn", "--family", "example1", "--B", _MAX],
                            capsys)
        assert code == 0
        row = json.loads(out)["data"]["rows"][0]
        assert (row["n"], row["fires"]) == (5, False)
        assert row["brace"] == 0.75 * sys.float_info.max
        assert row["ln_bound_scaled"] is None

    @pytest.mark.parametrize("k_max", [1000, 2000])
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_gamma_dips_past_the_doubles(self, capsys, variant, k_max):
        # a dip A_j - A_{j-1} or an A_j past 2^1024 has no double: k_max 1000
        # exited 1 on an OverflowError in the tail, 2000 in the verdict
        code, out = run_cli(["gamma", "--family", "example2", "--variant",
                             variant, "--k-max", str(k_max)], capsys)
        assert code == 0
        data = json.loads(out)["data"]
        assert data["model"]["k_max"] == k_max and data["ep"] == "no"
        assert len(data["B"]) == k_max

    @pytest.mark.parametrize("args,code,cause", [
        ("gamma --family doubly_exp --a 1.5 --k-max 3000", 3,
         "--k-max must be below 1751"),
        ("dn --family doubly_exp --a 1.5 --k-max 2000 --s 1900 --r 64", 3,
         "--k-max must be below 1751"),
        ("gamma --family power_law --a 1e308 --k-max 50", 2,
         "no double at k=7 for --a 1e+308"),
        ("hausdorff --family delta_form --b 700 --k-max 400", 3,
         "--k-max must be below 109"),
        ("hausdorff --family example3 --k-max 400", 3,
         "--k-max must be below 282"),
        ("gamma --family delta_form --b 700 --k-max 3000", 0, None),
        ("dn --family delta_form --b 700 --k-max 2000 --s 1900 --r 64", 0,
         None),
    ], ids=["gamma-doubly_exp", "dn-doubly_exp", "gamma-power_law",
            "hausdorff-delta_form", "hausdorff-example3",
            "gamma-delta_form", "dn-delta_form"])
    def test_values_past_the_doubles_exit_cleanly(self, capsys, args, code,
                                                  cause):
        # each exited 1 on an OverflowError: a value past the doubles that
        # only prints saturates to null, any other names the flag to change
        assert main(args.split()) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and cause in err
            return
        data = json.loads(out, parse_constant=pytest.fail)["data"]
        if args.startswith("gamma"):
            # B_k = 700^k / 2^(k+1) leaves the doubles at k = 122
            B = data["B"]
            assert None not in B[:121] and B[121:] == [None] * (3000 - 121)
        else:
            row, = data["rows"]
            assert row["fires"] and row["brace"] is None

    def test_extend_negative_order_is_rejected(self, capsys):
        # --q -2 exited 0 and printed a bound of e^-12.79 for square
        code = main(["extend", "--family", "example1", "--B", "1", "--bits",
                     "1024", "--s-max", "3", "--N", "1", "--q", "-1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "order q >= 0" in err

    @pytest.mark.parametrize("args", _readme_commands(), ids=_command_id)
    def test_readme_command_body(self, args):
        # the README promises byte-identical bodies for a configuration; the
        # golden hashes pin them across changes to the program
        code, out = readme_body(" ".join(args))
        assert code == 0
        golden = json.loads(GOLDEN.read_text())
        assert hashlib.sha256(out.encode()).hexdigest() == golden[" ".join(args)]

    @pytest.mark.parametrize("args", _readme_commands(), ids=_command_id)
    def test_boundary_flags_exit_cleanly(self, args):
        # each flag the command reads, set alone to each boundary value, must
        # end in exit 0, 2 or 3, never in an exception out of main
        read = readme_run(" ".join(args))[2]
        bad = []
        for flag, values in BOUNDARY_VALUES.items():
            if flag[2:].replace("-", "_") not in read:
                continue
            for value in values:
                run = list(args)
                if flag in run:
                    run[run.index(flag) + 1] = value
                else:
                    run += [flag, value]
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = exit_code(run)
                except Exception as exc:
                    code = repr(exc)
                if code not in (0, 2, 3):
                    bad.append(f"{' '.join(run)}: {code}")
        assert not bad, "\n".join(bad)

    def test_extend_error_within_certified_bound(self):
        # every row of the README extend command; ln_err is null where W
        # reproduces f exactly
        assert _extend_rows_above_bound(
            "extend --family example1 --B 1 --bits 1024 --s-max 3") == []

    def test_extend_error_within_certified_bound_at_s_max_5(self):
        assert _extend_rows_above_bound(
            "extend --family example1 --B 1 --bits 1024 --s-max 5") == []

    def test_markov_estimate_lies_in_its_bracket_on_a_deep_tree(self):
        code, out = readme_body(
            "markov --family power_law --a 2 --depth 5 --n 32")
        assert code == 0
        row = json.loads(out)["data"][0]
        assert row["numeric"] is not None and 0 < row["numeric"] < math.inf
        assert row["ln_lower"] <= math.log(row["numeric"]) <= row["ln_upper"]

    def test_readme_bodies_are_strict_json(self):
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        for args in _readme_commands():
            json.loads(readme_body(" ".join(args))[1], parse_constant=reject)
        # ln_err is null where W reproduces f(x) exactly
        rows = json.loads(readme_body(
            "extend --family example1 --B 1 --bits 1024 --s-max 3")[1])["data"]
        exact = [r for r in rows if r["ln_err"] is None]
        assert exact and all(r["W"] == r["fx"] for r in exact)

    def test_non_finite_floats_are_written_as_null(self, capsys):
        data = {"a": [-math.inf, 1.5, (math.nan, math.inf)],
                "b": {"c": -math.inf}, "d": "inf"}
        _emit({}, data)
        out = json.loads(capsys.readouterr().out)["data"]
        assert out == {"a": [None, 1.5, [None, None]], "b": {"c": None},
                       "d": "inf"}

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cantorext", "gamma", "--family", "example1",
             "--B", "1", "--k-max", "4"],
            capture_output=True, text=True, timeout=120, cwd=ROOT / "src")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["data"]["ep"] == "yes"

    def test_examples_bundle_sections(self):
        code, out = readme_body("examples")
        assert code == 0
        data = json.loads(out)["data"]
        assert data["example1"]["polar"] == "polar" and data["example1"]["ep"] == "yes"
        assert data["example2"]["ep"] == "no" and data["example2"]["diverges"]
        assert data["example3"]["ep"] == "yes"
        assert data["order_pair"]["h1_vs_h0"] == "equivalent"
        assert data["order_pair"]["h2_vs_h0"] == "h1 << h2"
        assert data["order_pair"]["ep_K1"] == "yes" and data["order_pair"]["ep_K2"] == "no"
        assert data["islands"]["bounded_Q_liminf"] == pytest.approx(2 ** -0.5, rel=0.1)
        ratios = data["islands"]["unbounded_Q_ratios"]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        for b in ("2.0", "3.0"):
            sc = data["regular_densities"][b]
            assert sc["liminf"] == pytest.approx(sc["limit"], rel=0.1)
        assert data["regular_densities"]["2.0"]["ep"] == "yes"
        assert data["regular_densities"]["3.0"]["ep"] == "no"
        assert data["markov_crossover"]["decreasing_negative_from"] <= 9


def test_reproduce_examples_script(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_examples.py"),
         str(tmp_path)], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    headers = {"example1_profile.csv": "k,B_k,beta_k,robin_partial",
               "island_density.csv": "ln_inv_r,x,phi,ratio_at_r",
               "markov.csv": "n,ln_lower,ln_point,ln_upper,numeric"}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["examples.json", "dip_dn_table.json", *headers])
    # the bundle's config differs from the in-process run's only in "out"
    bundle = json.loads((tmp_path / "examples.json").read_text())
    assert bundle["data"] == json.loads(readme_body("examples")[1])["data"]
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        n = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert n > 0 and lines[n - 1].startswith("# version = ")
        assert lines[n] == header
