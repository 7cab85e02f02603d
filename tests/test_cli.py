"""Tests for the command-line interface and SVG rendering."""

import argparse
import gc
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc

import pytest

from trisub import cli, hyptrig, plane_model, render, verify
from trisub.cli import main
from trisub.render import RenderSpec, cell_children, render_svg, svg_lines
from trisub.shape import EdgeLengths
from trisub.subdivision import MIN_TOL, apply_oracle

from test_hyptrig import decimal_state_angles, decimal_walk


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestShapeCommand:
    def test_from_edges(self, capsys):
        code, out, _ = run(capsys, "shape", "--edges", "1,1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["edges"] == [1, 1, 1]
        assert doc["angles"][0] == pytest.approx(0.9187978721780273, abs=1e-15)
        assert doc["area"] > 0

    def test_from_angles_euclidean(self, capsys):
        code, out, _ = run(capsys, "shape", "--angles",
                           f"{math.pi/3},{math.pi/3},{math.pi/3}")
        assert code == 0
        doc = json.loads(out)
        assert doc["edges"] is None and doc["area"] == 0

    def test_long_sliver_edges(self, capsys):
        code, out, _ = run(capsys, "shape", "--edges", "20,20,39")
        assert code == 0
        assert min(json.loads(out)["angles"]) > 0

    def test_tiny_edges_keep_their_area(self, capsys):
        # from edges of ~1e-77 the Heron form's products underflow; the root's
        # four square roots do not
        for edge in (1e-40, 1e-80, 1e-90, 1e-150):
            code, out, _ = run(capsys, "shape", "--edges", f"{edge},{edge},{edge}")
            assert code == 0
            area = json.loads(out)["area"]
            assert area == pytest.approx(math.sqrt(3) / 4 * edge * edge, rel=1e-12, abs=0)

    @pytest.mark.parametrize("edge", [1e-155, 1e-160])
    def test_subnormal_state_is_too_short(self, capsys, edge):
        code, out, err = run(capsys, "shape", "--edges", f"{edge},{edge},{edge}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "too short" in err

    @pytest.mark.parametrize("edge", ["1e-170", "1e-300"])
    @pytest.mark.parametrize("command", [("shape",), ("limit", "--seq", "|M"),
                                         ("orbit", "--word", "M")])
    def test_zero_state_is_too_short(self, capsys, command, edge):
        # sinh^2(edge/2) underflows to 0, where the angles would come out 0
        code, out, err = run(capsys, *command, "--edges", f"{edge},{edge},{edge}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "too short" in err

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run(capsys, "shape", "--edges", "1,2,5")
        assert code == 1
        assert "error" in err

    def test_usage_error_exit_code(self, capsys):
        assert run(capsys, "shape")[0] == 64
        assert run(capsys, "frobnicate")[0] == 64
        assert run(capsys, "shape", "--edges", "1,1,1", "--bogus")[0] == 64

    @pytest.mark.parametrize("edges, message", [
        ("1,2", "expected three comma-separated numbers"),
        ("1,x,2", "bad number"),
    ])
    def test_bad_triple_is_a_usage_error(self, capsys, edges, message):
        code, out, err = run(capsys, "shape", "--edges", edges)
        assert code == 64 and out == "" and message in err

    def test_usage_error_prints_usage(self, capsys):
        code, _, err = run(capsys, "shape", "--edges", "1,1,1", "--bogus")
        assert code == 64 and err.startswith("usage:")

    @pytest.mark.parametrize("command, option, value", [
        (("limit", "--edges", "4,4,7", "--seq", "|M"), "--tol", "-1e-13"),
        (("limit", "--edges", "4,4,7", "--seq", "|M"), "--tol", "-.5"),
        (("shape",), "--edges", "-1,2,2"),
    ])
    def test_negative_value_after_a_space(self, capsys, command, option, value):
        # after a space as after "=", an argument of "-" and a digit is a
        # value; argparse alone takes only "-1" and "-1.5" for values
        spaced = run(capsys, *command, option, value)
        assert spaced == run(capsys, *command, f"{option}={value}")
        assert spaced[0] == 1 and spaced[2].startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("limit", "--edges", "4,4,7", "--seq", "|M", "--tol"),
        ("limit", "--tol", "--edges", "4,4,7", "--seq", "|M"),
    ])
    def test_option_without_value(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 64 and "--tol: expected one argument" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "limit", "--help")[0] == 0

    def test_parser_is_shared_across_calls(self, capsys):
        # two commands, a usage error and --help in one process, each
        # against the same call on a freshly built parser
        argvs = [("shape", "--edges", "1.1,1.2,1.3"),
                 ("limit", "--edges", "4,4,7", "--seq", "|M"),
                 ("shape", "--edges", "1,1,1", "--bogus"),
                 ("--help",)]
        cli.build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in argvs]
        assert cli.build_parser() is cli.build_parser()
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 64, 0]


def subparser(name):
    action, = [a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices[name]


class DiskFull:
    """A stdout on a full disk.  Unbuffered, each write fails; buffered, the
    writes are taken and the flush fails, as it would again at exit."""

    def __init__(self, buffered, fd=None):
        self.buffered, self.fd = buffered, fd

    def write(self, text):
        if text and not self.buffered:
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self):
        if self.buffered:
            raise OSError(28, "No space left on device")

    def fileno(self):
        return self.fd


# every command that writes stdout
WRITING_COMMANDS = [("shape", "--edges", "4,4,7"), ("sweep", "--seq", "|M", "--grid", "2"),
                    ("verify", "--suite", "noncontraction"),
                    ("orbit", "--edges", "2,2,3", "--word", "MA"),
                    ("limit", "--edges", "4,4,7", "--seq", "|M"),
                    ("address", "--seq", "MAB|BMA", "--exact"),
                    ("equiv", "--s", "AB|C", "--t", "AC|B")]


def disk_full(spec, edges):
    # svg_lines on a full disk: one piece, then the write fails
    yield "<svg>\n"
    raise OSError(28, "No space left on device")


class TestWaysOut:
    """Usage errors leave through argparse, with the usage and one line;
    domain errors and failed reads and writes through main's one handler."""

    @pytest.mark.parametrize("argv, message", [
        (("frobnicate",), "argument command: invalid choice: "),
        (("limit", "--edges", "4,4,7", "--seq", "|M", "--tol"),
         "argument --tol: expected one argument"),
    ])
    def test_usage_then_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        parser = cli.build_parser() if len(argv) == 1 else subparser(argv[0])
        usage, prog = parser.format_usage(), parser.prog
        assert code == 64 and out == ""
        assert err.startswith(usage + f"{prog}: {message}")
        assert err.endswith("\n") and err[len(usage):].count("\n") == 1

    @pytest.mark.parametrize("argv", WRITING_COMMANDS)
    def test_failed_write_to_stdout(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", DiskFull(buffered=False))
        code = main(list(argv))
        assert (code, capsys.readouterr().err) == (1, "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("argv", WRITING_COMMANDS)
    def test_failed_flush_of_stdout(self, capsys, monkeypatch, tmp_path, argv):
        # the exit's flush of stdout must not fail again: its descriptor is
        # left on os.devnull
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", DiskFull(buffered=True, fd=fd))
            code = main(list(argv))
            assert (code, capsys.readouterr().err) == (1, "error: [Errno 28] No space left on device\n")
            os.write(fd, b"dropped")
        finally:
            os.close(fd)
        assert (tmp_path / "stdout").read_bytes() == b""

    @pytest.mark.parametrize("argv", WRITING_COMMANDS + [("render", "--edges", "2,2,3",
                                                           "--depth", "1", "-o")])
    def test_handlers_return_what_main_prints(self, capsys, tmp_path, argv):
        # main is the one writer of stdout: each handler returns its text
        if argv[0] == "render":
            argv += (str(tmp_path / "t.svg"),)
        args = cli.build_parser().parse_args(list(argv))
        text, code = cli._HANDLERS[args.command](args)
        assert capsys.readouterr().out == ""
        assert (main(list(argv)), capsys.readouterr().out) == (code, text)
        assert text == "" if argv[0] == "render" else text.endswith("\n")

    def test_no_stdout(self, capsys, monkeypatch, tmp_path):
        # a process started with its stdout closed has sys.stdout None: each
        # command that writes stdout writes nothing, render writes only its
        # file, and an error is still reported
        monkeypatch.setattr(sys, "stdout", None)
        for argv in WRITING_COMMANDS:
            assert (main(list(argv)), capsys.readouterr().err) == (0, ""), argv
        out_file = tmp_path / "t.svg"
        assert main(["render", "--edges", "1,1,1", "--depth", "1", "-o", str(out_file)]) == 0
        assert out_file.read_text().startswith("<svg")
        assert main(["shape", "--edges", "1,2,5"]) == 1
        assert capsys.readouterr().err.startswith("error: edge c=5.0 violates")


class TestDomainFloor:
    """Every command and public edge function refuses the same tiny
    triangles: below ~3e-154 the state (sinh^2(edge/2), ...) is subnormal or
    0, and hyptrig refuses it as too short."""

    @staticmethod
    def outcomes(capsys, tmp_path, t):
        # each entry point's error, or None where it succeeds
        def call(f):
            try:
                f()
            except hyptrig.DomainError as exc:
                return str(exc)
            return None

        def cli_call(*argv):
            code, _, err = run(capsys, *argv, "--edges", f"{t},{t},{t}")
            assert code == (1 if err else 0)
            return err or None

        out_file = tmp_path / "t.svg"
        e = EdgeLengths(t, t, t)
        found = {
            "shape": cli_call("shape"),
            "orbit": cli_call("orbit", "--word", ""),
            "render": cli_call("render", "--depth", "2", "-o", str(out_file)),
            "medial_data": call(lambda: hyptrig.medial_data(t, t, t)),
            "angles_from_edges": call(lambda: hyptrig.angles_from_edges(t, t, t)),
            "area_from_edges": call(lambda: hyptrig.area_from_edges(t, t, t)),
            "apply_oracle": call(lambda: apply_oracle("M", e)),
        }
        assert out_file.exists() == (found["render"] is None)
        return found

    @pytest.mark.parametrize("t", [1e-300, 1e-170, 1e-162, 1e-160, 1e-155])
    def test_below_the_floor_is_too_short(self, capsys, tmp_path, t):
        found = self.outcomes(capsys, tmp_path, t)
        found["limit"] = run(capsys, "limit", "--edges", f"{t},{t},{t}", "--seq", "|M")[2]
        assert all(err and "too short" in err for err in found.values()), found

    @pytest.mark.parametrize("t", [3e-154, 1e-150])
    def test_above_the_floor_succeeds(self, capsys, tmp_path, t):
        found = self.outcomes(capsys, tmp_path, t)
        assert all(err is None for err in found.values()), found


class TestStepErrors:
    """A walk refused after its start names the step and its letter."""

    THIN = "27.80404362594891,3.8280664983479387,31.57665512025423"

    def test_limit_names_its_step(self, capsys):
        # a long sliver along |M: at the least tol the stopping root is ~2^-2022
        # of the start's, past what one power of two per walk can hold
        code, out, err = run(capsys, "limit", "--edges",
                             "232.50559386298264,123.72750777220271,356.2331016351428",
                             "--seq", "|M", "--tol", repr(MIN_TOL))
        assert code == 1 and out == ""
        assert err.startswith("error: step 517 (M): edges with sinh^2(edge/2) = ")
        assert "too short: the root of their Heron form underflows" in err

    @pytest.mark.parametrize("steps", [499, 500, 501])
    def test_orbit_names_its_last_step(self, capsys, steps):
        # the last state is the least: its largest entry is first subnormal at
        # step 500
        code, out, err = run(capsys, "orbit", "--edges", "0.0006,0.0006,0.0006",
                             "--word", ("MC" * 251)[:steps])
        if steps == 499:
            assert code == 0 and out.count("\n") == 501
        else:
            assert code == 1 and out == ""
            letter = "MC"[(steps - 1) % 2]
            assert err.startswith(f"error: step {steps} ({letter}): edges with ")
            assert "too short: the largest is subnormal" in err

    def test_thin_walks_keep_their_root(self, capsys):
        # the root of the thin start's stopping state at tol 1e-300 is subnormal,
        # as is its 500th state's: both were refused as too short
        code, out, err = run(capsys, "limit", "--edges", self.THIN, "--seq", "|MC",
                             "--tol", "1e-300")
        assert code == 0, err
        want = LIMIT_REFERENCES[self.THIN, "|MC"]
        assert max(abs(x - y) / y for x, y in zip(json.loads(out)["angles"], want)) < 1e-12
        assert_last_row(capsys, self.THIN, "MC" * 250)

    @pytest.mark.parametrize("command", [("limit", "--seq", "|M"), ("orbit", "--word", "M")])
    def test_start_errors_name_no_step(self, capsys, command):
        code, _, err = run(capsys, *command, "--edges", "800,800,800")
        assert code == 1 and err.startswith("error: edges (800.0, 800.0, 800.0) are too long")


class TestLongEdges:
    """Edges too long for binary64 end in an error message, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("shape", "--edges", "800,800,800"),
        ("limit", "--edges", "800,800,800", "--seq", "|M"),
        ("orbit", "--edges", "800,800,800", "--word", "M"),
    ])
    def test_overflowing_edges(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "overflows" in err

    @pytest.mark.parametrize("edge", ["238", "500", "709"])
    @pytest.mark.parametrize("command", [("shape",), ("limit", "--seq", "|M"),
                                         ("orbit", "--word", "M")])
    def test_overflowing_heron_form(self, capsys, command, edge):
        # sinh^2(edge/2) is finite here, but the Heron form of three such
        # edges is inf (from ~238) or inf - inf = nan (from ~500)
        code, out, err = run(capsys, *command, "--edges", f"{edge},{edge},{edge}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "too long" in err

    @pytest.mark.parametrize("angle", ["1e-155", "1e-170"])
    def test_tiny_angles(self, capsys, angle):
        # sin B sin C is subnormal (1e-155) or underflows to 0 (1e-170)
        code, out, err = run(capsys, "shape", "--angles", f"{angle},{angle},{angle}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "too small" in err
        assert "Traceback" not in err

    def test_tiny_angles_area_is_the_defect(self, capsys):
        # the edges (~277.7) are too long for the Heron form of area_from_edges
        code, out, _ = run(capsys, "shape", "--angles", "1e-60,1e-60,1e-60")
        assert code == 0
        doc = json.loads(out)
        assert doc["area"] == hyptrig.defect_area(*doc["angles"])

    def test_longest_equilateral_shape(self, capsys):
        code, out, _ = run(capsys, "shape", "--edges", "237,237,237")
        assert code == 0
        angles = json.loads(out)["angles"]
        assert angles[0] == angles[1] == angles[2] > 0

    @pytest.mark.parametrize("edge", ["15.5", "300", "400"])
    def test_render_refuses_unplaceable_edges(self, capsys, tmp_path, edge):
        out_file = tmp_path / "t.svg"
        code, _, err = run(capsys, "render", "--edges", f"{edge},{edge},{edge}",
                           "--depth", "1", "-o", str(out_file))
        assert code == 1
        assert err.startswith("error:") and "exceeds" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("model", ["klein", "poincare"])
    def test_render_at_the_edge_limit(self, capsys, tmp_path, model):
        edge = plane_model.MAX_PLACED_EDGE
        out_file = tmp_path / "t.svg"
        code, _, _ = run(capsys, "render", "--edges", f"{edge},{edge},{edge}",
                         "--depth", "3", "--model", model, "-o", str(out_file))
        assert code == 0
        svg = out_file.read_text()
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<path") == 1 + 4 ** 3


class TestOrbitCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "orbit", "--edges", "2,2,3",
                           "--word", "ABCM")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,letter,A,B,C,a,b,c,S,ln_sin_A")
        assert len(lines) == 6
        assert lines[1].split(",")[1] == "-"
        assert [ln.split(",")[1] for ln in lines[2:]] == ["A", "B", "C", "M"]

    def test_long_equilateral(self, capsys):
        # at 80, tanh(edge/4) rounds to 1, so no step may rest on tanh products
        code, out, _ = run(capsys, "orbit", "--edges", "80,80,80", "--word", "MMM")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().split("\n")[2:]]
        assert len(rows) == 3 and all(float(x) > 0 for row in rows for x in row[2:8])

    def test_rebuilt_edges_are_not_checked_again(self, capsys):
        # after MBC the state is valid (its Heron root is 2.06e-7), but its
        # edges rebuilt as 2 asinh(sqrt(p)) give a + b - c = 0.0: only the
        # edges a user gives are checked for the triangle inequality
        code, out, err = run(capsys, "orbit", "--edges",
                             "26.77140277034582,5.91333169169455,31.640324086913058",
                             "--word", "MBC")
        assert code == 0, err
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert [row[1] for row in rows] == ["-", "M", "B", "C"]
        assert all(float(x) > 0 for row in rows for x in row[2:5])

    def test_obtuse_rows_take_their_sine_from_the_state(self, capsys):
        # A > pi/2 on every row, and it rounds to the float pi on the last, whose
        # sin(A) = 1.2e-16 would give ln_sin_A = -36.6387 (a check of derived
        # angles refused it); references from 200-digit kernels on these edges
        code, out, err = run(capsys, "orbit", "--edges",
                             "39.39123007451358,14.295832728893053,25.095478923718918",
                             "--word", "MMM")
        assert code == 0, err
        got = [float(ln.split(",")[9]) for ln in out.strip().split("\n")[1:]]
        want = (-4.013888869914404, -23.016275148512856, -32.170915094876548,
                -36.401714339029112)
        assert max(abs(x - y) / -y for x, y in zip(got, want)) < 1e-13

    @pytest.mark.parametrize("steps", [510, 600])
    def test_subnormal_state_is_too_short(self, capsys, steps):
        # the 510th M from 1,1,1 reaches a subnormal state; the walk read rows
        # from such states, and 518 steps and more failed with "angle sum
        # 3.1415926535960663 exceeds pi"
        assert run(capsys, "orbit", "--edges", "1,1,1", "--word", "M" * 509)[0] == 0
        code, out, err = run(capsys, "orbit", "--edges", "1,1,1", "--word", "M" * steps)
        assert code == 1 and out == "" and "too short" in err

    @pytest.mark.parametrize("steps", [410, 436])
    def test_underflowing_root_is_scaled(self, capsys, steps):
        # on a long sliver the root is ~1e-47 of p, q and r: from the 410th M
        # the plain root is subnormal, and at the 436th it is 0, while p, q
        # and r are ~1e-259; such walks were refused as too short.  Scaled
        # by 2^k, the last row keeps the angles of a walk at 80 digits
        assert_last_row(capsys, "31.77404943599029,164.78423885792785,143.28611927012923",
                        "M" * steps)


def assert_last_row(capsys, edges, word):
    # the angles of orbit's last row against the kernels' walk at 80 digits
    code, out, err = run(capsys, "orbit", "--edges", edges, "--word", word)
    assert code == 0, err
    got = [float(x) for x in out.strip().split("\n")[-1].split(",")[2:5]]
    want = decimal_state_angles(*decimal_walk([float(x) for x in edges.split(",")], word))
    assert max(abs(x - y) / y for x, y in zip(got, want)) < 1e-13


# Limit angles of (edges, sequence), from the step kernels with the root carried
# and from the hyperboloid construction of bench/reference.py, both with mpmath
# at 200 digits and more, which agree to every printed digit
LIMIT_REFERENCES = {
    ("9.245215796633417,29.90697176729496,38.47176243170714", "|M"):
        (9.307937830794872e-16, 3.176267136294966e-15, 3.141592653589789),
    ("11.589911935619485,14.6185390484552,3.798629119125004", "|M"):
        (3.011705000305294e-05, 3.1415541452730826, 8.391266707434253e-06),
    ("20,20,39", "|M"):
        (1.8968073975798266e-15, 1.8968073975798266e-15, 3.1415926535897896),
    ("26.77140277034582,5.91333169169455,31.640324086913058", "MB|M"):
        (7.812044454124839e-12, 1.4778871117719072e-12, 3.141592653580503),
    ("25.095478923718918,14.295832728893053,39.39123007451358", "|M"):
        (7.080657239000075e-18, 4.033540990737713e-18, 3.141592653589793),
    ("98.69021739931644,118.55789142489175,185.97895804438994", "|A"):
        (3.999463912684795e-45, 7.032935432390907e-45, 3.141592653589793),
    ("31.77404943599029,164.78423885792785,143.28611927012923", "|MC"):
        (8.920641921190746e-48, 3.141592653589793, 5.519256076631485e-47),
    ("27.80404362594891,3.8280664983479387,31.57665512025423", "|MC"):
        (2.8853987579072118e-09, 3.922555097680463e-10, 3.141592650312139),
}


class TestLimitCommand:
    def test_447_regression(self, capsys):
        code, out, _ = run(capsys, "limit", "--edges", "4,4,7", "--seq", "|M")
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] < 1e-12
        assert doc["angles"][0] == pytest.approx(0.022804857078761738, abs=1e-13)
        assert doc["angles"][2] == pytest.approx(3.0959829394322695, abs=1e-13)
        assert sum(doc["angles"]) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("edges", ["5,5,9.9", "5,5,9.99", "3,3,5.9999"])
    def test_slivers(self, capsys, edges):
        code, out, _ = run(capsys, "limit", "--edges", edges, "--seq", "|M")
        assert code == 0
        doc = json.loads(out)
        assert 0 < doc["residual"] < 1e-13
        assert min(doc["angles"]) > 0

    def test_long_equilateral(self, capsys):
        code, out, _ = run(capsys, "limit", "--edges", "80,80,80", "--seq", "|M")
        assert code == 0
        angles = json.loads(out)["angles"]
        # the stopping state's own defect (~1.8e-14) is inside the Euclidean
        # band, and the angles are scaled onto angle sum pi all the same
        assert angles[0] == angles[1] == angles[2]
        assert angles[0] == pytest.approx(math.pi / 3, rel=0, abs=1e-15)

    def test_bad_sequence(self, capsys):
        assert run(capsys, "limit", "--edges", "1,1,1", "--seq", "A|")[0] == 1

    def assert_reference_limit(self, capsys, edges, seq):
        code, out, err = run(capsys, "limit", "--edges", edges, "--seq", seq)
        assert code == 0, err
        doc = json.loads(out)
        assert 0 < doc["residual"] < 1e-13
        want = LIMIT_REFERENCES[edges, seq]
        assert max(abs(x - y) / y for x, y in zip(doc["angles"], want)) < 1e-12

    @pytest.mark.parametrize("edges, seq", [
        ("20,20,39", "|M"),
        # orbit --word MBC from the same edges prints four rows
        ("26.77140277034582,5.91333169169455,31.640324086913058", "MB|M")])
    def test_flat_stopping_state(self, capsys, edges, seq):
        # the Heron form of the stopping state rounds to 0 or below, and limit
        # exited 1 with "is flat"; its carried root keeps every digit
        self.assert_reference_limit(capsys, edges, seq)

    @pytest.mark.parametrize("edges, seq", [
        ("9.245215796633417,29.90697176729496,38.47176243170714", "|M"),
        ("11.589911935619485,14.6185390484552,3.798629119125004", "|M")])
    def test_cancelling_stopping_state(self, capsys, edges, seq):
        # the Heron form of the stopping state cancelled to noise that stayed
        # positive: limit printed 7.985e-09, 2.725e-08 and 3.1415926184 for the
        # first, and A 1.9e-7 relative off for the second, with residual 3e-14
        self.assert_reference_limit(capsys, edges, seq)

    @pytest.mark.parametrize("edges, seq", [
        ("25.095478923718918,14.295832728893053,39.39123007451358", "|M"),
        ("98.69021739931644,118.55789142489175,185.97895804438994", "|A"),
        ("31.77404943599029,164.78423885792785,143.28611927012923", "|MC")])
    def test_largest_angle_rounds_to_pi(self, capsys, edges, seq):
        # the limit's largest angle is pi less 1e-17 to 1e-46, the float pi;
        # the check of the derived angles refused it with "angle
        # C=3.141592653589793 must be in (0, pi)"
        self.assert_reference_limit(capsys, edges, seq)

    @pytest.mark.parametrize("tol", ["1e-270", "1e-290"])
    def test_underflowing_root_is_scaled(self, capsys, tol):
        # a legal tol, but the stopping state's plain root is subnormal (1e-270)
        # or 0 (1e-290): limit printed angles from a few bits, or (0, 0, pi),
        # and then refused it as too short
        edges = "98.69021739931644,118.55789142489175,185.97895804438994"
        code, out, err = run(capsys, "limit", "--edges", edges, "--seq", "|A", f"--tol={tol}")
        assert code == 0, err
        want = LIMIT_REFERENCES[edges, "|A"]
        assert max(abs(x - y) / y for x, y in zip(json.loads(out)["angles"], want)) < 1e-12

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-13", "5e-324", "1e-310", "8.9e-308"])
    def test_bad_tolerance(self, capsys, tol):
        # --tol inf stopped after one step and printed residual 6.25... as a limit;
        # a subnormal stopping state raised ZeroDivisionError (5e-324) or
        # blamed the edges (1e-310)
        code, out, err = run(capsys, "limit", "--edges", "4,4,7", "--seq", "|M", f"--tol={tol}")
        assert code == 1 and out == ""
        assert "tol must be positive and finite" in err


class TestAddressCommand:
    def test_exact(self, capsys):
        code, out, _ = run(capsys, "address", "--seq", "AM|A", "--exact")
        assert code == 0
        doc = json.loads(out)
        assert doc["bary"] == ["1/2", "1/4", "1/4"]

    def test_approx(self, capsys):
        code, out, _ = run(capsys, "address", "--seq", "|M", "--depth", "20")
        doc = json.loads(out)
        assert doc["depth"] == 20
        assert doc["error_bound"] == pytest.approx(math.sqrt(2) / 2 ** 20)
        assert doc["bary"][0] == pytest.approx(1 / 3, abs=1e-6)


class TestAddressGoldens:
    """stdout of address and equiv, captured from the Fraction implementation
    and, for the later equiv cases, from the full witness search."""

    @pytest.mark.parametrize("argv, expected", [
        (("address", "--seq", "AM|A", "--exact"),
         '{"exact": true, "bary": ["1/2", "1/4", "1/4"]}'),
        (("address", "--seq", "AB|CM", "--exact"),
         '{"exact": true, "bary": ["11/20", "3/10", "3/20"]}'),
        (("address", "--seq", "MMB|ACMB", "--exact"),
         '{"exact": true, "bary": ["11/34", "13/34", "5/17"]}'),
        (("address", "--seq", "AB|CM", "--depth", "40"),
         '{"exact": false, "depth": 40, "bary": [0.5499999999998787, '
         '0.29999999999987875, 0.15000000000024252], '
         '"error_bound": 1.2862833381668564e-12}'),
        (("address", "--seq", "AB|CM", "--depth", "2000"),
         '{"exact": false, "depth": 2000, "bary": [0.55000000000000004, '
         '0.29999999999999999, 0.14999999999999999], '
         '"error_bound": 6.3596013107845015e-17}'),
        (("equiv", "--s", "AM|A", "--t", "MM|A"),
         '{"equivalent": true, "prop31_form": {"prefix": "", "sigma": '
         '{"A": "A", "B": "B", "C": "C"}, "zeta": "", "m": 0, "forms": [1, 4]}}'),
        (("equiv", "--s", "AB|C", "--t", "AC|B"),
         '{"equivalent": true, "prop31_form": {"prefix": "", "sigma": '
         '{"A": "A", "B": "B", "C": "C"}, "zeta": "", "m": 0, "forms": [2, 3]}}'),
        (("equiv", "--s", "BA|C", "--t", "BC|A"),
         '{"equivalent": true, "prop31_form": {"prefix": "", "sigma": '
         '{"A": "B", "B": "A", "C": "C"}, "zeta": "", "m": 0, "forms": [2, 3]}}'),
        (("equiv", "--s", "AABB|C", "--t", "AMCB|C"),
         '{"equivalent": true, "prop31_form": {"prefix": "A", "sigma": '
         '{"A": "A", "B": "B", "C": "C"}, "zeta": "x", "m": 1, "forms": [2, 5]}}'),
        (("equiv", "--s", "CMABCM|A", "--t", "CMABCB|C", "--horizon", "2"),
         '{"equivalent": true, "prop31_form": {"prefix": "CM", "sigma": '
         '{"A": "A", "B": "B", "C": "C"}, "zeta": "xy", "m": 2, "forms": [1, 2]}}'),
        (("equiv", "--s", "CMABCM|A", "--t", "CMABCB|C", "--horizon", "1"),
         '{"equivalent": true, "prop31_form": null}'),
        (("equiv", "--s", "A|BC", "--t", "M|CB"),
         '{"equivalent": true, "prop31_form": null}'),
    ])
    def test_stdout(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected + "\n"


class TestEquivCommand:
    def test_equivalent_with_witness(self, capsys):
        code, out, _ = run(capsys, "equiv", "--s", "AB|C", "--t", "AC|B")
        doc = json.loads(out)
        assert doc["equivalent"] is True
        assert sorted(doc["prop31_form"]["forms"]) == [2, 3]

    def test_negative_horizon_is_an_error(self, capsys):
        code, out, err = run(capsys, "equiv", "--s", "AM|A", "--t", "MM|A",
                             "--horizon", "-1")
        assert (code, out, err) == (1, "", "error: horizon must be >= 0\n")
        code, out, _ = run(capsys, "equiv", "--s", "AM|A", "--t", "MM|A",
                           "--horizon", "0")
        assert code == 0
        assert json.loads(out)["prop31_form"]["forms"] == [1, 4]

    def test_not_equivalent(self, capsys):
        code, out, _ = run(capsys, "equiv", "--s", "|A", "--t", "|B")
        doc = json.loads(out)
        assert doc["equivalent"] is False
        assert doc["prop31_form"] is None


class TestVerifyCommand:
    def test_passing_suite_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "noncontraction")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True and doc["suite"] == "noncontraction"

    def test_seeded_small_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma21",
                           "--seed", "9", "--samples", "15")
        assert code == 0
        assert json.loads(out)["samples"] == 15

    # sha256 of the stdout; the seeded suites' letter draws and limit walks
    # must leave every report byte for byte as it was
    @pytest.mark.parametrize("seed, digest", [
        (None, "aab52c310ae4f8cda7c3ac6c2c9db3bc94a79a0e8a46deb131ef60620f0f22c0"),
        ("3", "72470b92da65a3834512f0a1a2b5e1d299c357427384264eb3ffb9b27442ca29"),
        ("11", "b2838ea1c0567485585b481639f7adefa1e668429397ff165dcb4c2012b68f43"),
        ("42", "ef07d1f32b2a3e6b4e2b786d58c53be88f73e887c9da52d969c379b8d5261939"),
    ], ids=["default-seeds", "seed-3", "seed-11", "seed-42"])
    def test_all_suites_bytes_are_pinned(self, capsys, seed, digest):
        code, out, _ = run(capsys, "verify", "--suite", "all",
                           *(("--seed", seed) if seed else ()))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unknown_suite_usage(self, capsys):
        assert run(capsys, "verify", "--suite", "bogus")[0] == 64

    @pytest.mark.parametrize("suite", ["lemma21", "continuity"])
    def test_no_samples_is_an_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--samples", "0")
        assert code == 1 and out == ""
        assert "need at least one sample" in err

    @pytest.mark.parametrize("suite", ["eq1probe", "all"])
    def test_one_sample(self, capsys, suite):
        # one sample gives one (log area, log delta) point: no slope to fit
        code, out, _ = run(capsys, "verify", "--suite", suite, "--samples", "1")
        assert code == 0
        doc = json.loads(out)
        reports = doc["suites"] if suite == "all" else [doc]
        probe, = [r for r in reports if r["suite"] == "eq1probe"]
        assert probe["pass"] is True
        assert probe["stats"]["log_slope_vs_area"] is None

    def test_surjectivity_without_scipy(self):
        # the package needs only the standard library
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "sys.modules['numpy'] = None\n"
                "from trisub import cli\n"
                "sys.exit(cli.main(['verify', '--suite', 'surjectivity']))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True


def bare_python(code):
    """stdout of code run by python -S with only this checkout's trisub on the path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = f"import sys\nsys.path.insert(0, {src!r})\n{code}"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_dataclasses_inspect_or_typing():
    # the value records are named tuples and slotted classes; dataclasses
    # alone would pull in inspect, ast, dis and tokenize at every CLI start
    code = ("import trisub, trisub.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n")
    assert bare_python(code) == "[]\n"


def test_each_entry_point_loads_only_what_it_runs():
    # the package loads no hyperboloid model and no suites, a command other
    # than verify no suites and no random, and verify its suites
    code = ("import contextlib, io\n"
            "def loaded(*names):\n"
            "    return [name for name in names if name in sys.modules]\n"
            "import trisub\n"
            "found = [loaded('trisub.plane_model', 'trisub.verify')]\n"
            "import trisub.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    found.append(trisub.cli.main(['shape', '--edges', '4,4,7']))\n"
            "    found.append(loaded('trisub.verify', 'random'))\n"
            "    found.append(trisub.cli.main(['verify', '--suite', 'noncontraction']))\n"
            "found.append(loaded('trisub.verify'))\n"
            "print(found)\n")
    assert bare_python(code) == "[[], 0, [], 0, ['trisub.verify']]\n"


def test_suite_choices_are_verifys_suites():
    action, = [a for a in subparser("verify")._actions if a.dest == "suite"]
    assert tuple(action.choices) == (*verify.SUITE_NAMES, "all")


def test_python_m_runs_the_cli(capsys):
    # python -m trisub is cli.main with the process's arguments and exit code
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "trisub", "shape", "--edges", "4,4,7"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, "shape", "--edges", "4,4,7")


class TestSweepCommand:
    def test_grid_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--seq", "|M", "--grid", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "A0,B0,C0,Alim,Blim,Clim"
        assert len(lines) == 1 + 8
        for ln in lines[1:]:
            vals = [float(x) for x in ln.split(",")]
            assert sum(vals[:3]) < math.pi
            assert sum(vals[3:]) == pytest.approx(math.pi, abs=1e-12)

    def test_grid_below_one_is_refused(self, capsys):
        code, out, err = run(capsys, "sweep", "--seq", "|M", "--grid", "0")
        assert code == 1 and out == "" and "grid must be at least 1" in err


class TestRenderCommand:
    def test_depth_zero_single_path(self, capsys, tmp_path):
        out_file = tmp_path / "t.svg"
        code, _, _ = run(capsys, "render", "--edges", "1,1,1",
                         "--depth", "0", "-o", str(out_file))
        assert code == 0
        svg = out_file.read_text()
        assert svg.count("<path") == 1  # parent outline only
        assert svg.startswith("<svg")

    def test_depth_one_klein_matches_midpoints(self, capsys, tmp_path):
        out_file = tmp_path / "t.svg"
        code, _, _ = run(capsys, "render", "--edges", "2,2,3",
                         "--depth", "1", "--model", "klein",
                         "-o", str(out_file))
        assert code == 0
        svg = out_file.read_text()
        paths = re.findall(r'd="([^"]+)"', svg)
        assert len(paths) == 1 + 4  # parent + four cells
        tri = plane_model.place(EdgeLengths(2, 2, 3))
        mids = (plane_model.midpoint(tri.p_b, tri.p_c),
                plane_model.midpoint(tri.p_c, tri.p_a),
                plane_model.midpoint(tri.p_a, tri.p_b))
        expect = {}
        for p in (*tri, *mids):
            x, y = plane_model.to_disk(p, "klein")
            expect[(round(x, 6), round(-y, 6))] = (x, -y)
        seen = set()
        for path in paths[1:]:
            nums = [float(v) for v in re.findall(r"-?\d+\.\d+", path)]
            pts = list(zip(nums[0::2], nums[1::2]))
            for x, y in pts:
                key = min(expect, key=lambda k: (k[0] - x) ** 2 + (k[1] - y) ** 2)
                assert math.hypot(expect[key][0] - x, expect[key][1] - y) < 1e-9
                seen.add(key)
        assert len(seen) == 6  # three vertices and three midpoints all used

    def test_word_mode_highlights_last_cell(self, capsys, tmp_path):
        out_file = tmp_path / "t.svg"
        code, _, _ = run(capsys, "render", "--edges", "1,1,1",
                         "--word", "M", "-o", str(out_file))
        assert code == 0
        svg = out_file.read_text()
        assert 'fill-opacity="0.25"' in svg
        assert svg.count("<path") == 2

    def test_depth_guard(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "--edges", "1,1,1",
                           "--depth", "9", "-o", str(tmp_path / "t.svg"))
        assert code == 1
        assert "guard" in err

    def test_poincare_sampling(self, capsys, tmp_path):
        out_file = tmp_path / "t.svg"
        code, _, _ = run(capsys, "render", "--edges", "1,1,1", "--depth", "1",
                         "--model", "poincare", "-o", str(out_file))
        assert code == 0
        svg = out_file.read_text()
        first = re.search(r'd="M ([^"]+?) Z"', svg).group(1)
        # 3 edges x 32 samples per edge
        assert first.count(" L ") == 3 * 32 - 1

    def test_render_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            for model in ("klein", "poincare"):
                render_svg(RenderSpec(model=model, depth=3), EdgeLengths(2, 2, 3))
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_missing_output_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "--edges", "1,1,1", "--depth", "1",
                           "-o", str(tmp_path / "no" / "such" / "t.svg"))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--edges", "1,2,5", "--depth", "1"),
        ("--edges", "1,1,1", "--depth", "9"),
        ("--edges", "1,1,1", "--depth", "1", "--size", "-5"),
    ])
    def test_failing_render_leaves_file_untouched(self, capsys, tmp_path, argv):
        out_file = tmp_path / "t.svg"
        out_file.write_text("before")
        code, _, err = run(capsys, "render", *argv, "-o", str(out_file))
        assert code == 1 and err.startswith("error:")
        assert out_file.read_text() == "before"

    def test_failed_write_removes_partial_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "svg_lines", disk_full)
        out_file = tmp_path / "t.svg"
        code, _, err = run(capsys, "render", "--edges", "1,1,1", "--depth", "1",
                           "-o", str(out_file))
        assert code == 1 and "No space left" in err
        assert not out_file.exists()


class TestRenderInPlace:
    """render writes over an existing -o file in place and trims it to the
    length written: the file must hold what a render to a new path holds."""

    @staticmethod
    def render(capsys, out, *argv):
        assert run(capsys, "render", "--edges", "2,2,3", *argv, "-o", str(out)) == (0, "", "")

    def fresh(self, capsys, tmp_path, *argv):
        out = tmp_path / "fresh.svg"
        self.render(capsys, out, *argv)
        return out.read_bytes()

    @pytest.mark.parametrize("before, after", [
        (("--depth", "5"), ("--depth", "1")),
        (("--depth", "1"), ("--depth", "3")),
    ], ids=["over-longer", "over-shorter"])
    def test_matches_a_render_to_a_new_path(self, capsys, tmp_path, before, after):
        out = tmp_path / "t.svg"
        self.render(capsys, out, *before)
        self.render(capsys, out, *after)
        assert out.read_bytes() == self.fresh(capsys, tmp_path, *after)

    def test_through_a_symlink(self, capsys, tmp_path):
        target, link = tmp_path / "target.svg", tmp_path / "link.svg"
        self.render(capsys, target, "--depth", "4")
        link.symlink_to(target)
        self.render(capsys, link, "--depth", "1")
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == self.fresh(capsys, tmp_path, "--depth", "1")

    def test_hard_link_is_kept(self, capsys, tmp_path):
        out, other = tmp_path / "t.svg", tmp_path / "other.svg"
        self.render(capsys, out, "--depth", "4")
        os.link(out, other)
        self.render(capsys, out, "--depth", "1")
        assert os.path.samefile(out, other)
        assert other.read_bytes() == self.fresh(capsys, tmp_path, "--depth", "1")

    def test_new_file_has_the_mode_of_open_w(self, capsys, tmp_path):
        umask = os.umask(0o027)
        try:
            self.render(capsys, tmp_path / "t.svg", "--depth", "1")
            with open(tmp_path / "w.svg", "w"):
                pass
        finally:
            os.umask(umask)
        modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("t.svg", "w.svg")}
        assert modes == {0o666 & ~0o027}

    def test_existing_file_keeps_its_mode(self, capsys, tmp_path):
        out = tmp_path / "t.svg"
        self.render(capsys, out, "--depth", "4")
        out.chmod(0o604)
        self.render(capsys, out, "--depth", "1")
        assert stat.S_IMODE(out.stat().st_mode) == 0o604

    def test_to_dev_null(self, capsys):
        # size 0, as for a new file or a pipe: written and never trimmed
        self.render(capsys, os.devnull, "--depth", "2")

    def test_failed_write_over_a_longer_file_removes_it(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "t.svg"
        self.render(capsys, out, "--depth", "5")
        monkeypatch.setattr(cli, "svg_lines", disk_full)
        code, _, err = run(capsys, "render", "--edges", "1,1,1", "--depth", "1", "-o", str(out))
        assert code == 1 and "No space left" in err
        assert not out.exists()


def _reference_path(cell, spec, stroke, fill="none", extra=""):
    # each cell on its own: its own geodesic samples and formatted numbers
    def fmt(x):
        return "%.12f" % (0.0 if x == 0.0 else x)

    pts = []
    for u, v in ((cell[0], cell[1]), (cell[1], cell[2]), (cell[2], cell[0])):
        if spec.model == "klein":
            pts.append(plane_model.to_disk(u, "klein"))
        else:
            n = spec.samples_per_edge
            pts.extend(plane_model.to_disk(plane_model.geodesic_point(u, v, i / n), "poincare")
                       for i in range(n))
    d = " ".join(f"{'M' if i == 0 else 'L'} {fmt(x)} {fmt(-y)}"
                 for i, (x, y) in enumerate(pts))
    return (f'  <path d="{d} Z" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="0.004"{extra} />')


def _reference_leaves(cell, depth, letter):
    if depth == 0:
        yield cell, letter
        return
    kids = cell_children(cell)
    for ch in "ABCM":
        yield from _reference_leaves(kids[ch], depth - 1, ch)


def reference_svg(spec, edges):
    """The SVG built cell by cell, each cell taking its own midpoints."""
    tri = plane_model.place(edges)
    root = (tri.p_a, tri.p_b, tri.p_c)
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.size}" '
             f'height="{spec.size}" viewBox="-1.05 -1.05 2.1 2.1">',
             '  <circle cx="0" cy="0" r="1" fill="none" stroke="#cccccc" '
             'stroke-width="0.004" />',
             _reference_path(root, spec, "#000000")]
    if spec.depth is not None:
        if spec.depth > 0:
            lines += [_reference_path(cell, spec, render.DEFAULT_PALETTE[letter])
                      for cell, letter in _reference_leaves(root, spec.depth, None)]
    else:
        cell = root
        for i, letter in enumerate(spec.word):
            cell = cell_children(cell)[letter]
            last = i == len(spec.word) - 1
            lines.append(_reference_path(
                cell, spec, render.DEFAULT_PALETTE[letter],
                render.DEFAULT_PALETTE[letter] if last else "none",
                ' fill-opacity="0.25"' if last else ""))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


COORD = re.compile(r"-?\d+\.\d{12}")


class TestRenderSharing:
    EDGES = EdgeLengths(1.3, 0.7, 1.1)

    @pytest.mark.parametrize("spec, edges", [
        (RenderSpec(model="klein", depth=4), EDGES),
        (RenderSpec(model="poincare", depth=3), EDGES),
        (RenderSpec(model="poincare", word="MMABCA"), EDGES),
        (RenderSpec(model="klein", word="CAMB"), EDGES),
        # a root with no leaf-parent, and a root that is one
        (RenderSpec(model="klein", depth=0), EDGES),
        (RenderSpec(model="poincare", depth=0), EDGES),
        (RenderSpec(model="klein", depth=1), EDGES),
        (RenderSpec(model="poincare", depth=1), EDGES),
        (RenderSpec(model="klein", depth=6), EDGES),
        (RenderSpec(model="poincare", depth=5), EDGES),
        # edges so short that the sampler interpolates linearly
        (RenderSpec(model="klein", depth=2), EdgeLengths(1e-16, 1.5e-16, 2e-16)),
        (RenderSpec(model="poincare", depth=2), EdgeLengths(1e-16, 1.5e-16, 2e-16)),
        (RenderSpec(model="klein", depth=7), EDGES),
        # long edges, where the coordinate sums of a midpoint are largest
        (RenderSpec(model="klein", depth=4), EdgeLengths(14.9, 14.9, 14.9)),
        (RenderSpec(model="klein", word="MACBM"), EdgeLengths(14.9, 14.9, 14.9)),
        (RenderSpec(model="poincare", depth=3), EdgeLengths(14.9, 14.9, 14.9)),
        # Klein depths where the walk hands its cells over to templates: one
        # level of walk above them, the root as a shallower template, and two
        # levels of walk far from the origin
        (RenderSpec(model="klein", depth=5), EDGES),
        (RenderSpec(model="klein", depth=5), EdgeLengths(14.9, 14.9, 14.9)),
        (RenderSpec(model="klein", depth=5), EdgeLengths(1e-16, 1.5e-16, 2e-16)),
        (RenderSpec(model="klein", depth=3), EDGES),
        (RenderSpec(model="klein", depth=6), EdgeLengths(14.9, 14.9, 14.9)),
    ], ids=["klein-depth4", "poincare-depth3", "poincare-word", "klein-word",
            "klein-depth0", "poincare-depth0", "klein-depth1", "poincare-depth1",
            "klein-depth6", "poincare-depth5",
            "klein-1e-16", "poincare-1e-16", "klein-depth7", "klein-long-edges",
            "klein-word-long-edges", "poincare-long-edges", "klein-depth5",
            "klein-depth5-long-edges", "klein-depth5-1e-16", "klein-depth3",
            "klein-depth6-long-edges"])
    def test_matches_cell_by_cell_reference(self, spec, edges):
        assert render_svg(spec, edges) == reference_svg(spec, edges)

    @pytest.mark.parametrize("model", ["klein", "poincare"])
    def test_refuses_edges_below_the_floor(self, model):
        # their state underflows to 0; placing it put every vertex on one point
        with pytest.raises(hyptrig.DomainError, match="too short"):
            render_svg(RenderSpec(model=model, depth=2), EdgeLengths(1e-300, 1e-300, 1e-300))

    @staticmethod
    def peak_bytes(spec, edges):
        # the tracemalloc peak of streaming the document
        tracemalloc.start()
        try:
            for _ in svg_lines(spec, edges):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_klein_stream_keeps_last_level_as_text_only(self):
        # the vertices below the walk live only in the template cell that
        # makes them, as points and text, until its piece is yielded
        assert self.peak_bytes(RenderSpec(model="klein", depth=7), self.EDGES) < 1.3e6

    def test_klein_at_the_depth_guard_holds_no_level(self):
        # the walk stops TEMPLATE_LEVELS above the leaves, and each template
        # cell holds only its own vertices: no level of texts waits to be drawn
        spec = RenderSpec(model="klein", depth=render.MAX_DEPTH)
        assert self.peak_bytes(spec, self.EDGES) < 0.5e6

    def test_klein_builds_no_sampling_tables(self):
        # the sampling tables grow with samples_per_edge, and only the
        # Poincare disk builds them
        spec = RenderSpec(model="klein", depth=1, samples_per_edge=10 ** 6)
        assert self.peak_bytes(spec, self.EDGES) < 1e6

    @pytest.mark.parametrize("spec", [RenderSpec(model="klein", depth=6),
                                      RenderSpec(model="poincare", depth=4)],
                             ids=["klein-depth6", "poincare-depth4"])
    def test_pieces_stay_small(self, spec):
        # the document streams: no piece holds a level or the whole render
        assert max(map(len, svg_lines(spec, self.EDGES))) <= 64 * 1024

    def test_other_sample_counts_match_to_last_digit(self):
        # at 12 samples per edge these edges give a last-digit difference
        spec = RenderSpec(model="poincare", depth=3, samples_per_edge=12)
        edges = EdgeLengths(2, 2, 3)
        got, want = render_svg(spec, edges), reference_svg(spec, edges)
        assert COORD.sub("#", got) == COORD.sub("#", want)
        got_nums, want_nums = COORD.findall(got), COORD.findall(want)
        assert len(got_nums) == len(want_nums) == 2 * (3 * 12) * (1 + 4 ** 3)
        # in units of the last printed digit, 1e-12
        ulps = [abs(int(g.replace(".", "")) - int(w.replace(".", "")))
                for g, w in zip(got_nums, want_nums)]
        assert max(ulps) <= 1

    # sha256 of the document, pinned for the sample counts whose weights of u
    # are read backwards from those of v (32, 2) and those where they are
    # computed on their own (12, 7)
    @pytest.mark.parametrize("n, kw, edges, digest", [
        (32, {"depth": 3}, (2, 2, 3),
         "5af3508aee46679760e1a15c2670b415a811b232bdf1c223819defdac63a11ca"),
        (32, {"depth": 3}, (1.3, 0.7, 1.1),
         "c9cc4f9cbb4f11b26dfe7ff1e4f82f400548771ba450bf7ee47d82d6e196ec40"),
        (32, {"word": "MMABCA"}, (1.3, 0.7, 1.1),
         "9fbf69bbed4a6b76450fbfc46e484a78c9dd9b74fdffe93a0a2c7a92ca82bade"),
        (12, {"depth": 3}, (2, 2, 3),
         "ea8854e6f50a69d76e240c2839f746454a60ea45c1fb66aca01722530b47392f"),
        (12, {"depth": 3}, (1.3, 0.7, 1.1),
         "76816d20902f5d238987c8b85c6fe5ba04437b2bf9e23566694c8db31ed63695"),
        (12, {"word": "MMABCA"}, (1.3, 0.7, 1.1),
         "791854b9264fab4ffaa6ca8ddeb2300643904f412f37096b002954b10ce99b05"),
        (7, {"depth": 3}, (2, 2, 3),
         "acc445e25b19f3d898d5462c1dee3dcaba556c4aaacf69c31f2c9e5e8f16686a"),
        (7, {"depth": 3}, (1.3, 0.7, 1.1),
         "0cc88a072a15f83f5063d990c9313df023d11b53f531fa527814b3b35b05b85a"),
        (7, {"word": "MMABCA"}, (1.3, 0.7, 1.1),
         "6fb8677557c8de2fab9bb2f8ab1806d1e28242d77aef3f9bd23cbfcb230ddee7"),
        (2, {"depth": 3}, (2, 2, 3),
         "7a6e23114beef1c2de94118275bfdd6ba64a9c31e9630ca31e725b2b3263a510"),
        (2, {"depth": 3}, (1.3, 0.7, 1.1),
         "4838313d2ec3f29ca36ce2cac3770eb38a460c16f8c0b2207f72c318fa32d39d"),
        (2, {"word": "MMABCA"}, (1.3, 0.7, 1.1),
         "a99d4d4bd6171d255a269db721d2f308371246651b6a01ffedc757f132ee83a7"),
        # the depth of the CI digests and of the render-disk benchmark
        (32, {"depth": 5}, (2, 2, 3),
         "6a9feb8ec19b8c96c0ef6aa717d0e756d50b5920fd7ebb3bac71a894411e9551"),
    ], ids=[f"{n}-{name}" for n in (32, 12, 7, 2)
            for name in ("depth3-2,2,3", "depth3-1.3,0.7,1.1", "MMABCA")] + ["32-depth5-2,2,3"])
    def test_poincare_bytes_are_pinned(self, n, kw, edges, digest):
        spec = RenderSpec(model="poincare", samples_per_edge=n, **kw)
        svg = render_svg(spec, EdgeLengths(*edges))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    # sha256 of the document: Klein depth mode takes the vertices of the
    # last TEMPLATE_LEVELS levels from the flat loop of a template cell, and
    # word mode takes every vertex from the inline midpoint of the walk's
    # shared vertex function
    @pytest.mark.parametrize("kw, edges, digest", [
        ({"depth": 3}, (2, 2, 3),
         "302dc90ce64829982de55079e4aaddf3b29d32ded73a2a8867eab27b868b8141"),
        ({"depth": 3}, (1.3, 0.7, 1.1),
         "9bf7b47a31cb55f6ef81b5c85534ea1fc64a53dfd5a046d8075e1835c3e3365c"),
        ({"word": "MMABCA"}, (2, 2, 3),
         "a4d41c3840db9882f4b86519ad9589be80cdfe7608cb7465f3b86c40410c7b07"),
        ({"word": "MMABCA"}, (1.3, 0.7, 1.1),
         "3d63a3e827608098c781ab4adaf9ec69675a7f497e6097f20d64637866a1e514"),
        # the depth guard, as in the CI digests and the render-disk benchmark
        ({"depth": 8}, (2, 2, 3),
         "b313bd272f2aa08ddd7008d3cc49484c9241e51a48f5fa7f51feb6d274946ccd"),
    ], ids=["depth3-2,2,3", "depth3-1.3,0.7,1.1", "MMABCA-2,2,3", "MMABCA-1.3,0.7,1.1",
            "depth8-2,2,3"])
    def test_klein_bytes_are_pinned(self, kw, edges, digest):
        svg = render_svg(RenderSpec(model="klein", **kw), EdgeLengths(*edges))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_one_distance_per_edge_one_midpoint_per_vertex(self, monkeypatch, depth):
        calls = {"dist": 0}
        dist = plane_model.dist

        def counted_dist(u, v):
            calls["dist"] += 1
            return dist(u, v)

        monkeypatch.setattr(plane_model, "dist", counted_dist)
        points = self.count_points(monkeypatch)
        render_svg(RenderSpec(model="poincare", depth=depth), self.EDGES)
        side = 2 ** depth
        assert calls["dist"] == 3 + 3 * (4 ** depth + side) // 2
        assert points["calls"] == (side + 1) * (side + 2) // 2

    @pytest.mark.parametrize("kw, formatted", [
        ({"depth": 0}, 3),
        # the outline, and the root as a template cell of 2 levels: its 15 vertices
        ({"depth": 2}, 3 + 15),
        # the outline, and 3 corners and 150 new vertices in each of the
        # 4^4 template cells: the walk's 150 vertices above them are not formatted
        ({"depth": 8}, 3 + 4 ** 4 * 153),
        # the outline and each cell's path read 3 vertices
        ({"word": "MMABCA"}, 3 * 7),
    ], ids=["depth0", "depth2", "depth8", "MMABCA"])
    def test_klein_formats_vertices_where_they_are_read(self, monkeypatch, kw, formatted):
        points = self.count_points(monkeypatch)
        render_svg(RenderSpec(model="klein", **kw), self.EDGES)
        assert points["calls"] == formatted

    @staticmethod
    def count_points(monkeypatch):
        # counts the %-formats of render._POINT, one per vertex text
        points = {"calls": 0}

        class CountedPoint(str):
            def __mod__(self, xy):
                points["calls"] += 1
                return str.__mod__(self, xy)

        monkeypatch.setattr(render, "_POINT", CountedPoint(render._POINT))
        return points

    @pytest.mark.parametrize("depth, edges", [(1, EDGES), (2, EDGES), (3, EDGES), (4, EDGES),
                                              (2, EdgeLengths(1e-16, 1.5e-16, 2e-16))])
    def test_poincare_takes_no_oracle_midpoint_or_sample(self, monkeypatch, depth, edges):
        # render's own midpoints and samples, checked against the oracle's
        spec = RenderSpec(model="poincare", depth=depth)
        want = reference_svg(spec, edges)

        def refused(*args):
            raise AssertionError("render called the oracle's midpoint or geodesic_point")

        monkeypatch.setattr(plane_model, "midpoint", refused)
        monkeypatch.setattr(plane_model, "geodesic_point", refused)
        assert render_svg(spec, edges) == want


class TestRenderSpecValidation:
    def test_exclusive_modes(self):
        with pytest.raises(ValueError):
            RenderSpec(depth=1, word="M")
        with pytest.raises(ValueError):
            RenderSpec()

    def test_bad_letters(self):
        with pytest.raises(ValueError):
            RenderSpec(word="MX")

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown disk model"):
            RenderSpec(model="hyperbolic", depth=1)

    def test_sampling_floor(self):
        with pytest.raises(ValueError):
            RenderSpec(depth=1, samples_per_edge=1)

    @pytest.mark.parametrize("size", [0, -5])
    def test_size_must_be_positive(self, size):
        with pytest.raises(ValueError):
            RenderSpec(depth=1, size=size)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("shape", "--edges", "1.1,1.2,1.3"),
        ("orbit", "--edges", "2,2,3", "--word", "MABC"),
        ("limit", "--edges", "4,4,7", "--seq", "|M"),
        ("address", "--seq", "AB|CM", "--depth", "40"),
        ("address", "--seq", "AB|CM", "--exact"),
        ("equiv", "--s", "AM|A", "--t", "MM|A"),
        ("verify", "--suite", "noncontraction"),
        ("verify", "--suite", "lemma21", "--samples", "10"),
        ("sweep", "--seq", "|M", "--grid", "2"),
    ])
    def test_byte_identical_stdout(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_byte_identical_svg(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", "--edges", "2,2,3", "--depth", "2", "-o", str(f1))
        run(capsys, "render", "--edges", "2,2,3", "--depth", "2", "-o", str(f2))
        assert f1.read_bytes() == f2.read_bytes()
